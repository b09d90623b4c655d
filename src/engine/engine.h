// The unified ranked-enumeration query engine: one entry point that
// takes "a query + a ranking function" and produces ranked answers.
//
//   Engine engine;
//   auto result = engine.Execute(db, query, {CostModelKind::kSum}, {});
//   while (auto r = result.value().stream->Next()) { ... }
//
// Execute is the one code path that opens a ranked stream: snapshot +
// cached plan (engine/planner) + cached BuildArtifact + NewEnumeration
// (engine/executor). OpenCursor wraps the same stream in a resumable,
// budgeted Cursor (engine/cursor) that the caller owns. Interleaving
// many cursors -- admission, id tables, fair scheduling, worker
// threads -- is serving/ServingEngine's job; it opens every cursor
// through Engine::OpenCursor.
#ifndef TOPKJOIN_ENGINE_ENGINE_H_
#define TOPKJOIN_ENGINE_ENGINE_H_

#include <cstddef>
#include <memory>

#include "src/anyk/artifact.h"
#include "src/anyk/ranked_iterator.h"
#include "src/data/database.h"
#include "src/engine/cursor.h"
#include "src/engine/executor.h"
#include "src/engine/plan_cache.h"
#include "src/engine/planner.h"
#include "src/join/join_stats.h"
#include "src/obs/trace.h"
#include "src/query/cq.h"
#include "src/stats/estimator_cache.h"
#include "src/util/status.h"

namespace topkjoin {

/// One-shot execution result: the (explainable) plan that was chosen,
/// the ranked stream, and the preprocessing cost in RAM-model units.
/// The stream is self-contained -- it outlives db/query and the Engine.
struct ExecutionResult {
  QueryPlan plan;
  std::unique_ptr<RankedIterator> stream;
  /// The preprocessing work THIS call did: zero when the artifact came
  /// from the cache (a hit, or a delta patch of a stale entry), the
  /// full build's counts otherwise.
  JoinStats preprocessing;
  /// Present iff opts.collect_trace. Shared with the stream, which
  /// appends TTL milestones from Next() and finalizes the totals when
  /// destroyed -- read it between pulls or after dropping the stream,
  /// not from another thread mid-pull.
  std::shared_ptr<QueryTrace> trace;
  /// The frozen database view the whole execution was pinned to. The
  /// stream enumerates exactly this snapshot's contents, so mutating
  /// the live database mid-drain is well-defined: the stream is
  /// bit-stable against its snapshot, and the next Execute sees the
  /// new epoch.
  std::shared_ptr<const DatabaseSnapshot> snapshot;
};

/// The engine. It owns three epoch-versioned caches
/// (data/versioned_cache.h): sampled statistics per database, and plans
/// and preprocessing artifacts per PlanFingerprint (plan_cache.h).
/// Repeat requests skip planning and preprocessing; after a small
/// pure-append delta a stale plan is retagged and a stale T-DP artifact
/// delta-refolded (TryPatch); barrier mutations rebuild. A warm open
/// only mints per-stream enumeration state -- O(#groups) for kRec,
/// whose constructor sizes one stream per group of every node.
///
/// Every method is safe to call from many threads at once: the caches
/// are internally synchronized, and each call pins its own database
/// snapshot, so concurrent Database::ApplyDelta is fine too.
class Engine {
 public:
  Engine() = default;

  /// Plans and compiles in one step. On success the stream yields
  /// results in non-decreasing rank order until exhaustion; opts.k is a
  /// planning hint, not a truncation (use cursors for enforcement). An
  /// expired opts.deadline fails before any planning.
  StatusOr<ExecutionResult> Execute(const Database& db,
                                    const ConjunctiveQuery& query,
                                    const RankingSpec& ranking = {},
                                    const ExecutionOptions& opts = {});

  /// Plans only, through the plan cache -- for EXPLAIN-style
  /// introspection, admission checks and tests.
  StatusOr<QueryPlan> Explain(const Database& db,
                              const ConjunctiveQuery& query,
                              const RankingSpec& ranking = {},
                              const ExecutionOptions& opts = {}) const;

  /// Execute, wrapped in a budgeted, resumable cursor the caller owns.
  /// opts.k and opts.deadline fill the cursor's result budget and
  /// deadline when it sets none; the resolved deadline is the one
  /// Execute checks. The cursor carries the trace and pinned snapshot.
  StatusOr<std::unique_ptr<Cursor>> OpenCursor(
      const Database& db, const ConjunctiveQuery& query,
      const RankingSpec& ranking = {}, const ExecutionOptions& opts = {},
      CursorOptions cursor_options = {});

  /// Plan-cache monitoring: hits, misses (= patches + builds + failed
  /// builds), patches (stale plans retagged), builds (PlanQuery runs),
  /// invalidations, evictions, and the current entry count.
  PlanCacheStats GetPlanCacheStats() const { return plans_.stats(); }
  /// Artifact-cache monitoring (same stats shape and counting rule).
  PlanCacheStats GetArtifactCacheStats() const { return artifacts_.stats(); }

  /// Drops every cached plan, artifact and sampled statistics for
  /// `db`. Data *changes* already invalidate through the version key;
  /// call this before destroying a Database this engine has served, so
  /// a future allocation reusing its address can never collide with
  /// leftover entries. Open streams keep their artifact alive.
  void InvalidateCachedPlans(const Database& db);

 private:
  /// The plan for `key` at `snapshot`'s epoch: cached, retagged
  /// (RetagPlan), or planned over the cached estimator.
  StatusOr<PlanCache::Result> CachedPlan(
      const CacheKey& key, const Database& db,
      const std::shared_ptr<const DatabaseSnapshot>& snapshot,
      const ConjunctiveQuery& query, const RankingSpec& ranking,
      const ExecutionOptions& opts) const;

  static constexpr size_t kPlanCacheCapacity = 256;
  static constexpr size_t kArtifactCacheCapacity = 64;
  static constexpr size_t kEstimatorCacheCapacity = 4;

  // Mutable so Explain stays const. The serving.* names prefix the
  // registry counters and <name>.insert failpoints.
  mutable EstimatorCache estimators_{kEstimatorCacheCapacity};
  mutable PlanCache plans_{"serving.plan_cache", kPlanCacheCapacity};
  VersionedCache<PreprocessingArtifact> artifacts_{"serving.artifact_cache",
                                                   kArtifactCacheCapacity};
};

}  // namespace topkjoin

#endif  // TOPKJOIN_ENGINE_ENGINE_H_
