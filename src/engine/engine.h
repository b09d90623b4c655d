// The unified ranked-enumeration query engine: one entry point that
// takes "a query + a ranking function" and produces ranked answers.
//
//   Engine engine;
//   auto result = engine.Execute(db, query, {CostModelKind::kSum}, {});
//   while (auto r = result.value().stream->Next()) { ... }
//
// Execute = snapshot + plan (engine/planner) + BuildArtifact +
// NewEnumeration (engine/executor). OpenCursor wraps the same stream in
// a resumable, budgeted Cursor (engine/cursor) that the caller owns.
// Interleaving many cursors -- id tables, fair scheduling, worker
// threads -- is serving/ServingEngine's job (num_workers = 0 runs its
// slices inline on the calling thread).
#ifndef TOPKJOIN_ENGINE_ENGINE_H_
#define TOPKJOIN_ENGINE_ENGINE_H_

#include <memory>

#include "src/anyk/ranked_iterator.h"
#include "src/data/database.h"
#include "src/engine/cursor.h"
#include "src/engine/executor.h"
#include "src/engine/planner.h"
#include "src/join/join_stats.h"
#include "src/obs/trace.h"
#include "src/query/cq.h"
#include "src/stats/estimator_cache.h"
#include "src/util/status.h"

namespace topkjoin {

/// One-shot execution result: the (explainable) plan that was chosen,
/// the ranked stream, and the preprocessing cost in RAM-model units.
/// The stream is self-contained -- it outlives db/query.
struct ExecutionResult {
  QueryPlan plan;
  std::unique_ptr<RankedIterator> stream;
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

/// The defaulting rule shared by Engine::OpenCursor and
/// ServingEngine::OpenCursor: a cursor opened without an explicit result
/// budget adopts opts.k as its budget.
CursorOptions ResolveCursorOptions(CursorOptions options,
                                   const ExecutionOptions& opts);

/// The engine. Stateless apart from an internally-synchronized
/// per-(db, epoch) estimator cache, so every method is safe to call
/// from many threads at once -- each call pins its own database
/// snapshot, so concurrent Database::ApplyDelta is fine too.
class Engine {
 public:
  Engine() = default;

  /// Plans and compiles in one step. On success the stream yields
  /// results in non-decreasing rank order until exhaustion; opts.k is a
  /// planning hint, not a truncation (use cursors for enforcement).
  StatusOr<ExecutionResult> Execute(const Database& db,
                                    const ConjunctiveQuery& query,
                                    const RankingSpec& ranking = {},
                                    const ExecutionOptions& opts = {});

  /// Plans only -- for EXPLAIN-style introspection and tests.
  StatusOr<QueryPlan> Explain(const Database& db,
                              const ConjunctiveQuery& query,
                              const RankingSpec& ranking = {},
                              const ExecutionOptions& opts = {}) const;

  /// Execute, wrapped in a budgeted, resumable cursor the caller owns.
  /// The cursor carries its options resolved against opts (see
  /// ResolveCursorOptions: opts.k becomes the result budget when none
  /// is set), the execution's trace, and its pinned snapshot.
  StatusOr<std::unique_ptr<Cursor>> OpenCursor(
      const Database& db, const ConjunctiveQuery& query,
      const RankingSpec& ranking = {}, const ExecutionOptions& opts = {},
      CursorOptions cursor_options = {});

 private:
  /// One estimator per (db, version), shared by Execute and Explain so
  /// repeated queries stop re-sampling every relation. Mutable: the
  /// cache is internally synchronized and Explain stays const.
  mutable EstimatorCache estimators_;
};

}  // namespace topkjoin

#endif  // TOPKJOIN_ENGINE_ENGINE_H_
