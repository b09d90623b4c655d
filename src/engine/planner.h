// Query planner for the unified ranked-enumeration engine.
//
// Given a full conjunctive query, a ranking specification, and an
// optional result demand k, the planner routes the query to the right
// algorithm family, the way the paper's tutorial framing implies:
//
//   * alpha-acyclic (GYO succeeds)  -> a single T-DP tree, enumerated
//     by the any-k variant the request's k class selects (Take2 for a
//     small k, REC otherwise). No estimate enters that choice; the
//     batch-then-sort baseline runs only when the caller forces it.
//   * cyclic, 4-cycle shaped        -> the heavy/light union-of-case
//     plans (submodular-width style; O~(n^{1.5}) preprocessing).
//   * cyclic, general               -> greedy acyclic grouping from
//     query/decomposition; materialize bags, run any-k over the bag
//     query (single-tree fhw-style plan).
//
// The emitted QueryPlan is a plain explainable object: it can be
// printed, inspected in tests, and compiled by the executor.
#ifndef TOPKJOIN_ENGINE_PLANNER_H_
#define TOPKJOIN_ENGINE_PLANNER_H_

#include <chrono>
#include <optional>
#include <string>

#include "src/anyk/anyk.h"
#include "src/data/database.h"
#include "src/query/cq.h"
#include "src/query/decomposition.h"
#include "src/ranking/cost_model.h"
#include "src/stats/cardinality_estimator.h"
#include "src/util/status.h"

namespace topkjoin {

/// What to rank by. The dioid kind selects the cost-model policy the
/// executor instantiates the T-DP templates with.
struct RankingSpec {
  CostModelKind model = CostModelKind::kSum;
};

/// Caller-provided execution hints.
struct ExecutionOptions {
  /// Expected number of results the caller will consume; nullopt means
  /// "unknown / possibly all" and keeps the anytime property.
  std::optional<size_t> k;
  /// Overrides the planner's tree-algorithm choice when set; the only
  /// way to get the batch-then-sort baseline.
  std::optional<AnyKAlgorithm> force_algorithm;
  /// Attach a QueryTrace (phase timings + per-k TTL milestones, see
  /// src/obs/trace.h) to the execution: ExecutionResult::trace for
  /// Engine::Execute, ServingEngine::GetQueryTrace for cursors. Does
  /// not affect the chosen plan (and is deliberately excluded from the
  /// plan-cache fingerprint).
  bool collect_trace = false;
  /// Absolute wall deadline for the whole request. Planning and
  /// preprocessing poll it cooperatively (ExecContext) and abort with
  /// kDeadlineExceeded mid-build instead of finishing doomed work;
  /// cursors adopt it as CursorOptions::deadline when that is unset.
  /// Excluded from the plan-cache fingerprint, like collect_trace.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// The structural family a plan belongs to.
enum class PlanStrategy {
  kAnyKDirect,   // acyclic: one T-DP over the query as written
  kBatchSort,    // acyclic: full enumeration + sort (forced baseline)
  kDecompose,    // cyclic: one acyclic grouping, materialized bags
  kUnionCases,   // cyclic 4-cycle: heavy/light case plans + ranked union
};

const char* PlanStrategyName(PlanStrategy strategy);

/// An explainable physical plan. `algorithm` is the per-tree ranked
/// enumerator (also used inside decomposed/union plans); `grouping` is
/// set only for kDecompose.
struct QueryPlan {
  PlanStrategy strategy = PlanStrategy::kAnyKDirect;
  AnyKAlgorithm algorithm = AnyKAlgorithm::kRec;
  RankingSpec ranking;
  std::optional<AtomGrouping> grouping;
  /// Best available output-size estimate: the sampling estimator's
  /// value clamped from above by the AGM bound. +infinity only when
  /// both are unavailable (treated as "unknown", never as "tiny").
  double estimated_output = 0.0;
  /// Estimated tuples materialized before enumeration starts, in
  /// JoinStats units: bag sizes for decomposed plans, the full output
  /// for batch-then-sort, 0 for streaming any-k over the query as
  /// written (full-reducer preprocessing is input-linear).
  double estimated_intermediate = 0.0;
  /// Raw AGM worst-case bound; +infinity when the LP failed. Retained
  /// next to the sampled estimate so Explain output shows how loose the
  /// worst case is on this instance.
  double agm_bound = 0.0;
  /// kUnionCases only: the heavy/light degree threshold tau chosen from
  /// the estimator's per-edge selectivities (cycles/fourcycle.h). 0 =
  /// unset; the executor falls back to the static sqrt(n) split.
  size_t fourcycle_threshold = 0;
  /// Human-readable trace of every heuristic decision taken.
  std::string rationale;

  /// Multi-line rendering: strategy, algorithm, estimates, rationale.
  std::string DebugString() const;
};

/// Requested k at or below this streams with ANYK-PART Take2, which
/// reaches the first results fastest; a larger or unknown k streams with
/// ANYK-REC, which amortizes best toward a full drain.
inline constexpr size_t kAlwaysAnyKThreshold = 128;

/// Plans the query. Fails (Status) when the query is empty or references
/// relations outside the database. Cyclic queries plan under every
/// ranking dioid: bag materialization carries per-tuple member-weight
/// sequences, so non-additive dioids (MAX/PROD/LEX) rank decomposed
/// plans exactly (the dioid is recorded in the plan's rationale).
///
/// Cardinalities come from a sampling estimator (src/stats/), with the
/// AGM bound retained as an upper-bound clamp: `estimated_output` and
/// `estimated_intermediate` are instance estimates, and bag groupings
/// minimize estimated bag sizes rather than following the blind
/// shared-variable greedy. Pass a prebuilt `estimator` (built over this
/// exact `db` at its current version) to amortize sampling across
/// queries -- Engine's plan cache does; nullptr builds a
/// transient one for this call.
StatusOr<QueryPlan> PlanQuery(const Database& db,
                              const ConjunctiveQuery& query,
                              const RankingSpec& ranking,
                              const ExecutionOptions& opts,
                              const CardinalityEstimator* estimator = nullptr);

/// (Exposed for tests.) Folds the AGM LP outcome into the plan's
/// `agm_bound`: a failed bound becomes +infinity ("unknown") with an
/// Explain note -- never 0, which the output clamp would turn into an
/// `estimated_output` of 0 that admission control then under-prices.
double ResolveAgmBound(const StatusOr<double>& agm, QueryPlan* plan);

/// The per-tree algorithm, a pure function of the request: the forced
/// algorithm if set, kPartTake2 for a known k <= kAlwaysAnyKThreshold,
/// kRec otherwise. Never kBatch unless forced. Appends the reason to
/// `plan`'s rationale when `plan` is not null; the reason names the k
/// class, not the raw k, since every k in a class shares one plan.
AnyKAlgorithm ChooseTreeAlgorithm(const ExecutionOptions& opts,
                                  QueryPlan* plan = nullptr);

}  // namespace topkjoin

#endif  // TOPKJOIN_ENGINE_PLANNER_H_
