#include "src/engine/executor.h"

#include <utility>

#include "src/cycles/fourcycle.h"
#include "src/obs/instrumented_iterator.h"
#include "src/obs/metrics.h"
#include "src/query/decomposition.h"
#include "src/ranking/cost_model.h"
#include "src/util/cancellation.h"

namespace topkjoin {
namespace {

// The strategy dispatch, metrics-free: every path builds a shareable
// artifact whose NewStream() mints per-cursor enumerations. Honors the
// caller's ExecContext scope: the build loops poll ShouldAbort(), and
// an aborted (cancelled / past-deadline) build is discarded here and
// converted to a typed error -- a partial artifact is never returned.
StatusOr<std::shared_ptr<const PreprocessingArtifact>> BuildArtifactInner(
    const Database& db, const ConjunctiveQuery& query, const QueryPlan& plan,
    JoinStats* stats) {
  std::shared_ptr<const PreprocessingArtifact> artifact;
  switch (plan.strategy) {
    case PlanStrategy::kAnyKDirect:
    case PlanStrategy::kBatchSort:
      artifact = WithCostModel(plan.ranking.model, [&]<typename CM>() {
        return MakeTreeArtifact<CM>(db, query, plan.algorithm, stats);
      });
      break;
    // Decomposed strategies instantiate the bag artifact per dioid, the
    // same way the acyclic path does: the bags' per-tuple member-weight
    // sequences (see query/decomposition.h) let every cost model fold
    // its exact bag-tuple costs.
    case PlanStrategy::kDecompose: {
      if (!plan.grouping.has_value()) {
        return Status::Error("decompose plan carries no grouping");
      }
      DecomposedQuery dq =
          MaterializeGrouping(db, query, *plan.grouping, stats);
      // Check between the phases too: a bag materialization that
      // aborted must not feed a (garbage) T-DP build.
      if (Status aborted = ExecContext::AbortStatus("preprocessing");
          !aborted.ok()) {
        return aborted;
      }
      artifact = WithCostModel(plan.ranking.model, [&]<typename CM>() {
        return MakeArtifact<CM>(plan.algorithm, stats, std::move(dq));
      });
      break;
    }
    case PlanStrategy::kUnionCases:
      // The estimator-chosen heavy/light threshold rides in the plan
      // (0 = static sqrt(n) fallback, e.g. hand-built plans).
      artifact = MakeFourCycleArtifact(db, query, plan.algorithm, stats,
                                       plan.ranking.model,
                                       plan.fourcycle_threshold);
      break;
  }
  if (Status aborted = ExecContext::AbortStatus("preprocessing");
      !aborted.ok()) {
    return aborted;
  }
  if (artifact == nullptr) {
    return Status::Error("unknown plan strategy or algorithm");
  }
  return artifact;
}

}  // namespace

StatusOr<std::shared_ptr<const PreprocessingArtifact>> BuildArtifact(
    const Database& db, const ConjunctiveQuery& query, const QueryPlan& plan,
    JoinStats* stats) {
  const FastClock::Ticks start = FastClock::Now();
  auto artifact = BuildArtifactInner(db, query, plan, stats);
  if (!artifact.ok()) return artifact;
  MetricsRegistry::Global()
      .GetHistogram("executor.compile_ns")
      ->Record(FastClock::TicksToNs(FastClock::Now() - start));
  return artifact;
}

std::unique_ptr<RankedIterator> NewEnumeration(
    const PreprocessingArtifact& artifact, const QueryPlan& plan,
    std::shared_ptr<QueryTrace> trace) {
  auto inner = artifact.NewStream();
  MetricsRegistry::Global().GetCounter("executor.pipelines")->Increment();
  if (trace != nullptr) {
    trace->strategy = std::string(PlanStrategyName(plan.strategy)) + "/" +
                      AnyKAlgorithmName(plan.algorithm);
  }
  return std::make_unique<InstrumentedIterator>(std::move(inner),
                                                std::move(trace));
}

}  // namespace topkjoin
