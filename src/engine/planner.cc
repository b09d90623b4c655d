#include "src/engine/planner.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>

#include "src/cycles/fourcycle.h"
#include "src/obs/metrics.h"
#include "src/query/agm.h"
#include "src/query/hypergraph.h"

namespace topkjoin {

namespace {

void Explain(QueryPlan* plan, const std::string& line) {
  plan->rationale += line;
  plan->rationale += '\n';
}

std::string FormatCount(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

// The 4-cycle union-of-cases materializes per-case bags whose total
// size is bounded by the best fhw-2 split of the cycle; estimate both
// splits and take the cheaper as the plan's intermediate estimate.
double EstimateFourCycleIntermediate(const ConjunctiveQuery& query,
                                     const CardinalityEstimator& estimator) {
  AtomGrouping opposite_a;
  opposite_a.groups = {{0, 1}, {2, 3}};
  AtomGrouping opposite_b;
  opposite_b.groups = {{1, 2}, {3, 0}};
  const double a =
      estimator.EstimateDecomposition(query, opposite_a).intermediate_tuples;
  const double b =
      estimator.EstimateDecomposition(query, opposite_b).intermediate_tuples;
  return std::min(a, b);
}

}  // namespace

double ResolveAgmBound(const StatusOr<double>& agm, QueryPlan* plan) {
  if (agm.ok()) return agm.value();
  // An LP failure means the worst case is *unknown*, not that the
  // output is empty: propagate the most conservative bound so no
  // downstream heuristic mistakes the failure for "tiny output".
  Explain(plan, "AGM bound unavailable (" + agm.status().message() +
                    "): treating the worst case as unbounded");
  return std::numeric_limits<double>::infinity();
}

// Chooses the per-tree algorithm for an acyclic (sub)plan from the
// request alone. After linear preprocessing every any-k variant streams
// at a logarithmic delay per result, so no output estimate is consulted:
// the PART family (Take2) reaches the first results fastest, while REC
// amortizes best toward a full drain.
AnyKAlgorithm ChooseTreeAlgorithm(const ExecutionOptions& opts,
                                  QueryPlan* plan) {
  if (opts.force_algorithm.has_value()) {
    if (plan != nullptr) {
      Explain(plan, std::string("algorithm forced by caller: ") +
                        AnyKAlgorithmName(*opts.force_algorithm));
    }
    return *opts.force_algorithm;
  }
  if (opts.k.has_value() && *opts.k <= kAlwaysAnyKThreshold) {
    if (plan != nullptr) {
      Explain(plan, "k <= " + std::to_string(kAlwaysAnyKThreshold) +
                        ": anyk-part take2 minimizes time-to-first-result "
                        "(<= 2 frontier pushes per result vs ell for "
                        "eager/lazy)");
    }
    return AnyKAlgorithm::kPartTake2;
  }
  if (plan != nullptr) {
    Explain(plan, opts.k.has_value()
                      ? "k > " + std::to_string(kAlwaysAnyKThreshold) +
                            ": anyk-rec balances delay and total time"
                      : std::string("k unknown: keep the anytime property "
                                    "with anyk-rec (best full-drain "
                                    "amortization among streaming "
                                    "variants)"));
  }
  return AnyKAlgorithm::kRec;
}

const char* PlanStrategyName(PlanStrategy strategy) {
  switch (strategy) {
    case PlanStrategy::kAnyKDirect:
      return "anyk-direct";
    case PlanStrategy::kBatchSort:
      return "batch-sort";
    case PlanStrategy::kDecompose:
      return "decompose";
    case PlanStrategy::kUnionCases:
      return "union-cases";
  }
  return "unknown";
}

std::string QueryPlan::DebugString() const {
  std::string out;
  out += "QueryPlan{strategy=";
  out += PlanStrategyName(strategy);
  out += ", algorithm=";
  out += AnyKAlgorithmName(algorithm);
  out += ", ranking=";
  out += CostModelName(ranking.model);
  out += ", est_output=";
  out += FormatCount(estimated_output);
  out += ", est_intermediate=";
  out += FormatCount(estimated_intermediate);
  out += ", agm_bound=";
  out += FormatCount(agm_bound);
  if (grouping.has_value()) {
    out += ", bags=";
    out += FormatCount(static_cast<double>(grouping->groups.size()));
  }
  if (fourcycle_threshold > 0) {
    out += ", tau=";
    out += FormatCount(static_cast<double>(fourcycle_threshold));
  }
  out += "}\n";
  out += rationale;
  return out;
}

StatusOr<QueryPlan> PlanQuery(const Database& db,
                              const ConjunctiveQuery& query,
                              const RankingSpec& ranking,
                              const ExecutionOptions& opts,
                              const CardinalityEstimator* estimator) {
  ScopedTimer plan_timer(
      MetricsRegistry::Global().GetHistogram("planner.plan_ns"));
  MetricsRegistry::Global().GetCounter("planner.plans")->Increment();
  if (estimator == nullptr) {
    // Transient estimator builds are the cost Engine's EstimatorCache
    // exists to avoid; count the ones that slip through.
    MetricsRegistry::Global()
        .GetCounter("planner.transient_estimator_builds")
        ->Increment();
  }
  if (query.NumAtoms() == 0) {
    return Status::Error("cannot plan an empty query");
  }
  for (const Atom& atom : query.atoms()) {
    if (atom.relation >= db.NumRelations()) {
      return Status::NotFound("query references relation id " +
                           std::to_string(atom.relation) +
                           " outside the database");
    }
    if (atom.vars.size() != db.relation(atom.relation).arity()) {
      return Status::Error("atom over '" + db.relation(atom.relation).name() +
                           "' binds " + std::to_string(atom.vars.size()) +
                           " vars but the relation has arity " +
                           std::to_string(db.relation(atom.relation).arity()));
    }
  }

  QueryPlan plan;
  plan.ranking = ranking;
  plan.agm_bound = ResolveAgmBound(AgmBound(query, db), &plan);

  // Instance cardinalities from the sampling estimator, with the AGM
  // worst case kept as an upper-bound clamp (sampling can overshoot on
  // tiny/degenerate inputs; it can never beat the worst case).
  std::optional<CardinalityEstimator> local_estimator;
  if (estimator == nullptr) {
    local_estimator.emplace(db);
    estimator = &*local_estimator;
  }
  const double sampled = estimator->EstimateOutput(query);
  plan.estimated_output = std::min(sampled, plan.agm_bound);
  Explain(&plan, "sampling estimator: output ~" + FormatCount(sampled) +
                     " (AGM worst-case clamp " + FormatCount(plan.agm_bound) +
                     (sampled > plan.agm_bound ? ", clamp applied)" : ")"));

  if (IsAcyclic(query)) {
    Explain(&plan, "GYO reduction succeeds: query is alpha-acyclic, "
                   "single T-DP tree suffices");
    plan.algorithm = ChooseTreeAlgorithm(opts, &plan);
    plan.strategy = plan.algorithm == AnyKAlgorithm::kBatch
                        ? PlanStrategy::kBatchSort
                        : PlanStrategy::kAnyKDirect;
    // Streaming any-k materializes nothing beyond the (input-linear)
    // full reducer; batch pays for the whole output before sorting.
    plan.estimated_intermediate =
        plan.strategy == PlanStrategy::kBatchSort ? plan.estimated_output
                                                  : 0.0;
    return plan;
  }

  // Cyclic: materialized bags carry per-tuple member-weight sequences
  // (WeightMatrix), so every dioid -- not just additive SUM -- folds
  // exact bag-tuple costs and the downstream T-DP ranks faithfully.
  Explain(&plan, "GYO reduction fails: query is cyclic");
  Explain(&plan, std::string("ranking dioid ") + CostModelName(ranking.model) +
                     " carried through bag materialization via per-tuple "
                     "member-weight sequences");
  if (IsFourCycleShaped(query)) {
    plan.strategy = PlanStrategy::kUnionCases;
    plan.estimated_intermediate =
        EstimateFourCycleIntermediate(query, *estimator);
    plan.fourcycle_threshold =
        ChooseFourCycleThreshold(db, query, estimator);
    Explain(&plan,
            "4-cycle shape detected: heavy/light case plans partition the "
            "output, ranked union merges the per-case any-k streams "
            "(O~(n^1.5) preprocessing vs O~(n^2) single-tree); case bags "
            "estimated <= " +
                FormatCount(plan.estimated_intermediate) + " tuples");
    Explain(&plan,
            "heavy/light threshold tau=" +
                FormatCount(static_cast<double>(plan.fourcycle_threshold)) +
                " minimizes estimated light-bag + heavy-probe cost "
                "(estimator edge selectivities; static split is "
                "tau=sqrt(n))");
  } else {
    // Cost-aware grouping: greedy merges minimize the estimated
    // materialized bag size instead of blindly maximizing shared
    // variables -- on skewed instances the two differ by orders of
    // magnitude of intermediate tuples.
    const auto grouping =
        FindAcyclicGrouping(query, [&](const std::vector<size_t>& atoms) {
          return estimator->EstimateJoinSize(query, atoms);
        });
    if (!grouping.has_value()) {
      return Status::Error("no acyclic grouping found for cyclic query");
    }
    plan.strategy = PlanStrategy::kDecompose;
    plan.grouping = *grouping;
    const DecompositionEstimate bags =
        estimator->EstimateDecomposition(query, *grouping);
    plan.estimated_intermediate = bags.intermediate_tuples;
    std::string bag_sizes;
    for (size_t g = 0; g < bags.bag_tuples.size(); ++g) {
      if (g > 0) bag_sizes += ", ";
      bag_sizes += FormatCount(bags.bag_tuples[g]);
    }
    Explain(&plan, "estimated-cost acyclic grouping into " +
                       std::to_string(grouping->groups.size()) +
                       " bag(s) of ~[" + bag_sizes +
                       "] tuples; any-k runs over the materialized bag "
                       "query");
  }
  // Inside decomposed plans the tree algorithm follows the same rule
  // (each case/bag query is acyclic).
  plan.algorithm = ChooseTreeAlgorithm(opts, &plan);
  return plan;
}

}  // namespace topkjoin
