// The 4-cycle query and its submodular-width-style evaluation
// (Sections 1 and 3 of the paper).
//
// Query: Q(a,b,c,d) :- R(a,b), S(b,c), T(c,d), W(d,a).
//
// Single-tree decompositions have fractional hypertree width 2 (bags
// R|><|S and T|><|W of size up to n^2). PANDA's submodular-width bound of
// 1.5 is achieved by partitioning the DATA and routing each part to a
// different acyclic plan. For the 4-cycle the partition is heavy/light
// on the two "diagonal" variables b and d with threshold ~ sqrt(n):
//
//   b light <=> deg_R(b) <= tau   (few a-neighbors in R)
//   d light <=> deg_W(d) <= tau   (few a-neighbors in W)
//
//   case LL (b light, d light):  bags ABC = R|><|S [b light]
//                                     CDA = T|><|W [d light]
//   case HH (b heavy, d heavy):  bags ABD = W|><|R [both heavy]
//                                     BCD = S|><|T [both heavy]
//   case HL (b heavy, d light):  bags ABD, BCD with the mixed filters
//   case LH (b light, d heavy):  symmetric
//
// Every bag materializes in O(n^{1.5}) by construction: light-side bags
// are bounded by tau * n, heavy-side bags iterate the <= n/tau heavy
// values per input tuple. The four cases partition the output, so the
// union of the per-case (acyclic!) plans enumerates every 4-cycle
// exactly once -- and ranked enumeration merges the per-case any-k
// streams (Section 4).
#ifndef TOPKJOIN_CYCLES_FOURCYCLE_H_
#define TOPKJOIN_CYCLES_FOURCYCLE_H_

#include <memory>
#include <vector>

#include "src/anyk/anyk.h"
#include "src/anyk/artifact.h"
#include "src/anyk/ranked_iterator.h"
#include "src/data/database.h"
#include "src/join/join_stats.h"
#include "src/query/cq.h"
#include "src/query/decomposition.h"
#include "src/ranking/cost_model.h"
#include "src/stats/cardinality_estimator.h"

namespace topkjoin {

/// Builds the canonical 4-cycle query over one edge relation:
/// E(x0,x1), E(x1,x2), E(x2,x3), E(x3,x0).
ConjunctiveQuery FourCycleQuery(RelationId edge_relation);

/// True when `query` has the canonical 4-cycle shape (4 binary atoms,
/// vars (0,1),(1,2),(2,3),(3,0)); relations may differ per atom.
bool IsFourCycleShaped(const ConjunctiveQuery& query);

/// The union-of-acyclic-plans decomposition described above. Each case
/// is a DecomposedQuery with two 3-ary bags; empty cases are dropped.
/// `stats` records bag sizes as intermediates (the O~(n^{1.5}) cost).
struct FourCyclePlans {
  std::vector<DecomposedQuery> cases;
  size_t threshold = 0;       // tau used for the heavy/light split
  size_t heavy_b_count = 0;
  size_t heavy_d_count = 0;
};

/// `threshold` overrides the heavy/light degree cutoff tau; 0 keeps the
/// static sqrt(n) split. The planner feeds the estimator-chosen value
/// (ChooseFourCycleThreshold) through QueryPlan::fourcycle_threshold.
FourCyclePlans BuildFourCyclePlans(const Database& db,
                                   const ConjunctiveQuery& query,
                                   JoinStats* stats, size_t threshold = 0);

/// Picks the heavy/light threshold tau from the instance instead of the
/// static sqrt(n): exact light-bag sizes from the four degree maps
/// (sum over light join values of the cross-degree products -- the
/// tuples the LL/LH light bags actually materialize) plus the
/// heavy-loop probe and expected-output cost, with the probe hit rate
/// scaled by the estimator's per-edge selectivities. Minimized over a
/// geometric tau grid; on skewed instances (a light-degree hub with a
/// huge cross degree) this undercuts the static split by orders of
/// magnitude of intermediate tuples. `estimator` nullptr falls back to
/// the static sqrt(n) value.
size_t ChooseFourCycleThreshold(const Database& db,
                                const ConjunctiveQuery& query,
                                const CardinalityEstimator* estimator);

/// Ranked enumeration of 4-cycles by merging per-case any-k streams.
/// The cases partition the result space, so no deduplication is needed.
/// The case bags carry per-tuple member weights, so any cost dioid
/// ranks exactly: UnionAnyK merges the case streams on RankedCostLess
/// (the primary cost, then the full component vector), so LEX ties on
/// the primary component resolve across cases as within each case.
/// `threshold`: as in BuildFourCyclePlans.
std::unique_ptr<RankedIterator> MakeFourCycleAnyK(
    const Database& db, const ConjunctiveQuery& query,
    AnyKAlgorithm algorithm, JoinStats* stats,
    CostModelKind model = CostModelKind::kSum, size_t threshold = 0);

/// The shareable half of MakeFourCycleAnyK: one preprocessing artifact
/// per non-empty case (bag materialization + T-DP), wrapped in a union
/// artifact whose NewStream() merges fresh per-case streams. Cached by
/// the serving layer so concurrent cursors share one bag-materialization
/// pass. nullptr for an unknown algorithm.
std::shared_ptr<const PreprocessingArtifact> MakeFourCycleArtifact(
    const Database& db, const ConjunctiveQuery& query,
    AnyKAlgorithm algorithm, JoinStats* stats,
    CostModelKind model = CostModelKind::kSum, size_t threshold = 0);

/// Boolean 4-cycle query via the case plans: O~(n^{1.5}) (the claim the
/// introduction of the paper highlights against the O~(n^2) of WCO
/// full enumeration).
bool FourCycleBoolean(const Database& db, const ConjunctiveQuery& query,
                      JoinStats* stats);

/// Number of 4-cycles, summed over the case plans' counting DPs.
int64_t CountFourCycles(const Database& db, const ConjunctiveQuery& query,
                        JoinStats* stats);

/// Baseline: the fhw = 2 single-tree decomposition (bags R|><|S and
/// T|><|W with no heavy/light filter).
DecomposedQuery FourCycleFhw2(const Database& db,
                              const ConjunctiveQuery& query,
                              JoinStats* stats);

}  // namespace topkjoin

#endif  // TOPKJOIN_CYCLES_FOURCYCLE_H_
