// Sampling-based cardinality estimation for the planner.
//
// The AGM bound is worst-case tight but instance-oblivious: on skewed
// data it can overestimate join sizes by orders of magnitude, which
// makes every downstream planner heuristic (any-k vs batch, bag
// grouping) systematically wrong. This estimator answers the same
// questions from the instance itself:
//
//   * per-relation uniform samples (relation_sample.h) joined against
//     each other, with Horvitz-Thompson scaling, estimate the size of
//     any sub-join of the query -- output, bag, or join edge;
//   * correlated join-key sketches (composite-key frequency maps over
//     the samples) answer per-edge selectivity queries
//     (EstimateEdgeSelectivity) -- exported for explanation and
//     scaling the probe hit rate in the 4-cycle heavy/light threshold
//     choice (ChooseFourCycleThreshold);
//   * an independence-assumption estimate from distinct-value counts,
//     capped at the sampling resolution, backstops empty sampled joins
//     (an empty sampled join means the sketches over the same samples
//     are empty too, so independence is the only signal left).
//
// All estimates are in RAM-model units compatible with JoinStats --
// tuples materialized or emitted -- so the planner can compare them
// directly against measured preprocessing costs. Estimates are
// deterministic for fixed database contents (the sample seed is a
// constant); the planner relies on that for reproducible plans.
//
// The estimator borrows the Database (no copies): build one per
// database version and reuse it across queries; it must not outlive
// the database or survive relation mutation.
#ifndef TOPKJOIN_STATS_CARDINALITY_ESTIMATOR_H_
#define TOPKJOIN_STATS_CARDINALITY_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "src/data/database.h"
#include "src/query/cq.h"
#include "src/query/decomposition.h"
#include "src/stats/relation_sample.h"

namespace topkjoin {

/// RAM-model cost estimate for a decomposition, in JoinStats units.
struct DecompositionEstimate {
  /// Estimated tuples across all materialized bags (JoinStats would
  /// record each bag via RecordIntermediate).
  double intermediate_tuples = 0.0;
  /// Estimated size of the largest single bag.
  double max_bag_tuples = 0.0;
  /// Per-group estimated bag sizes, aligned with grouping.groups.
  std::vector<double> bag_tuples;
};

class CardinalityEstimator {
 public:
  /// Samples every relation of `db` once (O(total tuples) scan, then
  /// at most 256 sampled tuples per relation).
  explicit CardinalityEstimator(const Database& db);

  /// Incremental maintenance for live updates: retargets this estimator
  /// at `db`, which must hold the same relation catalog with rows only
  /// *appended* since this estimator sampled it (Database::DeltasSince
  /// coverage is the caller's check -- see data/versioned_cache.h).
  /// Every reservoir sample continues over its relation's appended
  /// suffix, so the cost is O(appended rows), not O(total tuples).
  void RetargetAndExtend(const Database& db);

  const Database& db() const { return *db_; }
  const RelationSample& sample(RelationId id) const { return samples_[id]; }

  /// Estimated number of tuples in the natural join of the given atoms
  /// of `query` (a bag, a join edge, or with all atom indices the full
  /// output). Joins the relation samples along shared variables and
  /// scales; falls back to the sketch/independence estimate when the
  /// sampled sub-join is empty (sparse joins under-sample). Exact for
  /// a single atom. Never negative; 0 only when some relation is empty.
  double EstimateJoinSize(const ConjunctiveQuery& query,
                          const std::vector<size_t>& atoms) const;

  /// Estimated output size of the full query.
  double EstimateOutput(const ConjunctiveQuery& query) const;

  /// Probability that independently drawn tuples of atoms i and j agree
  /// on their shared variables, from the correlated join-key sketches
  /// (sum over keys of the frequency product). 1.0 when the atoms share
  /// no variable. |R_i join R_j| ~= sel * |R_i| * |R_j|.
  double EstimateEdgeSelectivity(const ConjunctiveQuery& query, size_t i,
                                 size_t j) const;

  /// Estimated RAM-model materialization cost of a bag grouping: one
  /// EstimateJoinSize per group (singleton bags count their relation
  /// size, exactly as MaterializeGrouping records them).
  DecompositionEstimate EstimateDecomposition(
      const ConjunctiveQuery& query, const AtomGrouping& grouping) const;

 private:
  /// Independence-assumption estimate: cross product of the atom sizes
  /// discounted by 1/distinct per repeated variable occurrence.
  double IndependenceEstimate(const ConjunctiveQuery& query,
                              const std::vector<size_t>& atoms) const;

  const Database* db_;
  std::vector<RelationSample> samples_;  // aligned with db relation ids
};

}  // namespace topkjoin

#endif  // TOPKJOIN_STATS_CARDINALITY_ESTIMATOR_H_
