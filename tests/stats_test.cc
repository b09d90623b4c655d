// Tests for src/stats/ and the planner behaviors it unlocks: reservoir
// samples and join-key sketches, the sampling cardinality estimator's
// accuracy envelope on uniform and Zipf-skewed instances (where the AGM
// bound is off by orders of magnitude), AGM-failure handling in the
// planner (an LP failure must read as "unknown", never "tiny"), the
// AGM upper-bound clamp, and the cost-aware bag grouping that routes
// skewed cyclic queries to demonstrably cheaper plans.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/delta.h"
#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/join/nested_loop.h"
#include "src/query/agm.h"
#include "src/query/decomposition.h"
#include "src/stats/cardinality_estimator.h"
#include "src/stats/estimator_cache.h"
#include "src/util/rng.h"
#include "tests/test_instances.h"

namespace topkjoin {
namespace {

using testing_fixtures::Drain;
using testing_fixtures::Instance;
using testing_fixtures::MakePathInstance;
using testing_fixtures::MakeStarInstance;
using testing_fixtures::MakeTriangleInstance;

double TrueOutput(const Database& db, const ConjunctiveQuery& query) {
  return static_cast<double>(NestedLoopJoin(db, query).NumTuples());
}

// Symmetric error factor: 1.0 is exact, 10.0 is "one order of magnitude
// off in either direction". Defined for positive values only.
double ErrorFactor(double estimate, double truth) {
  EXPECT_GT(estimate, 0.0);
  EXPECT_GT(truth, 0.0);
  return std::max(estimate / truth, truth / estimate);
}

// ------------------------------------------------------ relation sample

TEST(RelationSampleTest, ReservoirIsDeterministicSizedAndScaled) {
  Rng rng(1);
  const Relation r = UniformRelation("R", 2, 1000, 50, rng);
  const RelationSample a(r, 100, 7);
  const RelationSample b(r, 100, 7);
  EXPECT_EQ(a.sampled_rows(), b.sampled_rows());  // deterministic
  EXPECT_EQ(a.sampled_rows().size(), 100u);
  EXPECT_NEAR(a.scale(), 10.0, 1e-9);
  // Sampled rows are valid and strictly ascending (no duplicates).
  for (size_t i = 1; i < a.sampled_rows().size(); ++i) {
    EXPECT_LT(a.sampled_rows()[i - 1], a.sampled_rows()[i]);
    EXPECT_LT(a.sampled_rows()[i], r.NumTuples());
  }
  // A different seed draws a different sample (overwhelmingly likely).
  const RelationSample c(r, 100, 8);
  EXPECT_NE(a.sampled_rows(), c.sampled_rows());

  const RelationSample full(r, 5000, 7);
  EXPECT_EQ(full.sampled_rows().size(), 1000u);
  EXPECT_NEAR(full.scale(), 1.0, 1e-12);
}

TEST(RelationSampleTest, DistinctEstimateExactWhenFullySampled) {
  Relation r = Relation::WithArity("R", 2);
  for (Value v = 0; v < 30; ++v) r.AddTuple({v % 5, v}, 0.0);
  const RelationSample full(r, 100, 3);
  EXPECT_NEAR(full.EstimateDistinct(0), 5.0, 1e-9);
  EXPECT_NEAR(full.EstimateDistinct(1), 30.0, 1e-9);
}

TEST(RelationSampleTest, KeySketchKeepsCrossColumnCorrelation) {
  // Columns are perfectly correlated: (v, v) pairs only. A composite
  // sketch sees 10 distinct keys; independent per-column histograms
  // would suggest 100 combinations.
  Relation r = Relation::WithArity("R", 2);
  for (Value v = 0; v < 10; ++v) {
    r.AddTuple({v, v}, 0.0);
    r.AddTuple({v, v}, 0.0);
  }
  const RelationSample full(r, 100, 3);
  const JoinKeySketch sketch = full.KeySketch({0, 1});
  EXPECT_EQ(sketch.counts.size(), 10u);
  EXPECT_NEAR(sketch.EstimateFrequency(ValueKey{{3, 3}}), 2.0, 1e-9);
  EXPECT_NEAR(sketch.EstimateFrequency(ValueKey{{3, 4}}), 0.0, 1e-9);
}

// ------------------------------------------------- estimator: accuracy

TEST(CardinalityEstimatorTest, ExactOnFullySampledInstances) {
  // Sample size >= relation size means the sample join IS the real
  // join: estimates must be exact, for acyclic and cyclic queries, and
  // exactly zero when the output is empty.
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Instance path = MakePathInstance(3, 40, 4, seed);
    Instance star = MakeStarInstance(35, 4, seed);
    Instance tri = MakeTriangleInstance(30, 5, seed);
    for (const Instance* t : {&path, &star, &tri}) {
      const CardinalityEstimator est(t->db);
      EXPECT_NEAR(est.EstimateOutput(t->query), TrueOutput(t->db, t->query),
                  1e-6)
          << "seed=" << seed;
    }
  }
}

TEST(CardinalityEstimatorTest, WithinEnvelopeOnSubsampledUniform) {
  Instance t = MakePathInstance(2, 3000, 40, 11);
  const CardinalityEstimator est(t.db);
  const double truth = TrueOutput(t.db, t.query);
  ASSERT_GT(truth, 0.0);
  EXPECT_LE(ErrorFactor(est.EstimateOutput(t.query), truth), 10.0);
}

// The acceptance workload: Zipf-skewed join columns make the AGM bound
// (which only sees relation sizes) off by >= 100x, while the sampling
// estimator stays within 10x of the true cardinality.
TEST(CardinalityEstimatorTest, ZipfSkewWhereAgmIsOffByOrdersOfMagnitude) {
  Rng rng(42);
  Database db;
  const RelationId r =
      db.Add(SkewedBinaryRelation("R", 3000, 1000, 1.1, rng));
  const RelationId s =
      db.Add(SkewedBinaryRelation("S", 3000, 1000, 1.1, rng));
  ConjunctiveQuery q;  // R(x0,x1), S(x1,x2): x1 = uniform col of R,
  q.AddAtom(r, {0, 1});  // Zipf col of S
  q.AddAtom(s, {1, 2});

  const double truth = TrueOutput(db, q);
  ASSERT_GT(truth, 0.0);
  const auto agm = AgmBound(q, db);
  ASSERT_TRUE(agm.ok());
  EXPECT_GE(agm.value() / truth, 100.0)
      << "workload no longer exercises the loose-AGM regime";

  const CardinalityEstimator est(db);
  EXPECT_LE(ErrorFactor(est.EstimateOutput(q), truth), 10.0)
      << "estimate=" << est.EstimateOutput(q) << " truth=" << truth
      << " agm=" << agm.value();
}

TEST(CardinalityEstimatorTest, EdgeSelectivityRecoversPairJoinSize) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Instance t = MakeTriangleInstance(60, 6, seed);
    const CardinalityEstimator est(t.db);  // fully sampled
    for (const auto& [i, j] : {std::pair<size_t, size_t>{0, 1},
                              std::pair<size_t, size_t>{1, 2},
                              std::pair<size_t, size_t>{0, 2}}) {
      ConjunctiveQuery pair;
      pair.AddAtom(t.query.atom(i).relation, t.query.atom(i).vars);
      pair.AddAtom(t.query.atom(j).relation, t.query.atom(j).vars);
      const double sel = est.EstimateEdgeSelectivity(t.query, i, j);
      const double ni = static_cast<double>(
          t.db.relation(t.query.atom(i).relation).NumTuples());
      const double nj = static_cast<double>(
          t.db.relation(t.query.atom(j).relation).NumTuples());
      EXPECT_NEAR(sel * ni * nj, TrueOutput(t.db, pair), 1e-6)
          << "seed=" << seed << " edge " << i << "-" << j;
    }
  }
}

TEST(CardinalityEstimatorTest, EmptyRelationGivesZero) {
  Database db;
  const RelationId r = db.Add(Relation::WithArity("R", 2));
  Rng rng(3);
  const RelationId s = db.Add(UniformBinaryRelation("S", 20, 4, rng));
  ConjunctiveQuery q;
  q.AddAtom(r, {0, 1});
  q.AddAtom(s, {1, 2});
  const CardinalityEstimator est(db);
  EXPECT_EQ(est.EstimateOutput(q), 0.0);
}

// ---------------------------------------------- planner: AGM handling

TEST(PlannerEstimateTest, AgmFailureBecomesUnknownNotTiny) {
  // An AgmBound error must not become agm_bound = 0: the output clamp
  // would turn that into estimated_output = 0 ("tiny output"), which
  // admission control would under-price.
  QueryPlan plan;
  const double bound =
      ResolveAgmBound(StatusOr<double>(Status::Error("lp failed")), &plan);
  EXPECT_TRUE(std::isinf(bound));
  EXPECT_GT(bound, 0.0);
  EXPECT_NE(plan.rationale.find("AGM bound unavailable"), std::string::npos);

  // A successful bound passes through untouched, with no note.
  QueryPlan ok_plan;
  EXPECT_NEAR(ResolveAgmBound(StatusOr<double>(123.0), &ok_plan), 123.0,
              1e-12);
  EXPECT_TRUE(ok_plan.rationale.empty());
}

TEST(PlannerEstimateTest, EstimatedOutputClampedByAgmAndTighterOnSkew) {
  // The AGM-hard triangle: output Theta(n) but AGM n^1.5. The sampled
  // estimate must respect the clamp and sit far below the worst case.
  // Sized within the default sample (the hub-value correlation of this
  // instance is exactly what per-relation *sub*sampling struggles with;
  // subsampled accuracy is covered by the Zipf envelope test above).
  Rng rng(5);
  Database db;
  ConjunctiveQuery q;
  const RelationId r = db.Add(AgmHardRelation("R", 250, rng));
  const RelationId s = db.Add(AgmHardRelation("S", 250, rng));
  const RelationId w = db.Add(AgmHardRelation("T", 250, rng));
  q.AddAtom(r, {0, 1});
  q.AddAtom(s, {1, 2});
  q.AddAtom(w, {2, 0});

  Engine engine;
  const auto plan = engine.Explain(db, q, {}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_LE(plan.value().estimated_output, plan.value().agm_bound * (1 + 1e-9));
  EXPECT_NE(plan.value().rationale.find("sampling estimator"),
            std::string::npos);
  const double truth = TrueOutput(db, q);
  ASSERT_GT(truth, 0.0);
  EXPECT_GE(plan.value().agm_bound / truth, 10.0);
  EXPECT_LE(ErrorFactor(plan.value().estimated_output, truth), 10.0);
}

TEST(PlannerEstimateTest, IntermediateEstimateFollowsStrategy) {
  Instance t = MakePathInstance(3, 60, 5, 7);
  Engine engine;
  // Streaming any-k materializes nothing up front.
  const auto anyk = engine.Explain(t.db, t.query, {}, {});
  ASSERT_TRUE(anyk.ok());
  EXPECT_EQ(anyk.value().estimated_intermediate, 0.0);
  // Batch -- a forced baseline -- pays for the whole output before
  // sorting.
  ExecutionOptions opts;
  opts.force_algorithm = AnyKAlgorithm::kBatch;
  const auto batch = engine.Explain(t.db, t.query, {}, opts);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch.value().strategy, PlanStrategy::kBatchSort);
  EXPECT_NEAR(batch.value().estimated_intermediate,
              batch.value().estimated_output, 1e-9);
  // Decomposed cyclic plans estimate their bag sizes.
  Instance tri = MakeTriangleInstance(30, 5, 3);
  const auto decomposed = engine.Explain(tri.db, tri.query, {}, {});
  ASSERT_TRUE(decomposed.ok());
  EXPECT_EQ(decomposed.value().strategy, PlanStrategy::kDecompose);
  EXPECT_GT(decomposed.value().estimated_intermediate, 0.0);
}

// ------------------------------------- planner: cost-aware bag grouping

// Skewed triangle where the blind shared-variable greedy picks the
// worst possible bag: R joins S on a single super-heavy key (|R join S|
// = n^2) while either join involving T has only n matches. The
// estimator must route the grouping away from the n^2 bag -- the
// "demonstrably cheaper plan" acceptance pin.
Instance MakeSkewedTriangle(Value n) {
  Instance t;
  Relation r("R", {"a", "b"});
  Relation s("S", {"b", "c"});
  Relation w("T", {"c", "a"});
  Rng rng(17);
  for (Value i = 0; i < n; ++i) {
    r.AddTuple({i, 0}, rng.NextDouble());  // every R tuple has b = 0
    s.AddTuple({0, i}, rng.NextDouble());  // every S tuple has b = 0
    w.AddTuple({i, i}, rng.NextDouble());  // T is the diagonal
  }
  const RelationId rid = t.db.Add(std::move(r));
  const RelationId sid = t.db.Add(std::move(s));
  const RelationId wid = t.db.Add(std::move(w));
  t.query.AddAtom(rid, {0, 1});
  t.query.AddAtom(sid, {1, 2});
  t.query.AddAtom(wid, {2, 0});
  return t;
}

TEST(PlannerEstimateTest, SkewRoutesGroupingAwayFromQuadraticBag) {
  Instance t = MakeSkewedTriangle(200);

  // The blind greedy merges atoms 0 and 1 (lowest-index tie-break): a
  // 200^2-tuple bag.
  const auto blind = FindAcyclicGrouping(t.query);
  ASSERT_TRUE(blind.has_value());
  ASSERT_EQ(blind->groups.size(), 2u);
  EXPECT_EQ(blind->groups[0], (std::vector<size_t>{0, 1}));

  // The estimator-driven planner must pick a different grouping whose
  // bags avoid the quadratic join.
  Engine engine;
  auto result = engine.Execute(t.db, t.query, {}, {});
  ASSERT_TRUE(result.ok());
  const QueryPlan& plan = result.value().plan;
  ASSERT_EQ(plan.strategy, PlanStrategy::kDecompose);
  ASSERT_TRUE(plan.grouping.has_value());
  EXPECT_NE(plan.grouping->groups, blind->groups);
  EXPECT_LE(plan.estimated_intermediate, 2000.0);

  // The cheaper plan is real, not just estimated: materializing the
  // blind grouping costs >= 40000 intermediate tuples, the chosen one
  // a few hundred.
  JoinStats blind_stats;
  MaterializeGrouping(t.db, t.query, *blind, &blind_stats);
  EXPECT_GE(blind_stats.intermediate_tuples, 40000);
  EXPECT_LE(result.value().preprocessing.intermediate_tuples, 1000);
  EXPECT_GT(blind_stats.intermediate_tuples,
            10 * result.value().preprocessing.intermediate_tuples);

  // And the stream is still exactly right: the 200 triangles, ranked.
  const auto got = Drain(result.value().stream.get());
  const Relation oracle = NestedLoopJoin(t.db, t.query);
  ASSERT_EQ(got.size(), oracle.NumTuples());
  std::vector<double> want;
  for (RowId i = 0; i < oracle.NumTuples(); ++i) {
    want.push_back(oracle.TupleWeight(i));
  }
  std::sort(want.begin(), want.end());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].cost, want[i], 1e-9) << "rank " << i;
  }
}

// The cost-aware grouping is available directly with a caller-supplied
// cost function (the planner's estimator is one such).
TEST(CostAwareGroupingTest, HonorsTheCostFunction) {
  Instance t = MakeSkewedTriangle(50);
  const CardinalityEstimator est(t.db);
  const auto grouping =
      FindAcyclicGrouping(t.query, [&](const std::vector<size_t>& atoms) {
        return est.EstimateJoinSize(t.query, atoms);
      });
  ASSERT_TRUE(grouping.has_value());
  EXPECT_TRUE(IsAcyclicGrouping(t.query, *grouping));
  // Merging R with T (or S with T) costs ~50; merging R with S costs
  // 2500. The greedy must avoid the quadratic merge.
  for (const auto& group : grouping->groups) {
    EXPECT_NE(group, (std::vector<size_t>{0, 1}));
  }
}

// ----------------------------------------- live-update sample patching

TEST(RelationSampleTest, ExtendToMatchesFreshDrawWhileFullySampled) {
  Rng rng(11);
  Relation r = UniformBinaryRelation("R", 60, 20, rng);
  RelationSample s(r, 200, 7);
  // Grow the relation but stay within the reservoir capacity: the
  // continued reservoir must equal a fresh draw bit-for-bit (both are
  // just "all rows").
  Relation grown = r;
  for (int i = 0; i < 40; ++i) grown.AddTuple({i, i + 1}, 0.5);
  s.ExtendTo(grown);
  const RelationSample fresh(grown, 200, 7);
  EXPECT_EQ(s.sampled_rows(), fresh.sampled_rows());
  EXPECT_EQ(s.num_seen(), 100u);
  EXPECT_NEAR(s.scale(), 1.0, 1e-12);
}

TEST(RelationSampleTest, ExtendToStaysValidUniformReservoirBeyondCapacity) {
  Rng rng(12);
  Relation r = UniformBinaryRelation("R", 1000, 50, rng);
  RelationSample a(r, 100, 7);
  RelationSample b(r, 100, 7);
  Relation grown = r;
  for (int i = 0; i < 1000; ++i) grown.AddTuple({i % 50, i % 49}, 0.5);
  a.ExtendTo(grown);
  b.ExtendTo(grown);
  // Deterministic continuation, valid reservoir invariants.
  EXPECT_EQ(a.sampled_rows(), b.sampled_rows());
  ASSERT_EQ(a.sampled_rows().size(), 100u);
  EXPECT_EQ(a.num_seen(), 2000u);
  EXPECT_NEAR(a.scale(), 20.0, 1e-9);
  bool saw_appended = false;
  for (size_t i = 0; i < a.sampled_rows().size(); ++i) {
    if (i > 0) {
      EXPECT_LT(a.sampled_rows()[i - 1], a.sampled_rows()[i]);
    }
    EXPECT_LT(a.sampled_rows()[i], grown.NumTuples());
    saw_appended |= a.sampled_rows()[i] >= 1000;
  }
  // Appended rows displace old ones with the right probability; with
  // 1000 appended rows vying for 100 slots, at least one landing is a
  // (1 - ~2^-100) certainty.
  EXPECT_TRUE(saw_appended);
}

TEST(EstimatorCacheTest, KeyedLruServesTwoDatabasesWithoutThrash) {
  Instance a = MakePathInstance(2, 200, 30, 21);
  Instance b = MakePathInstance(2, 200, 30, 22);
  EstimatorCache cache(4);
  cache.For(a.db);
  cache.For(b.db);
  // The old single-entry cache rebuilt on every alternation; the keyed
  // LRU must hold both.
  cache.For(a.db);
  cache.For(b.db);
  cache.For(a.db);
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_EQ(cache.stats().patches, 0u);
}

TEST(EstimatorCacheTest, AppendDeltaPatchesInsteadOfRebuilding) {
  Database db;
  Rng rng(23);
  const RelationId e = db.Add(UniformBinaryRelation("E", 300, 40, rng));
  ConjunctiveQuery q;
  q.AddAtom(e, {0, 1});

  EstimatorCache cache;
  const auto before = cache.For(db);
  EXPECT_EQ(cache.stats().builds, 1u);
  EXPECT_DOUBLE_EQ(before->EstimateOutput(q), 300.0);

  Delta d;
  for (int i = 0; i < 10; ++i) d.ForRelation(e).AddTuple({i, i}, 0.5);
  ASSERT_TRUE(db.ApplyDelta(d).ok());

  // Covered gap: the stale estimator is copied + extended, not rebuilt,
  // and the patched copy sees the appended rows.
  const auto after = cache.For(db);
  EXPECT_EQ(cache.stats().builds, 1u);
  EXPECT_EQ(cache.stats().patches, 1u);
  EXPECT_DOUBLE_EQ(after->EstimateOutput(q), 310.0);
  // The pre-delta estimator still serves its pinned snapshot.
  EXPECT_DOUBLE_EQ(before->EstimateOutput(q), 300.0);

  // A barrier mutation clears the log: next For() is a full rebuild.
  db.mutable_relation(e)->DeduplicateKeepLightest();
  cache.For(db);
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_EQ(cache.stats().patches, 1u);
}

// The epoch-regression race: a request pins its snapshot, a delta
// commits, and a concurrent request caches the estimator at the NEWER
// epoch before the first request reaches the cache. The old code
// "patched" the newer entry backwards -- RetargetAndExtend over a
// smaller relation trips the fatal reservoir check and aborts the
// process -- and rewrote the entry's epoch down.
TEST(EstimatorCacheTest, OlderSnapshotNeverRegressesNewerEntry) {
  Database db;
  Rng rng(29);
  const RelationId e = db.Add(UniformBinaryRelation("E", 300, 40, rng));
  ConjunctiveQuery q;
  q.AddAtom(e, {0, 1});

  const auto pinned = db.Snapshot();  // the slow request's snapshot
  Delta d;
  for (int i = 0; i < 10; ++i) d.ForRelation(e).AddTuple({i, i}, 0.5);
  ASSERT_TRUE(db.ApplyDelta(d).ok());

  EstimatorCache cache;
  const auto fresh = cache.For(db);  // the racing request wins the slot
  EXPECT_EQ(cache.stats().builds, 1u);
  EXPECT_DOUBLE_EQ(fresh->EstimateOutput(q), 310.0);

  // The pinned-snapshot request gets a one-off estimator over its own
  // epoch's data -- no abort, no patch, newer entry untouched.
  const auto old_est = cache.For(db, pinned);
  EXPECT_DOUBLE_EQ(old_est->EstimateOutput(q), 300.0);
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_EQ(cache.stats().patches, 0u);

  // The cached entry still serves the live epoch as a plain hit.
  const auto live = cache.For(db);
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_DOUBLE_EQ(live->EstimateOutput(q), 310.0);
}

// An entry older than the pinned snapshot still patches -- but only up
// to the snapshot: deltas committed past it (the live database moved
// on) must not leak into the patched estimator.
TEST(EstimatorCacheTest, PatchStopsAtThePinnedIntermediateEpoch) {
  Database db;
  Rng rng(31);
  const RelationId e = db.Add(UniformBinaryRelation("E", 300, 40, rng));
  ConjunctiveQuery q;
  q.AddAtom(e, {0, 1});

  EstimatorCache cache;
  cache.For(db);  // entry at the base epoch
  EXPECT_EQ(cache.stats().builds, 1u);

  Delta d1;
  for (int i = 0; i < 10; ++i) d1.ForRelation(e).AddTuple({i, i}, 0.5);
  ASSERT_TRUE(db.ApplyDelta(d1).ok());
  const auto pinned = db.Snapshot();  // intermediate epoch: 310 rows
  Delta d2;
  for (int i = 0; i < 10; ++i) d2.ForRelation(e).AddTuple({i, i + 1}, 0.5);
  ASSERT_TRUE(db.ApplyDelta(d2).ok());  // live epoch: 320 rows

  const auto est = cache.For(db, pinned);
  EXPECT_EQ(cache.stats().builds, 1u);
  EXPECT_EQ(cache.stats().patches, 1u);
  EXPECT_DOUBLE_EQ(est->EstimateOutput(q), 310.0);
}

}  // namespace
}  // namespace topkjoin
