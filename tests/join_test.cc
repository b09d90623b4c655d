// Tests for join/: hash joins, binary plans, semijoin reduction,
// Yannakakis, Generic-Join, Leapfrog Triejoin -- including differential
// property tests where all algorithms must agree with the nested-loop
// oracle on randomized instances.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/generators.h"
#include "src/join/binary_plan.h"
#include "src/join/generic_join.h"
#include "src/join/hash_join.h"
#include "src/join/leapfrog.h"
#include "src/join/nested_loop.h"
#include "src/join/result.h"
#include "src/join/semijoin.h"
#include "src/join/yannakakis.h"
#include "src/query/hypergraph.h"
#include "src/util/rng.h"

namespace topkjoin {
namespace {

struct TestInstance {
  Database db;
  ConjunctiveQuery query;
};

// Path query of `len` atoms over independent uniform relations.
TestInstance MakePathInstance(size_t len, size_t tuples, Value domain,
                              uint64_t seed) {
  TestInstance t;
  Rng rng(seed);
  for (size_t i = 0; i < len; ++i) {
    const RelationId id = t.db.Add(
        UniformBinaryRelation("R" + std::to_string(i), tuples, domain, rng));
    t.query.AddAtom(id, {static_cast<VarId>(i), static_cast<VarId>(i + 1)});
  }
  return t;
}

// Triangle self-join over one uniform edge relation.
TestInstance MakeTriangleInstance(size_t tuples, Value domain, uint64_t seed) {
  TestInstance t;
  Rng rng(seed);
  const RelationId e = t.db.Add(UniformBinaryRelation("E", tuples, domain, rng));
  t.query.AddAtom(e, {0, 1});
  t.query.AddAtom(e, {1, 2});
  t.query.AddAtom(e, {2, 0});
  return t;
}

// Star query: center variable 0 with three satellites.
TestInstance MakeStarInstance(size_t tuples, Value domain, uint64_t seed) {
  TestInstance t;
  Rng rng(seed);
  for (int i = 0; i < 3; ++i) {
    const RelationId id = t.db.Add(
        UniformBinaryRelation("S" + std::to_string(i), tuples, domain, rng));
    t.query.AddAtom(id, {0, i + 1});
  }
  return t;
}

TEST(HashJoinTest, SimpleTwoWay) {
  Database db;
  Relation r = Relation::WithArity("R", 2);
  r.AddTuple({1, 2}, 0.5);
  r.AddTuple({1, 3}, 0.25);
  Relation s = Relation::WithArity("S", 2);
  s.AddTuple({2, 9}, 1.0);
  s.AddTuple({3, 9}, 2.0);
  s.AddTuple({4, 9}, 3.0);
  const RelationId rid = db.Add(std::move(r)), sid = db.Add(std::move(s));
  ConjunctiveQuery q;
  q.AddAtom(rid, {0, 1});
  q.AddAtom(sid, {1, 2});
  JoinStats stats;
  const Relation out = LeftDeepJoin(db, q, {0, 1}, &stats);
  EXPECT_EQ(out.NumTuples(), 2u);
  const Relation oracle = NestedLoopJoin(db, q);
  EXPECT_TRUE(ResultsEqual(out, oracle, 1e-9));
}

TEST(HashJoinTest, WeightsAreSummed) {
  Database db;
  Relation r = Relation::WithArity("R", 2);
  r.AddTuple({1, 2}, 0.5);
  Relation s = Relation::WithArity("S", 2);
  s.AddTuple({2, 3}, 1.25);
  const RelationId rid = db.Add(std::move(r)), sid = db.Add(std::move(s));
  ConjunctiveQuery q;
  q.AddAtom(rid, {0, 1});
  q.AddAtom(sid, {1, 2});
  const Relation out = LeftDeepJoin(db, q, {0, 1}, nullptr);
  ASSERT_EQ(out.NumTuples(), 1u);
  EXPECT_DOUBLE_EQ(out.TupleWeight(0), 1.75);
}

TEST(HashJoinTest, BagSemanticsDuplicates) {
  Database db;
  Relation r = Relation::WithArity("R", 2);
  r.AddTuple({1, 2}, 0.1);
  r.AddTuple({1, 2}, 0.2);  // duplicate values, distinct weight
  Relation s = Relation::WithArity("S", 2);
  s.AddTuple({2, 3}, 0.0);
  const RelationId rid = db.Add(std::move(r)), sid = db.Add(std::move(s));
  ConjunctiveQuery q;
  q.AddAtom(rid, {0, 1});
  q.AddAtom(sid, {1, 2});
  const Relation out = LeftDeepJoin(db, q, {0, 1}, nullptr);
  EXPECT_EQ(out.NumTuples(), 2u);
}

TEST(HashJoinTest, CartesianWhenNoSharedVars) {
  Database db;
  Relation r = Relation::WithArity("R", 1);
  r.AddTuple({1}, 0.0);
  r.AddTuple({2}, 0.0);
  Relation s = Relation::WithArity("S", 1);
  s.AddTuple({7}, 0.0);
  const RelationId rid = db.Add(std::move(r)), sid = db.Add(std::move(s));
  ConjunctiveQuery q;
  q.AddAtom(rid, {0});
  q.AddAtom(sid, {1});
  const Relation out = LeftDeepJoin(db, q, {0, 1}, nullptr);
  EXPECT_EQ(out.NumTuples(), 2u);
}

TEST(BinaryPlanTest, OrderSurveyCoversAllPermutations) {
  TestInstance t = MakeTriangleInstance(20, 5, 3);
  const auto costs = OrderSurvey(t.db, t.query);
  EXPECT_EQ(costs.size(), 6u);  // 3! orders
}

TEST(BinaryPlanTest, AgmHardInstanceBlowsUpAllOrders) {
  // The Section 3 instance: every binary order materializes ~ (n/2)^2
  // intermediate tuples while the output is Theta(n).
  Rng rng(11);
  Database db;
  const size_t n = 40;
  const RelationId r = db.Add(AgmHardRelation("R", n, rng));
  const RelationId s = db.Add(AgmHardRelation("S", n, rng));
  const RelationId t = db.Add(AgmHardRelation("T", n, rng));
  ConjunctiveQuery q;
  q.AddAtom(r, {0, 1});
  q.AddAtom(s, {1, 2});
  q.AddAtom(t, {2, 0});
  for (const PlanCost& pc : OrderSurvey(db, q)) {
    EXPECT_GE(pc.max_intermediate,
              static_cast<int64_t>((n / 2) * (n / 2)));
  }
}

TEST(SemijoinTest, ReducesToMatchingTuples) {
  Relation target = Relation::WithArity("T", 2);
  target.AddTuple({1, 10}, 0.0);
  target.AddTuple({2, 20}, 0.0);
  target.AddTuple({3, 30}, 0.0);
  Relation filter = Relation::WithArity("F", 1);
  filter.AddTuple({2}, 0.0);
  filter.AddTuple({3}, 0.0);
  SemijoinReduce(&target, {0}, filter, {0}, nullptr);
  EXPECT_EQ(target.NumTuples(), 2u);
  EXPECT_EQ(target.At(0, 0), 2);
}

TEST(SemijoinTest, EmptyFilterEmptiesTarget) {
  Relation target = Relation::WithArity("T", 1);
  target.AddTuple({1}, 0.0);
  Relation filter = Relation::WithArity("F", 1);
  SemijoinReduce(&target, {0}, filter, {0}, nullptr);
  EXPECT_TRUE(target.Empty());
}

TEST(FullReducerTest, GlobalConsistency) {
  // After the full reducer, every remaining tuple must participate in at
  // least one join result (the paper's global-consistency property).
  for (uint64_t seed = 0; seed < 6; ++seed) {
    TestInstance t = MakePathInstance(3, 30, 5, seed);
    const auto tree = GyoJoinTree(t.query);
    ASSERT_TRUE(tree.has_value());
    ReducedInstance instance = MakeInstance(t.db, t.query);
    FullReducer(t.query, *tree, &instance, nullptr);

    const Relation output = NestedLoopJoin(t.db, t.query);
    // Project output onto each atom's variables; every reduced tuple's
    // values must appear.
    for (size_t a = 0; a < t.query.NumAtoms(); ++a) {
      const auto& vars = t.query.atom(a).vars;
      const Relation& reduced = instance.atom_relations[a];
      for (RowId r = 0; r < reduced.NumTuples(); ++r) {
        bool found = false;
        for (RowId o = 0; o < output.NumTuples() && !found; ++o) {
          bool match = true;
          for (size_t c = 0; c < vars.size(); ++c) {
            if (output.At(o, static_cast<size_t>(vars[c])) !=
                reduced.At(r, c)) {
              match = false;
              break;
            }
          }
          found = match;
        }
        EXPECT_TRUE(found) << "dangling tuple survived, seed=" << seed
                           << " atom=" << a << " row=" << r;
      }
    }
  }
}

TEST(YannakakisTest, MatchesOracleOnPaths) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    TestInstance t = MakePathInstance(3, 25, 4, seed);
    JoinStats stats;
    const Relation out = YannakakisJoin(t.db, t.query, &stats);
    const Relation oracle = NestedLoopJoin(t.db, t.query);
    EXPECT_TRUE(ResultsEqual(out, oracle, 1e-9)) << "seed=" << seed;
  }
}

TEST(YannakakisTest, MatchesOracleOnStars) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    TestInstance t = MakeStarInstance(20, 4, seed);
    const Relation out = YannakakisJoin(t.db, t.query, nullptr);
    const Relation oracle = NestedLoopJoin(t.db, t.query);
    EXPECT_TRUE(ResultsEqual(out, oracle, 1e-9)) << "seed=" << seed;
  }
}

TEST(YannakakisTest, NoDanglingIntermediates) {
  // On the dangling-chain instance, Yannakakis's intermediates stay
  // output-proportional while a fixed binary plan pays ~n^2.
  Rng rng(3);
  Relation r1 = Relation::WithArity("x", 0), r2 = r1, r3 = r1;
  const size_t n = 60;
  DanglingChainInstance(n, 0.1, rng, &r1, &r2, &r3);
  Database db;
  const RelationId i1 = db.Add(std::move(r1));
  const RelationId i2 = db.Add(std::move(r2));
  const RelationId i3 = db.Add(std::move(r3));
  ConjunctiveQuery q;
  q.AddAtom(i1, {0, 1});
  q.AddAtom(i2, {1, 2});
  q.AddAtom(i3, {2, 3});

  JoinStats yann_stats;
  const Relation yout = YannakakisJoin(db, q, &yann_stats);
  JoinStats bin_stats;
  const Relation bout = LeftDeepJoin(db, q, {0, 1, 2}, &bin_stats);
  EXPECT_TRUE(ResultsEqual(yout, bout, 1e-9));
  EXPECT_GE(bin_stats.max_intermediate_size,
            static_cast<int64_t>(n * n));
  EXPECT_LE(yann_stats.max_intermediate_size,
            static_cast<int64_t>(yout.NumTuples()));
}

TEST(YannakakisTest, BooleanAgreesWithOutputEmptiness) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    TestInstance t = MakePathInstance(4, 10, 6, seed);
    const bool non_empty = YannakakisBoolean(t.db, t.query, nullptr);
    const Relation oracle = NestedLoopJoin(t.db, t.query);
    EXPECT_EQ(non_empty, oracle.NumTuples() > 0) << "seed=" << seed;
  }
}

TEST(GenericJoinTest, MatchesOracleOnTriangles) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    TestInstance t = MakeTriangleInstance(30, 6, seed);
    JoinStats stats;
    const Relation out = GenericJoinAll(t.db, t.query, &stats);
    const Relation oracle = NestedLoopJoin(t.db, t.query);
    EXPECT_TRUE(ResultsEqual(out, oracle, 1e-9)) << "seed=" << seed;
  }
}

TEST(GenericJoinTest, MatchesOracleOnPathsAndStars) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    TestInstance p = MakePathInstance(3, 20, 4, seed);
    EXPECT_TRUE(ResultsEqual(GenericJoinAll(p.db, p.query, nullptr),
                             NestedLoopJoin(p.db, p.query), 1e-9));
    TestInstance s = MakeStarInstance(15, 4, seed + 100);
    EXPECT_TRUE(ResultsEqual(GenericJoinAll(s.db, s.query, nullptr),
                             NestedLoopJoin(s.db, s.query), 1e-9));
  }
}

TEST(GenericJoinTest, BooleanEarlyExit) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    TestInstance t = MakeTriangleInstance(15, 4, seed);
    const bool any = GenericJoinBoolean(t.db, t.query, nullptr);
    EXPECT_EQ(any, NestedLoopJoin(t.db, t.query).NumTuples() > 0);
  }
}

TEST(GenericJoinTest, DuplicateTuplesBagSemantics) {
  Database db;
  Relation r = Relation::WithArity("R", 2);
  r.AddTuple({1, 2}, 0.1);
  r.AddTuple({1, 2}, 0.2);
  Relation s = Relation::WithArity("S", 2);
  s.AddTuple({2, 1}, 0.3);
  const RelationId rid = db.Add(std::move(r)), sid = db.Add(std::move(s));
  ConjunctiveQuery q;
  q.AddAtom(rid, {0, 1});
  q.AddAtom(sid, {1, 0});
  const Relation out = GenericJoinAll(db, q, nullptr);
  EXPECT_EQ(out.NumTuples(), 2u);
  EXPECT_TRUE(ResultsEqual(out, NestedLoopJoin(db, q), 1e-9));
}

TEST(LeapfrogTest, MatchesOracleOnTriangles) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    TestInstance t = MakeTriangleInstance(30, 6, seed);
    JoinStats stats;
    const Relation out = LeapfrogJoinAll(t.db, t.query, &stats);
    const Relation oracle = NestedLoopJoin(t.db, t.query);
    EXPECT_TRUE(ResultsEqual(out, oracle, 1e-9)) << "seed=" << seed;
  }
}

TEST(LeapfrogTest, MatchesGenericJoinOnFourCycles) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    Database db;
    const RelationId e = db.Add(UniformBinaryRelation("E", 50, 7, rng));
    ConjunctiveQuery q;
    q.AddAtom(e, {0, 1});
    q.AddAtom(e, {1, 2});
    q.AddAtom(e, {2, 3});
    q.AddAtom(e, {3, 0});
    const Relation lf = LeapfrogJoinAll(db, q, nullptr);
    const Relation gj = GenericJoinAll(db, q, nullptr);
    EXPECT_TRUE(ResultsEqual(lf, gj, 1e-9)) << "seed=" << seed;
  }
}

TEST(LeapfrogTest, DuplicatesAndBoolean) {
  Database db;
  Relation r = Relation::WithArity("R", 2);
  r.AddTuple({1, 2}, 0.1);
  r.AddTuple({1, 2}, 0.2);
  r.AddTuple({5, 6}, 0.0);
  Relation s = Relation::WithArity("S", 2);
  s.AddTuple({2, 4}, 0.3);
  const RelationId rid = db.Add(std::move(r)), sid = db.Add(std::move(s));
  ConjunctiveQuery q;
  q.AddAtom(rid, {0, 1});
  q.AddAtom(sid, {1, 2});
  const Relation out = LeapfrogJoinAll(db, q, nullptr);
  EXPECT_EQ(out.NumTuples(), 2u);
  EXPECT_TRUE(LeapfrogBoolean(db, q, nullptr));
}

TEST(LeapfrogTest, EmptyInputYieldsEmptyOutput) {
  Database db;
  const RelationId rid = db.Add(Relation::WithArity("R", 2));
  ConjunctiveQuery q;
  q.AddAtom(rid, {0, 1});
  q.AddAtom(rid, {1, 2});
  EXPECT_EQ(LeapfrogJoinAll(db, q, nullptr).NumTuples(), 0u);
  EXPECT_FALSE(LeapfrogBoolean(db, q, nullptr));
}

// Property sweep: all five algorithms agree across query shapes, sizes,
// domains, and seeds.
struct SweepParam {
  std::string shape;
  size_t tuples;
  Value domain;
  uint64_t seed;
};

class JoinAgreementTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(JoinAgreementTest, AllAlgorithmsAgree) {
  const SweepParam p = GetParam();
  TestInstance t;
  if (p.shape == "path3") {
    t = MakePathInstance(3, p.tuples, p.domain, p.seed);
  } else if (p.shape == "star") {
    t = MakeStarInstance(p.tuples, p.domain, p.seed);
  } else {
    t = MakeTriangleInstance(p.tuples, p.domain, p.seed);
  }
  const Relation oracle = NestedLoopJoin(t.db, t.query);
  EXPECT_TRUE(ResultsEqual(GenericJoinAll(t.db, t.query, nullptr), oracle,
                           1e-9));
  EXPECT_TRUE(
      ResultsEqual(LeapfrogJoinAll(t.db, t.query, nullptr), oracle, 1e-9));
  std::vector<size_t> order(t.query.NumAtoms());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  EXPECT_TRUE(
      ResultsEqual(LeftDeepJoin(t.db, t.query, order, nullptr), oracle, 1e-9));
  if (IsAcyclic(t.query)) {
    EXPECT_TRUE(
        ResultsEqual(YannakakisJoin(t.db, t.query, nullptr), oracle, 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinAgreementTest,
    ::testing::Values(SweepParam{"path3", 10, 3, 1},
                      SweepParam{"path3", 30, 5, 2},
                      SweepParam{"path3", 50, 8, 3},
                      SweepParam{"star", 10, 3, 4},
                      SweepParam{"star", 25, 6, 5},
                      SweepParam{"triangle", 12, 3, 6},
                      SweepParam{"triangle", 30, 6, 7},
                      SweepParam{"triangle", 60, 10, 8},
                      SweepParam{"triangle", 60, 4, 9}));

}  // namespace
}  // namespace topkjoin
