// Tests for anyk/: the T-DP substrate, ANYK-REC, ANYK-PART (eager and
// lazy), the batch baseline, the unranked constant-delay enumerator, and
// the union merger -- with differential property tests against sorting
// the nested-loop oracle's output.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/anyk/anyk.h"
#include "src/anyk/anyk_part.h"
#include "src/anyk/anyk_rec.h"
#include "src/anyk/batch.h"
#include "src/anyk/tdp.h"
#include "src/anyk/union_anyk.h"
#include "src/data/generators.h"
#include "src/join/nested_loop.h"
#include "src/query/decomposition.h"
#include "src/query/hypergraph.h"
#include "src/ranking/cost_model.h"
#include "src/util/rng.h"

namespace topkjoin {
namespace {

struct TestInstance {
  Database db;
  ConjunctiveQuery query;
};

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

// Bushy tree: R(x0,x1), S(x1,x2), T(x1,x3), U(x3,x4).
TestInstance MakeBushyInstance(size_t tuples, Value domain, uint64_t seed) {
  TestInstance t;
  Rng rng(seed);
  const RelationId r = t.db.Add(UniformBinaryRelation("R", tuples, domain, rng));
  const RelationId s = t.db.Add(UniformBinaryRelation("S", tuples, domain, rng));
  const RelationId u = t.db.Add(UniformBinaryRelation("T", tuples, domain, rng));
  const RelationId v = t.db.Add(UniformBinaryRelation("U", tuples, domain, rng));
  t.query.AddAtom(r, {0, 1});
  t.query.AddAtom(s, {1, 2});
  t.query.AddAtom(u, {1, 3});
  t.query.AddAtom(v, {3, 4});
  return t;
}

// Reference: all results sorted by SUM weight from the oracle.
std::vector<double> OracleSortedCosts(const TestInstance& t) {
  const Relation out = NestedLoopJoin(t.db, t.query);
  std::vector<double> costs;
  costs.reserve(out.NumTuples());
  for (RowId r = 0; r < out.NumTuples(); ++r) {
    costs.push_back(out.TupleWeight(r));
  }
  std::sort(costs.begin(), costs.end());
  return costs;
}

// Drains an iterator, checking monotone costs and valid assignments.
std::vector<RankedResult> Drain(RankedIterator* it) {
  std::vector<RankedResult> results;
  while (auto r = it->Next()) {
    if (!results.empty()) {
      EXPECT_GE(r->cost, results.back().cost - 1e-12)
          << "cost order violated at rank " << results.size();
    }
    results.push_back(std::move(*r));
  }
  return results;
}

// Checks a drained stream against the oracle: same multiset of costs in
// sorted order, and every assignment is a genuine join result.
void CheckAgainstOracle(const TestInstance& t,
                        const std::vector<RankedResult>& results) {
  const std::vector<double> expected = OracleSortedCosts(t);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_NEAR(results[i].cost, expected[i], 1e-9) << "rank " << i;
  }
  // Spot-check assignments satisfy every atom (full membership check).
  for (size_t i = 0; i < std::min<size_t>(results.size(), 20); ++i) {
    for (const Atom& atom : t.query.atoms()) {
      const Relation& rel = t.db.relation(atom.relation);
      bool found = false;
      for (RowId r = 0; r < rel.NumTuples() && !found; ++r) {
        bool match = true;
        for (size_t c = 0; c < atom.vars.size(); ++c) {
          if (rel.At(r, c) !=
              results[i].assignment[static_cast<size_t>(atom.vars[c])]) {
            match = false;
            break;
          }
        }
        found = match;
      }
      EXPECT_TRUE(found) << "rank " << i << " violates an atom";
    }
  }
}

TEST(TdpTest, HasResultsMatchesOracle) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    TestInstance t = MakePathInstance(3, 8, 6, seed);
    Tdp<SumCost> tdp(t.db, t.query, SortMode::kEager, nullptr);
    const Relation oracle = NestedLoopJoin(t.db, t.query);
    EXPECT_EQ(tdp.HasResults(), oracle.NumTuples() > 0) << "seed=" << seed;
  }
}

TEST(TdpTest, OptimalCompletionIsMinimumCost) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    TestInstance t = MakePathInstance(3, 20, 4, seed);
    Tdp<SumCost> tdp(t.db, t.query, SortMode::kEager, nullptr);
    if (!tdp.HasResults()) continue;
    std::vector<RowId> choice(tdp.NumNodes());
    tdp.CompleteOptimally(0, tdp.RootGroup(), &choice);
    const double best = tdp.CostOf(choice);
    const auto oracle = OracleSortedCosts(t);
    EXPECT_NEAR(best, oracle.front(), 1e-9) << "seed=" << seed;
    // And it matches the root group's advertised best.
    EXPECT_NEAR(tdp.GroupBest(0, tdp.RootGroup()), best, 1e-9);
  }
}

TEST(TdpTest, GroupTupleRanksAreMonotoneLazyAndEager) {
  TestInstance t = MakePathInstance(2, 40, 3, 7);
  for (SortMode mode :
       {SortMode::kEager, SortMode::kLazy, SortMode::kQuickselect}) {
    Tdp<SumCost> tdp(t.db, t.query, mode, nullptr);
    TdpCursor<SumCost> cur(&tdp);
    for (size_t n = 0; n < tdp.NumNodes(); ++n) {
      for (GroupId g = 0; g < tdp.node(n).groups.size(); ++g) {
        double prev = -1e300;
        RowId row = 0;
        for (size_t rank = 0; cur.GroupTuple(n, g, rank, &row); ++rank) {
          const double b = tdp.node(n).best[row];
          EXPECT_GE(b, prev - 1e-12);
          prev = b;
        }
      }
    }
  }
}

TEST(TdpTest, EmptyJoinHasNoResults) {
  Database db;
  Relation r = Relation::WithArity("R", 2);
  r.AddTuple({1, 2}, 0.5);
  Relation s = Relation::WithArity("S", 2);
  s.AddTuple({3, 4}, 0.5);  // no join partner
  const RelationId rid = db.Add(std::move(r)), sid = db.Add(std::move(s));
  ConjunctiveQuery q;
  q.AddAtom(rid, {0, 1});
  q.AddAtom(sid, {1, 2});
  Tdp<SumCost> tdp(db, q, SortMode::kEager, nullptr);
  EXPECT_FALSE(tdp.HasResults());
  AnyKRec<SumCost> rec(&tdp);
  EXPECT_FALSE(rec.Next().has_value());
}

// ---- Differential sweeps across algorithms and query shapes. ----

struct AnyKParam {
  std::string shape;
  size_t tuples;
  Value domain;
  uint64_t seed;
};

class AnyKSweepTest : public ::testing::TestWithParam<AnyKParam> {
 protected:
  TestInstance MakeInstance() const {
    const auto& p = GetParam();
    if (p.shape == "path2") return MakePathInstance(2, p.tuples, p.domain, p.seed);
    if (p.shape == "path4") return MakePathInstance(4, p.tuples, p.domain, p.seed);
    if (p.shape == "star") return MakeStarInstance(p.tuples, p.domain, p.seed);
    return MakeBushyInstance(p.tuples, p.domain, p.seed);
  }
};

TEST_P(AnyKSweepTest, RecMatchesOracle) {
  TestInstance t = MakeInstance();
  Tdp<SumCost> tdp(t.db, t.query, SortMode::kLazy, nullptr);
  AnyKRec<SumCost> rec(&tdp);
  CheckAgainstOracle(t, Drain(&rec));
}

TEST_P(AnyKSweepTest, PartEagerMatchesOracle) {
  TestInstance t = MakeInstance();
  Tdp<SumCost> tdp(t.db, t.query, SortMode::kEager, nullptr);
  AnyKPart<SumCost> part(&tdp);
  CheckAgainstOracle(t, Drain(&part));
}

TEST_P(AnyKSweepTest, PartLazyMatchesOracle) {
  TestInstance t = MakeInstance();
  Tdp<SumCost> tdp(t.db, t.query, SortMode::kLazy, nullptr);
  AnyKPart<SumCost> part(&tdp);
  CheckAgainstOracle(t, Drain(&part));
}

TEST_P(AnyKSweepTest, PartTake2MatchesOracle) {
  TestInstance t = MakeInstance();
  Tdp<SumCost> tdp(t.db, t.query, SortMode::kLazy, nullptr);
  AnyKPart<SumCost, PartStrategy::kTake2> part(&tdp);
  CheckAgainstOracle(t, Drain(&part));
}

TEST_P(AnyKSweepTest, PartMemoizedMatchesOracle) {
  TestInstance t = MakeInstance();
  Tdp<SumCost> tdp(t.db, t.query, SortMode::kQuickselect, nullptr);
  AnyKPart<SumCost, PartStrategy::kTake2> part(&tdp);
  CheckAgainstOracle(t, Drain(&part));
}

TEST_P(AnyKSweepTest, BatchMatchesOracle) {
  TestInstance t = MakeInstance();
  Tdp<SumCost> tdp(t.db, t.query, SortMode::kEager, nullptr);
  BatchSorted<SumCost> batch(&tdp);
  CheckAgainstOracle(t, Drain(&batch));
}

// Every join result exactly once (the oracle's multiset of
// assignments), in every sort mode: BatchSorted collects through this
// walk.
TEST_P(AnyKSweepTest, UnrankedEnumeratorCoversEverything) {
  TestInstance t = MakeInstance();
  const Relation oracle = NestedLoopJoin(t.db, t.query);
  std::vector<std::vector<Value>> want;
  for (RowId r = 0; r < oracle.NumTuples(); ++r) {
    const auto tuple = oracle.Tuple(r);
    want.emplace_back(tuple.begin(), tuple.end());
  }
  std::sort(want.begin(), want.end());
  for (const SortMode mode :
       {SortMode::kEager, SortMode::kLazy, SortMode::kQuickselect}) {
    Tdp<SumCost> tdp(t.db, t.query, mode, nullptr);
    UnrankedEnumerator<SumCost> en(&tdp);
    std::vector<std::vector<Value>> got;
    while (auto assignment = en.Next()) got.push_back(std::move(*assignment));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "sort mode " << static_cast<int>(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AnyKSweepTest,
    ::testing::Values(AnyKParam{"path2", 15, 3, 1},
                      AnyKParam{"path2", 40, 6, 2},
                      AnyKParam{"path4", 12, 3, 3},
                      AnyKParam{"path4", 25, 5, 4},
                      AnyKParam{"star", 12, 3, 5},
                      AnyKParam{"star", 30, 6, 6},
                      AnyKParam{"bushy", 10, 3, 7},
                      AnyKParam{"bushy", 20, 4, 8},
                      AnyKParam{"bushy", 35, 6, 9}));

// ---- Ranking-function generality. ----

template <typename CM>
void CheckModelAgainstBruteForce(const TestInstance& t) {
  // Brute-force: compute all results' costs under CM via the oracle's
  // per-result weights... the oracle only sums, so recompute from
  // scratch: enumerate with BatchSorted under CM and verify order, then
  // check REC and PART produce the same cost sequence.
  Tdp<CM> tdp_batch(t.db, t.query, SortMode::kEager, nullptr);
  BatchSorted<CM> batch(&tdp_batch);
  std::vector<double> batch_costs;
  while (auto r = batch.Next()) batch_costs.push_back(r->cost);

  Tdp<CM> tdp_rec(t.db, t.query, SortMode::kLazy, nullptr);
  AnyKRec<CM> rec(&tdp_rec);
  std::vector<double> rec_costs;
  while (auto r = rec.Next()) rec_costs.push_back(r->cost);

  Tdp<CM> tdp_part(t.db, t.query, SortMode::kEager, nullptr);
  AnyKPart<CM> part(&tdp_part);
  std::vector<double> part_costs;
  while (auto r = part.Next()) part_costs.push_back(r->cost);

  ASSERT_EQ(batch_costs.size(), rec_costs.size());
  ASSERT_EQ(batch_costs.size(), part_costs.size());
  for (size_t i = 0; i < batch_costs.size(); ++i) {
    EXPECT_NEAR(batch_costs[i], rec_costs[i], 1e-9) << "rank " << i;
    EXPECT_NEAR(batch_costs[i], part_costs[i], 1e-9) << "rank " << i;
  }
}

TEST(RankingModelsTest, MaxCostAgrees) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    CheckModelAgainstBruteForce<MaxCost>(MakePathInstance(3, 18, 4, seed));
  }
}

TEST(RankingModelsTest, ProdCostAgrees) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    CheckModelAgainstBruteForce<ProdCost>(MakeStarInstance(15, 4, seed));
  }
}

TEST(RankingModelsTest, LexCostOrdersLexicographically) {
  // LEX: full drain must be sorted under the exact vector comparison.
  TestInstance t = MakePathInstance(3, 15, 4, 11);
  Tdp<LexCost> tdp(t.db, t.query, SortMode::kLazy, nullptr);
  AnyKRec<LexCost> rec(&tdp);
  std::vector<LexCost::CostT> costs;
  while (auto r = rec.NextWithCost()) costs.push_back(r->second);
  for (size_t i = 1; i < costs.size(); ++i) {
    EXPECT_FALSE(LexCost::Less(costs[i], costs[i - 1])) << "rank " << i;
  }
  // Same count as SUM enumeration.
  EXPECT_EQ(costs.size(), OracleSortedCosts(t).size());
}

TEST(RankingModelsTest, MaxCostIsBottleneck) {
  // Hand-built: path of two atoms; the best-by-max result differs from
  // the best-by-sum result.
  Database db;
  Relation r = Relation::WithArity("R", 2);
  r.AddTuple({1, 2}, 5.0);   // heavy first hop
  r.AddTuple({1, 3}, 6.0);
  Relation s = Relation::WithArity("S", 2);
  s.AddTuple({2, 4}, 5.5);   // (1,2,4): max 5.5, sum 10.5
  s.AddTuple({3, 4}, 0.5);   // (1,3,4): max 6.0, sum 6.5
  const RelationId rid = db.Add(std::move(r)), sid = db.Add(std::move(s));
  ConjunctiveQuery q;
  q.AddAtom(rid, {0, 1});
  q.AddAtom(sid, {1, 2});

  Tdp<MaxCost> tmax(db, q, SortMode::kEager, nullptr);
  AnyKPart<MaxCost> pmax(&tmax);
  const auto first_max = pmax.Next();
  ASSERT_TRUE(first_max.has_value());
  EXPECT_DOUBLE_EQ(first_max->cost, 5.5);

  Tdp<SumCost> tsum(db, q, SortMode::kEager, nullptr);
  AnyKPart<SumCost> psum(&tsum);
  const auto first_sum = psum.Next();
  ASSERT_TRUE(first_sum.has_value());
  EXPECT_DOUBLE_EQ(first_sum->cost, 6.5);
}

// ---- Factory and union. ----

TEST(FactoryTest, AllAlgorithmsAgreeViaFactory) {
  TestInstance t = MakePathInstance(3, 30, 5, 13);
  const auto expected = OracleSortedCosts(t);
  for (AnyKAlgorithm algo :
       {AnyKAlgorithm::kRec, AnyKAlgorithm::kPartEager,
        AnyKAlgorithm::kPartLazy, AnyKAlgorithm::kPartTake2,
        AnyKAlgorithm::kPartMemoized, AnyKAlgorithm::kBatch}) {
    auto it = MakeAnyK(t.db, t.query, algo);
    const auto results = Drain(it.get());
    ASSERT_EQ(results.size(), expected.size()) << AnyKAlgorithmName(algo);
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_NEAR(results[i].cost, expected[i], 1e-9)
          << AnyKAlgorithmName(algo) << " rank " << i;
    }
  }
}

TEST(UnionTest, MergesDisjointStreamsInOrder) {
  // Two disjoint path instances merged must equal the concatenated
  // sorted costs.
  TestInstance t1 = MakePathInstance(2, 20, 4, 17);
  TestInstance t2 = MakePathInstance(2, 20, 4, 18);
  std::vector<std::unique_ptr<RankedIterator>> inputs;
  inputs.push_back(MakeAnyK(t1.db, t1.query, AnyKAlgorithm::kRec));
  inputs.push_back(MakeAnyK(t2.db, t2.query, AnyKAlgorithm::kRec));
  UnionAnyK merged(std::move(inputs));
  std::vector<double> expected = OracleSortedCosts(t1);
  const auto e2 = OracleSortedCosts(t2);
  expected.insert(expected.end(), e2.begin(), e2.end());
  std::sort(expected.begin(), expected.end());
  const auto results = Drain(&merged);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_NEAR(results[i].cost, expected[i], 1e-9);
  }
}

TEST(UnionTest, EmptyInputs) {
  UnionAnyK merged({});
  EXPECT_FALSE(merged.Next().has_value());
}

// ---- Any-k on decomposed cyclic queries (4-cycle via fhw-2 bags). ----

TEST(DecomposedAnyKTest, FourCycleRankedEnumerationMatchesOracle) {
  Rng rng(21);
  Database db;
  const RelationId e = db.Add(UniformBinaryRelation("E", 60, 6, rng));
  ConjunctiveQuery q;
  q.AddAtom(e, {0, 1});
  q.AddAtom(e, {1, 2});
  q.AddAtom(e, {2, 3});
  q.AddAtom(e, {3, 0});
  // Decompose, then rank-enumerate over the bags.
  const auto grouping = FindAcyclicGrouping(q);
  ASSERT_TRUE(grouping.has_value());
  JoinStats stats;
  DecomposedQuery dq = MaterializeGrouping(db, q, *grouping, &stats);
  auto it = MakeAnyK(dq.db, dq.query, AnyKAlgorithm::kRec);
  const auto results = Drain(it.get());
  TestInstance t;
  t.db = std::move(db);
  t.query = q;
  const auto expected = OracleSortedCosts(t);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_NEAR(results[i].cost, expected[i], 1e-9);
  }
}

}  // namespace
}  // namespace topkjoin
