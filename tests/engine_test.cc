// Tests for engine/: planner routing and heuristics, executor
// correctness against direct MakeAnyK / batch-sort ground truth on the
// paper's path, star, triangle, and 4-cycle queries, and the resumable
// budgeted cursors Engine::OpenCursor hands out.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/anyk/anyk.h"
#include "src/engine/engine.h"
#include "src/obs/metrics.h"
#include "src/query/hypergraph.h"
#include "src/util/rng.h"
#include "tests/test_instances.h"

namespace topkjoin {
namespace {

using testing_fixtures::Drain;
using testing_fixtures::Instance;
using testing_fixtures::MakeFourCycleInstance;
using testing_fixtures::MakePathInstance;
using testing_fixtures::MakeStarInstance;
using testing_fixtures::MakeTriangleInstance;
using testing_fixtures::OracleSortedCosts;

void ExpectSameRankedStream(const std::vector<RankedResult>& got,
                            const std::vector<double>& want_costs) {
  ASSERT_EQ(got.size(), want_costs.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].cost, want_costs[i], 1e-9) << "rank " << i;
  }
}

// ---------------------------------------------------------------- plans

TEST(PlannerTest, SmallKPicksAnyK) {
  Instance t = MakePathInstance(3, 60, 5, 7);
  Engine engine;
  ExecutionOptions opts;
  opts.k = 5;
  const auto plan = engine.Explain(t.db, t.query, {}, opts);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().strategy, PlanStrategy::kAnyKDirect);
  // Take2 is the default PART variant: fewest frontier pushes/result.
  EXPECT_EQ(plan.value().algorithm, AnyKAlgorithm::kPartTake2);
  EXPECT_FALSE(plan.value().rationale.empty());
}

// force_algorithm is the one any-k selector: each forced PART variant
// is the plan's algorithm, the Explain rationale names it, and it
// overrides the planner's choice for a small and a large k alike.
TEST(PlannerTest, AnyKVariantSelectsPartStrategy) {
  Instance t = MakePathInstance(3, 60, 5, 7);
  Engine engine;
  ExecutionOptions opts;
  for (const size_t k : {size_t{5}, size_t{100000}}) {
    opts.k = k;
    for (const AnyKAlgorithm algorithm :
         {AnyKAlgorithm::kPartEager, AnyKAlgorithm::kPartLazy,
          AnyKAlgorithm::kPartTake2, AnyKAlgorithm::kPartMemoized}) {
      opts.force_algorithm = algorithm;
      const auto plan = engine.Explain(t.db, t.query, {}, opts);
      ASSERT_TRUE(plan.ok());
      EXPECT_EQ(plan.value().strategy, PlanStrategy::kAnyKDirect);
      EXPECT_EQ(plan.value().algorithm, algorithm)
          << AnyKAlgorithmName(algorithm) << " k=" << k;
      EXPECT_NE(plan.value().rationale.find(AnyKAlgorithmName(algorithm)),
                std::string::npos);
    }
  }
}

// A k beyond the whole output still streams: batch-then-sort is only
// ever a forced baseline.
TEST(PlannerTest, LargeKStaysRec) {
  Instance t = MakePathInstance(3, 60, 5, 7);
  Engine engine;
  ExecutionOptions opts;
  opts.k = 1u << 22;  // far beyond any possible output
  const auto plan = engine.Explain(t.db, t.query, {}, opts);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().strategy, PlanStrategy::kAnyKDirect);
  EXPECT_EQ(plan.value().algorithm, AnyKAlgorithm::kRec);
  EXPECT_EQ(plan.value().estimated_intermediate, 0.0);
}

TEST(PlannerTest, UnknownKStaysAnytime) {
  Instance t = MakePathInstance(3, 60, 5, 7);
  Engine engine;
  const auto plan = engine.Explain(t.db, t.query, {}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().strategy, PlanStrategy::kAnyKDirect);
  EXPECT_EQ(plan.value().algorithm, AnyKAlgorithm::kRec);
}

TEST(PlannerTest, ForcedAlgorithmWins) {
  Instance t = MakePathInstance(3, 60, 5, 7);
  Engine engine;
  ExecutionOptions opts;
  opts.k = 5;
  opts.force_algorithm = AnyKAlgorithm::kBatch;
  const auto plan = engine.Explain(t.db, t.query, {}, opts);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().strategy, PlanStrategy::kBatchSort);
}

TEST(PlannerTest, FourCycleRoutesThroughUnionOfCases) {
  Instance t = MakeFourCycleInstance(40, 6, 3);
  Engine engine;
  const auto plan = engine.Explain(t.db, t.query, {}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().strategy, PlanStrategy::kUnionCases);
}

TEST(PlannerTest, TriangleRoutesThroughDecomposition) {
  Instance t = MakeTriangleInstance(30, 5, 3);
  Engine engine;
  const auto plan = engine.Explain(t.db, t.query, {}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().strategy, PlanStrategy::kDecompose);
  ASSERT_TRUE(plan.value().grouping.has_value());
  EXPECT_GE(plan.value().grouping->groups.size(), 1u);
}

TEST(PlannerTest, RejectsEmptyAndMalformedQueries) {
  Database db;
  ConjunctiveQuery empty;
  Engine engine;
  EXPECT_FALSE(engine.Explain(db, empty, {}, {}).ok());

  ConjunctiveQuery bad_rel;
  bad_rel.AddAtom(17, {0, 1});
  EXPECT_FALSE(engine.Explain(db, bad_rel, {}, {}).ok());
}

// PR 3 made bag materialization dioid-aware: cyclic queries now plan
// under every ranking dioid (the old rejection is gone), and the chosen
// dioid is recorded in the plan's rationale trace.
TEST(PlannerTest, PlansEveryDioidOnCyclicQueries) {
  Instance four = MakeFourCycleInstance(20, 5, 1);
  Instance tri = MakeTriangleInstance(15, 4, 1);
  Engine engine;
  for (const CostModelKind kind :
       {CostModelKind::kSum, CostModelKind::kMax, CostModelKind::kProd,
        CostModelKind::kLex}) {
    RankingSpec ranking;
    ranking.model = kind;
    const auto union_plan = engine.Explain(four.db, four.query, ranking, {});
    ASSERT_TRUE(union_plan.ok()) << CostModelName(kind);
    EXPECT_EQ(union_plan.value().strategy, PlanStrategy::kUnionCases);

    const auto bag_plan = engine.Explain(tri.db, tri.query, ranking, {});
    ASSERT_TRUE(bag_plan.ok()) << CostModelName(kind);
    EXPECT_EQ(bag_plan.value().strategy, PlanStrategy::kDecompose);
    // The dioid is part of the explainable trace.
    EXPECT_NE(bag_plan.value().rationale.find(CostModelName(kind)),
              std::string::npos)
        << bag_plan.value().DebugString();
  }
}

TEST(PlannerTest, HandBuiltNonSumDecomposedPlansCompileAndStayMonotone) {
  // BuildArtifact is public: hand-built non-SUM decomposed plans must
  // instantiate the bag artifact in the requested dioid (the bags'
  // member-weight sequences make that exact, see query/decomposition.h).
  Instance t = MakeTriangleInstance(10, 4, 1);
  QueryPlan decompose;
  decompose.strategy = PlanStrategy::kDecompose;
  decompose.ranking.model = CostModelKind::kMax;
  decompose.grouping = FindAcyclicGrouping(t.query);
  auto artifact = BuildArtifact(t.db, t.query, decompose);
  ASSERT_TRUE(artifact.ok());
  const auto results =
      Drain(NewEnumeration(*artifact.value(), decompose).get());
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i - 1].cost, results[i].cost + 1e-12);
  }
  // Same multiset size as the SUM ranking of the same query.
  Engine engine;
  auto sum_result = engine.Execute(t.db, t.query);
  ASSERT_TRUE(sum_result.ok());
  EXPECT_EQ(Drain(sum_result.value().stream.get()).size(), results.size());

  Instance c = MakeFourCycleInstance(10, 4, 1);
  QueryPlan union_cases;
  union_cases.strategy = PlanStrategy::kUnionCases;
  union_cases.ranking.model = CostModelKind::kProd;
  EXPECT_TRUE(BuildArtifact(c.db, c.query, union_cases).ok());
}

TEST(PlannerTest, PlanDebugStringMentionsStrategy) {
  Instance t = MakeFourCycleInstance(20, 5, 1);
  Engine engine;
  const auto plan = engine.Explain(t.db, t.query, {}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().DebugString().find("union-cases"), std::string::npos);
}

// ------------------------------------------------------------ execution

TEST(EngineExecuteTest, PathMatchesDirectAnyK) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Instance t = MakePathInstance(3, 40, 4, seed);
    auto direct = MakeAnyK(t.db, t.query, AnyKAlgorithm::kRec);
    const auto direct_results = Drain(direct.get());

    Engine engine;
    auto result = engine.Execute(t.db, t.query);
    ASSERT_TRUE(result.ok());
    const auto engine_results = Drain(result.value().stream.get());

    ASSERT_EQ(engine_results.size(), direct_results.size()) << "seed=" << seed;
    for (size_t i = 0; i < engine_results.size(); ++i) {
      EXPECT_NEAR(engine_results[i].cost, direct_results[i].cost, 1e-9);
    }
  }
}

TEST(EngineExecuteTest, StarMatchesBatchGroundTruth) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Instance t = MakeStarInstance(35, 4, seed);
    Engine engine;
    ExecutionOptions opts;
    opts.k = 3;  // small k: any-k path
    auto result = engine.Execute(t.db, t.query, {}, opts);
    ASSERT_TRUE(result.ok());
    ExpectSameRankedStream(Drain(result.value().stream.get()),
                           OracleSortedCosts(t));
  }
}

TEST(EngineExecuteTest, FourCycleMatchesBatchGroundTruth) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Instance t = MakeFourCycleInstance(50, 6, seed);
    Engine engine;
    auto result = engine.Execute(t.db, t.query);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().plan.strategy, PlanStrategy::kUnionCases);
    ExpectSameRankedStream(Drain(result.value().stream.get()),
                           OracleSortedCosts(t));
  }
}

TEST(EngineExecuteTest, TriangleDecompositionMatchesGroundTruth) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Instance t = MakeTriangleInstance(30, 5, seed);
    Engine engine;
    auto result = engine.Execute(t.db, t.query);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().plan.strategy, PlanStrategy::kDecompose);
    ExpectSameRankedStream(Drain(result.value().stream.get()),
                           OracleSortedCosts(t));
  }
}

TEST(EngineExecuteTest, BatchStrategyMatchesAnyKStrategy) {
  Instance t = MakePathInstance(3, 40, 4, 11);
  Engine engine;
  ExecutionOptions batch_opts;
  batch_opts.force_algorithm = AnyKAlgorithm::kBatch;
  auto batch = engine.Execute(t.db, t.query, {}, batch_opts);
  ASSERT_TRUE(batch.ok());
  ExpectSameRankedStream(Drain(batch.value().stream.get()),
                         OracleSortedCosts(t));
}

TEST(EngineExecuteTest, MaxRankingOrdersByBottleneck) {
  Instance t = MakePathInstance(2, 30, 4, 5);
  Engine engine;
  RankingSpec max_rank;
  max_rank.model = CostModelKind::kMax;
  auto result = engine.Execute(t.db, t.query, max_rank, {});
  ASSERT_TRUE(result.ok());
  const auto results = Drain(result.value().stream.get());
  ASSERT_FALSE(results.empty());
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i - 1].cost, results[i].cost + 1e-12);
  }
  // Same multiset of results as the SUM stream (order differs).
  auto sum_result = engine.Execute(t.db, t.query);
  ASSERT_TRUE(sum_result.ok());
  EXPECT_EQ(Drain(sum_result.value().stream.get()).size(), results.size());
}

// The any-k delay guarantee as a property test: between two consecutive
// results the pipeline may spend at most polylogarithmic work (heap
// extractions + priority-queue pushes, via RankedIterator::WorkUnits),
// never a burst proportional to the output size. A mid-enumeration
// O(output) spike is exactly the failure mode that would make "anytime
// top-k" degrade to batch behavior, and it cannot be caught by
// end-state assertions -- only by watching the per-Next() deltas.
TEST(EngineExecuteTest, PerResultWorkStaysWithinAnyKDelayBound) {
  for (const AnyKAlgorithm algorithm :
       {AnyKAlgorithm::kRec, AnyKAlgorithm::kPartEager,
        AnyKAlgorithm::kPartLazy, AnyKAlgorithm::kPartTake2,
        AnyKAlgorithm::kPartMemoized}) {
    for (uint64_t seed = 0; seed < 3; ++seed) {
      Instance t = MakePathInstance(3, 150, 8, seed);
      Engine engine;
      ExecutionOptions opts;
      opts.force_algorithm = algorithm;
      auto result = engine.Execute(t.db, t.query, {}, opts);
      ASSERT_TRUE(result.ok());
      RankedIterator* stream = result.value().stream.get();

      int64_t last_work = stream->WorkUnits();
      int64_t max_delta = 0;
      size_t results = 0;
      while (stream->Next().has_value()) {
        const int64_t work = stream->WorkUnits();
        max_delta = std::max(max_delta, work - last_work);
        last_work = work;
        ++results;
      }
      ASSERT_GE(results, 500u) << "instance too small to observe delay";
      ASSERT_GT(last_work, 0) << "pipeline reported no work at all";

      const std::string label = std::string(AnyKAlgorithmName(algorithm)) +
                                " seed=" + std::to_string(seed) +
                                " results=" + std::to_string(results) +
                                " max_delta=" + std::to_string(max_delta);
      // No O(output) spike: the worst single-result burst must stay a
      // small fraction of the output size ...
      EXPECT_LE(max_delta, static_cast<int64_t>(results) / 8) << label;
      // ... and within the any-k delay envelope: a constant per tree
      // node times log(output). Measured worst case is 25 units
      // (anyk-rec); the deterministic seeds leave ~8x headroom.
      const double bound = 4.0 * static_cast<double>(t.query.NumAtoms()) *
                           (std::log2(static_cast<double>(results)) + 1.0);
      EXPECT_LE(static_cast<double>(max_delta), bound) << label;
    }
  }
}

// Counters() breaks WorkUnits() down for every plan kind the executor
// builds, the 4-cycle ranked union included: frontier pushes plus heap
// extractions are the work units, and only batch-then-sort (which pays
// everything up front, in preprocessing) reports none.
TEST(EngineExecuteTest, CountersBreakDownWorkUnitsForEveryPlanKind) {
  struct PlanKind {
    Instance instance;
    AnyKAlgorithm algorithm;
    PlanStrategy strategy;
  };
  std::vector<PlanKind> kinds;
  kinds.push_back({MakePathInstance(3, 150, 8, 1), AnyKAlgorithm::kPartTake2,
                   PlanStrategy::kAnyKDirect});
  kinds.push_back({MakePathInstance(3, 150, 8, 1), AnyKAlgorithm::kBatch,
                   PlanStrategy::kBatchSort});
  kinds.push_back({MakeTriangleInstance(60, 6, 1), AnyKAlgorithm::kPartTake2,
                   PlanStrategy::kDecompose});
  kinds.push_back({MakeFourCycleInstance(200, 12, 1),
                   AnyKAlgorithm::kPartTake2, PlanStrategy::kUnionCases});
  constexpr size_t kPulls = 200;
  for (const PlanKind& kind : kinds) {
    const Instance& t = kind.instance;
    Engine engine;
    ExecutionOptions opts;
    opts.force_algorithm = kind.algorithm;
    auto result = engine.Execute(t.db, t.query, {}, opts);
    ASSERT_TRUE(result.ok()) << result.status().message();
    const std::string label = PlanStrategyName(kind.strategy);
    ASSERT_EQ(result.value().plan.strategy, kind.strategy) << label;
    RankedIterator* stream = result.value().stream.get();
    size_t pulled = 0;
    while (pulled < kPulls && stream->Next().has_value()) ++pulled;
    ASSERT_GT(pulled, 0u) << label;

    const PipelineCounters counters = stream->Counters();
    const int64_t sum = counters.frontier_pushes + counters.heap_extractions;
    EXPECT_EQ(sum, stream->WorkUnits()) << label;
    if (kind.strategy == PlanStrategy::kBatchSort) {
      EXPECT_EQ(sum, 0) << label;
    } else {
      EXPECT_GT(sum, 0) << label;
      EXPECT_GT(counters.candidate_pool_bytes, 0) << label;
    }
  }
}

// The stream must outlive the query/database objects used to build it
// (cursors cross request boundaries in the serving story).
TEST(EngineExecuteTest, StreamOutlivesQueryObject) {
  Instance t = MakePathInstance(3, 30, 4, 2);
  Engine engine;
  std::unique_ptr<RankedIterator> stream;
  size_t expected = OracleSortedCosts(t).size();
  {
    ConjunctiveQuery query_copy = t.query;  // dies at scope end
    auto result = engine.Execute(t.db, query_copy);
    ASSERT_TRUE(result.ok());
    stream = std::move(result.value().stream);
  }
  EXPECT_EQ(Drain(stream.get()).size(), expected);
}

// -------------------------------------------------------------- cursors

TEST(CursorTest, ResumeMidEnumerationDropsNothing) {
  Instance t = MakePathInstance(3, 40, 4, 9);
  const auto want = OracleSortedCosts(t);
  ASSERT_GT(want.size(), 10u);

  Engine engine;
  auto opened = engine.OpenCursor(t.db, t.query);
  ASSERT_TRUE(opened.ok());
  Cursor* cursor = opened.value().get();
  ASSERT_NE(cursor, nullptr);

  // Pull in ragged slices; concatenation must equal the ground truth
  // exactly -- no drops, no duplicates, order preserved.
  std::vector<double> got;
  for (size_t slice : {3u, 1u, 5u}) {
    for (const RankedResult& r : cursor->Fetch(slice)) got.push_back(r.cost);
  }
  while (auto r = cursor->Next()) got.push_back(r->cost);
  EXPECT_EQ(cursor->state(), CursorState::kExhausted);

  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-9) << "rank " << i;
  }
}

TEST(CursorTest, ResultBudgetStopsAndExtends) {
  Instance t = MakePathInstance(3, 40, 4, 9);
  Engine engine;
  CursorOptions limits;
  limits.result_budget = 4;
  auto opened = engine.OpenCursor(t.db, t.query, {}, {}, limits);
  ASSERT_TRUE(opened.ok());
  Cursor* cursor = opened.value().get();

  EXPECT_EQ(cursor->Fetch(100).size(), 4u);
  EXPECT_EQ(cursor->state(), CursorState::kResultBudgetHit);
  EXPECT_TRUE(cursor->Fetch(100).empty());  // stays stopped

  cursor->ExtendBudgets(/*extra_results=*/2, /*extra_work=*/0);
  const auto more = cursor->Fetch(100);
  EXPECT_EQ(more.size(), 2u);

  // Results across the budget stop are still globally rank-correct.
  const auto want = OracleSortedCosts(t);
  ASSERT_GE(want.size(), 6u);
  EXPECT_NEAR(more[1].cost, want[5], 1e-9);
}

TEST(CursorTest, WorkBudgetStops) {
  Instance t = MakePathInstance(3, 40, 4, 9);
  Engine engine;

  // Work is charged in measured pipeline units (WorkUnits deltas), so
  // calibrate the budget from an unbudgeted reference cursor: the exact
  // cost of the first two pulls. The pipeline is deterministic, so a
  // budget of exactly that cost stops the cursor after result two.
  auto ref_opened = engine.OpenCursor(t.db, t.query);
  ASSERT_TRUE(ref_opened.ok());
  Cursor* ref = ref_opened.value().get();
  ASSERT_EQ(ref->Fetch(2).size(), 2u);
  const size_t two_pull_work = ref->work_used();

  CursorOptions limits;
  limits.work_budget = two_pull_work;
  auto opened = engine.OpenCursor(t.db, t.query, {}, {}, limits);
  ASSERT_TRUE(opened.ok());
  Cursor* cursor = opened.value().get();
  // The budget is checked before each pull and charged after it, so the
  // cursor overshoots by at most one pull: two results, then a stop.
  EXPECT_EQ(cursor->Fetch(100).size(), 2u);
  EXPECT_EQ(cursor->state(), CursorState::kWorkBudgetHit);
  EXPECT_EQ(cursor->work_used(), two_pull_work);
  EXPECT_GE(cursor->work_used(), *limits.work_budget);
}

TEST(CursorTest, OptsKBecomesResultBudget) {
  Instance t = MakePathInstance(3, 40, 4, 9);
  Engine engine;
  ExecutionOptions opts;
  opts.k = 7;
  auto opened = engine.OpenCursor(t.db, t.query, {}, opts);
  ASSERT_TRUE(opened.ok());
  Cursor* cursor = opened.value().get();
  EXPECT_EQ(cursor->Fetch(1000).size(), 7u);
  EXPECT_EQ(cursor->state(), CursorState::kResultBudgetHit);
}

// Fetch(0) is a pure no-op: no pipeline pull, no state change, in every
// cursor state -- serving schedulers may emit empty slices.
TEST(CursorTest, FetchZeroIsANoOpInEveryState) {
  Instance t = MakePathInstance(3, 40, 4, 9);
  Engine engine;

  // Active cursor: nothing is consumed.
  auto opened = engine.OpenCursor(t.db, t.query);
  ASSERT_TRUE(opened.ok());
  Cursor* cursor = opened.value().get();
  EXPECT_TRUE(cursor->Fetch(0).empty());
  EXPECT_EQ(cursor->state(), CursorState::kActive);
  EXPECT_EQ(cursor->work_used(), 0u);
  EXPECT_EQ(cursor->results_emitted(), 0u);

  // Exhausted cursor: state (and counters) are preserved.
  const size_t total = cursor->Fetch(SIZE_MAX).size();
  ASSERT_EQ(cursor->state(), CursorState::kExhausted);
  const size_t work_after_drain = cursor->work_used();
  // Every pull charges at least one measured work unit, including the
  // final exhaustion probe.
  EXPECT_GE(work_after_drain, total + 1);
  EXPECT_TRUE(cursor->Fetch(0).empty());
  EXPECT_EQ(cursor->state(), CursorState::kExhausted);
  EXPECT_EQ(cursor->results_emitted(), total);
  EXPECT_EQ(cursor->work_used(), work_after_drain);

  // Budget-stopped cursor: the stop reason survives a zero fetch.
  CursorOptions limits;
  limits.result_budget = 2;
  auto budgeted = engine.OpenCursor(t.db, t.query, {}, {}, limits);
  ASSERT_TRUE(budgeted.ok());
  Cursor* stopped = budgeted.value().get();
  EXPECT_EQ(stopped->Fetch(100).size(), 2u);
  ASSERT_EQ(stopped->state(), CursorState::kResultBudgetHit);
  EXPECT_TRUE(stopped->Fetch(0).empty());
  EXPECT_EQ(stopped->state(), CursorState::kResultBudgetHit);
}

// ExtendBudgets(0, 0) must not wake a budget-stopped cursor (a zero
// grant leaves zero headroom), and no grant revives an exhausted one.
TEST(CursorTest, ExtendBudgetsZeroPreservesState) {
  Instance t = MakePathInstance(3, 40, 4, 9);
  Engine engine;

  CursorOptions limits;
  limits.result_budget = 3;
  auto opened = engine.OpenCursor(t.db, t.query, {}, {}, limits);
  ASSERT_TRUE(opened.ok());
  Cursor* cursor = opened.value().get();
  EXPECT_EQ(cursor->Fetch(100).size(), 3u);
  ASSERT_EQ(cursor->state(), CursorState::kResultBudgetHit);

  cursor->ExtendBudgets(0, 0);
  EXPECT_EQ(cursor->state(), CursorState::kResultBudgetHit);
  EXPECT_FALSE(cursor->Next().has_value());
  EXPECT_TRUE(cursor->Fetch(100).empty());
  EXPECT_EQ(cursor->results_emitted(), 3u);

  // A real grant still resumes exactly where the cursor stopped.
  cursor->ExtendBudgets(1, 0);
  EXPECT_EQ(cursor->state(), CursorState::kActive);
  const auto more = cursor->Fetch(100);
  ASSERT_EQ(more.size(), 1u);
  const auto want = OracleSortedCosts(t);
  ASSERT_GE(want.size(), 4u);
  EXPECT_NEAR(more[0].cost, want[3], 1e-9);

  // Work-budget stops behave the same way. Work is charged in measured
  // pipeline units, so calibrate the budget and the resume grant from an
  // unbudgeted reference cursor (the pipeline is deterministic).
  auto wref_opened = engine.OpenCursor(t.db, t.query);
  ASSERT_TRUE(wref_opened.ok());
  Cursor* wref = wref_opened.value().get();
  ASSERT_EQ(wref->Fetch(2).size(), 2u);
  const size_t two_pull_work = wref->work_used();
  ASSERT_EQ(wref->Fetch(1).size(), 1u);
  const size_t three_pull_work = wref->work_used();

  CursorOptions work_limits;
  work_limits.work_budget = two_pull_work;
  auto w_opened = engine.OpenCursor(t.db, t.query, {}, {}, work_limits);
  ASSERT_TRUE(w_opened.ok());
  Cursor* worker = w_opened.value().get();
  EXPECT_EQ(worker->Fetch(100).size(), 2u);
  ASSERT_EQ(worker->state(), CursorState::kWorkBudgetHit);
  worker->ExtendBudgets(0, 0);
  EXPECT_EQ(worker->state(), CursorState::kWorkBudgetHit);
  EXPECT_TRUE(worker->Fetch(100).empty());
  worker->ExtendBudgets(0, three_pull_work - two_pull_work);
  EXPECT_EQ(worker->Fetch(100).size(), 1u);

  // Exhaustion is final: budget grants change nothing.
  auto d_opened = engine.OpenCursor(t.db, t.query);
  ASSERT_TRUE(d_opened.ok());
  Cursor* drained = d_opened.value().get();
  drained->Fetch(SIZE_MAX);
  ASSERT_EQ(drained->state(), CursorState::kExhausted);
  drained->ExtendBudgets(1000, 1000);
  EXPECT_EQ(drained->state(), CursorState::kExhausted);
  EXPECT_TRUE(drained->Fetch(100).empty());
}

TEST(EngineSessionTest, InterleavesManyCursors) {
  Engine engine;
  std::vector<Instance> instances;
  std::vector<std::unique_ptr<Cursor>> cursors;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    instances.push_back(MakePathInstance(3, 30, 4, seed));
  }
  for (const Instance& t : instances) {
    auto opened = engine.OpenCursor(t.db, t.query);
    ASSERT_TRUE(opened.ok());
    ASSERT_NE(opened.value(), nullptr);
    cursors.push_back(std::move(opened).value());
  }

  // Round-robin until everything drains; cursors opened on one engine
  // share its estimator cache but nothing else, so per-cursor streams
  // must stay rank-correct under interleaving.
  std::vector<std::vector<double>> per_cursor(cursors.size());
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t i = 0; i < cursors.size(); ++i) {
      for (const RankedResult& r : cursors[i]->Fetch(2)) {
        per_cursor[i].push_back(r.cost);
        progressed = true;
      }
    }
  }
  for (size_t i = 0; i < cursors.size(); ++i) {
    EXPECT_EQ(cursors[i]->state(), CursorState::kExhausted) << "cursor " << i;
    const auto want = OracleSortedCosts(instances[i]);
    const auto& got = per_cursor[i];
    ASSERT_EQ(got.size(), want.size()) << "cursor " << i;
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_NEAR(got[j], want[j], 1e-9);
    }
  }
}

// --------------------------------------------------------- observability

TEST(EngineTraceTest, ExecuteWithoutCollectTraceReturnsNoTrace) {
  Instance t = MakePathInstance(3, 30, 4, 9);
  Engine engine;
  auto result = engine.Execute(t.db, t.query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().trace, nullptr);
}

TEST(EngineTraceTest, CollectTraceRecordsPhasesAndMilestones) {
  Instance t = MakePathInstance(4, 30, 4, 9);
  Engine engine;
  ExecutionOptions opts;
  opts.collect_trace = true;
  auto result = engine.Execute(t.db, t.query, {}, opts);
  ASSERT_TRUE(result.ok());
  auto trace = result.value().trace;
  ASSERT_NE(trace, nullptr);

  // Both pre-enumeration phases were timed.
  ASSERT_EQ(trace->phases.size(), 2u);
  EXPECT_EQ(trace->phases[0].name, "plan");
  EXPECT_EQ(trace->phases[1].name, "compile+preprocess");
  EXPECT_FALSE(trace->strategy.empty());
  EXPECT_FALSE(trace->plan_cache_hit);  // a fresh Engine plans

  const size_t total = Drain(result.value().stream.get()).size();
  ASSERT_GT(total, 5u);
  result.value().stream.reset();  // finalizes the trace

  EXPECT_EQ(trace->results, total);
  EXPECT_GT(trace->enumeration_nanos, 0u);
  EXPECT_GT(trace->work_units, 0);
  // TTL milestones follow the 1-2-5 series from k = 1 and never exceed
  // the result count; the times are monotone in k.
  ASSERT_FALSE(trace->ttl.empty());
  EXPECT_EQ(trace->ttl.front().k, 1u);
  uint64_t prev_k = 0, prev_ns = 0;
  for (const auto& milestone : trace->ttl) {
    EXPECT_GT(milestone.k, prev_k);
    EXPECT_GE(milestone.nanos, prev_ns);
    EXPECT_LE(milestone.k, total);
    prev_k = milestone.k;
    prev_ns = milestone.nanos;
  }
  EXPECT_NE(trace->ToJson().find("\"strategy\""), std::string::npos);
}

TEST(EngineEstimatorCacheTest, ExecuteReusesEstimatorUntilDbChanges) {
  Instance t = MakePathInstance(3, 30, 4, 9);
  Engine engine;
  auto& registry = MetricsRegistry::Global();
  Counter* hits = registry.GetCounter("stats.estimator_cache_hits");
  Counter* misses = registry.GetCounter("stats.estimator_cache_misses");

  const int64_t hits_before = hits->value();
  const int64_t misses_before = misses->value();
  ASSERT_TRUE(engine.Execute(t.db, t.query).ok());
  EXPECT_EQ(misses->value(), misses_before + 1);  // first touch builds
  // A distinct ranking and a forced algorithm are distinct plan
  // requests: each misses the plan cache and plans over the one cached
  // estimator.
  RankingSpec max_rank;
  max_rank.model = CostModelKind::kMax;
  ExecutionOptions forced;
  forced.force_algorithm = AnyKAlgorithm::kPartLazy;
  ASSERT_TRUE(engine.Execute(t.db, t.query, max_rank).ok());
  ASSERT_TRUE(engine.Explain(t.db, t.query, {}, forced).ok());
  EXPECT_EQ(engine.GetPlanCacheStats().builds, 3u);
  EXPECT_EQ(misses->value(), misses_before + 1);  // same (db, version)
  EXPECT_EQ(hits->value(), hits_before + 2);

  // Mutating the database bumps its version: the next plan rebuilds.
  Rng rng(123);
  t.db.Add(UniformBinaryRelation("fresh", 10, 4, rng));
  ASSERT_TRUE(engine.Explain(t.db, t.query).ok());
  EXPECT_EQ(misses->value(), misses_before + 2);
}

// ---------------------------------------------------------------- caches

std::vector<double> Costs(const std::vector<RankedResult>& results) {
  std::vector<double> costs;
  for (const RankedResult& r : results) costs.push_back(r.cost);
  return costs;
}

int64_t PreprocessingWork(const JoinStats& stats) {
  return stats.intermediate_tuples + stats.output_tuples + stats.probes +
         stats.comparisons;
}

void ExpectCosts(const std::vector<double>& got,
                 const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-9) << "rank " << i;
  }
}

TEST(EngineCacheTest, RepeatExecuteHitsPlanAndArtifactCaches) {
  Instance t = MakePathInstance(3, 40, 4, 7);
  Engine engine;
  Counter* tdp_builds = MetricsRegistry::Global().GetCounter("tdp.builds");
  ExecutionOptions opts;
  opts.collect_trace = true;

  auto cold = engine.Execute(t.db, t.query, {}, opts);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.value().trace->plan_cache_hit);
  EXPECT_FALSE(cold.value().trace->artifact_cache_hit);
  EXPECT_GT(PreprocessingWork(cold.value().preprocessing), 0);

  const int64_t builds_before = tdp_builds->value();
  auto warm = engine.Execute(t.db, t.query, {}, opts);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().trace->plan_cache_hit);
  EXPECT_TRUE(warm.value().trace->artifact_cache_hit);
  EXPECT_EQ(tdp_builds->value(), builds_before);  // no T-DP rebuilt
  // preprocessing counts only this call's work: none on a hit.
  EXPECT_EQ(PreprocessingWork(warm.value().preprocessing), 0);
  EXPECT_EQ(engine.GetPlanCacheStats().builds, 1u);
  EXPECT_EQ(engine.GetArtifactCacheStats().builds, 1u);
  EXPECT_EQ(warm.value().plan.strategy, cold.value().plan.strategy);

  const std::vector<double> want = OracleSortedCosts(t);
  ExpectCosts(Costs(Drain(cold.value().stream.get())), want);
  ExpectCosts(Costs(Drain(warm.value().stream.get())), want);
}

TEST(EngineCacheTest, BarrierMutationRebuilds) {
  Instance t = MakePathInstance(2, 25, 4, 9);
  Engine engine;
  ASSERT_TRUE(engine.Execute(t.db, t.query).ok());

  // A barrier mutation: the delta log cannot describe it, so neither
  // cached entry can be patched.
  t.db.mutable_relation(t.query.atom(0).relation)->AddTuple({0, 0}, 0.5);
  auto after = engine.Execute(t.db, t.query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(engine.GetPlanCacheStats().builds, 2u);
  EXPECT_EQ(engine.GetArtifactCacheStats().builds, 2u);
  EXPECT_EQ(engine.GetArtifactCacheStats().patches, 0u);
  EXPECT_GT(PreprocessingWork(after.value().preprocessing), 0);
  ExpectCosts(Costs(Drain(after.value().stream.get())), OracleSortedCosts(t));
}

TEST(EngineCacheTest, ExplainThenOpenCursorPlansOnce) {
  Instance t = MakePathInstance(3, 30, 4, 5);
  Engine engine;
  ASSERT_TRUE(engine.Explain(t.db, t.query).ok());
  EXPECT_EQ(engine.GetPlanCacheStats().builds, 1u);
  EXPECT_EQ(engine.GetArtifactCacheStats().builds, 0u);  // plan only

  ExecutionOptions opts;
  opts.collect_trace = true;
  auto cursor = engine.OpenCursor(t.db, t.query, {}, opts);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(engine.GetPlanCacheStats().builds, 1u);  // PlanQuery ran once
  EXPECT_EQ(engine.GetPlanCacheStats().hits, 1u);
  EXPECT_TRUE(cursor.value()->trace()->plan_cache_hit);
}

// A 4-cycle over one Zipf-skewed edge relation whose sampled output
// estimate (~64) is ~165x below the true output (10571).
Instance MakeSkewedFourCycleInstance() {
  Instance t;
  Rng rng(2);
  const RelationId e =
      t.db.Add(SkewedBinaryRelation("E", 2000, 200, 1.3, rng));
  t.query = FourCycleQuery(e);
  return t;
}

std::vector<double> HeadCosts(RankedIterator* stream, size_t n) {
  std::vector<double> costs;
  while (costs.size() < n) {
    auto r = stream->Next();
    if (!r.has_value()) break;
    costs.push_back(r->cost);
  }
  return costs;
}

// The tree algorithm is a function of the request alone. Each k class
// routes the same way on a skewed 4-cycle whose estimate is far off and
// on a path, whatever the estimate says: on both, k = 129 is at least
// half the estimated output, where an estimate-driven rule would batch.
// Forced requests keep their own plan. Requests whose k lands in one
// class share one plan and one T-DP artifact.
TEST(PlannerTest, KClassRoutesWhateverTheEstimate) {
  std::vector<Instance> instances;
  instances.push_back(MakeSkewedFourCycleInstance());
  instances.push_back(MakePathInstance(2, 20, 8, 7));
  struct Route {
    std::optional<size_t> k;
    AnyKAlgorithm algorithm;
  };
  const std::vector<Route> routes = {{std::nullopt, AnyKAlgorithm::kRec},
                                     {10, AnyKAlgorithm::kPartTake2},
                                     {129, AnyKAlgorithm::kRec},
                                     {size_t{1} << 22, AnyKAlgorithm::kRec}};
  for (const Instance& t : instances) {
    Engine engine;
    for (const Route& route : routes) {
      ExecutionOptions opts;
      opts.k = route.k;
      const auto plan = engine.Explain(t.db, t.query, {}, opts);
      ASSERT_TRUE(plan.ok());
      EXPECT_EQ(plan.value().algorithm, route.algorithm)
          << "k=" << route.k.value_or(0);
      EXPECT_NE(plan.value().strategy, PlanStrategy::kBatchSort);
      EXPECT_LE(plan.value().estimated_output, 2.0 * 129);
    }
    // Unset, 129 and 2^22 share the kRec plan; 10 has its own.
    EXPECT_EQ(engine.GetPlanCacheStats().builds, 2u);
    ExecutionOptions forced;
    forced.k = 10;
    forced.force_algorithm = AnyKAlgorithm::kPartTake2;
    ASSERT_TRUE(engine.Explain(t.db, t.query, {}, forced).ok());
    EXPECT_EQ(engine.GetPlanCacheStats().builds, 3u);

    Engine fresh;
    ExecutionOptions k200;
    k200.k = 200;
    ExecutionOptions k10000;
    k10000.k = 10000;
    ASSERT_TRUE(fresh.Execute(t.db, t.query, {}, k200).ok());
    auto deep = fresh.Execute(t.db, t.query, {}, k10000);
    ASSERT_TRUE(deep.ok());
    EXPECT_EQ(fresh.GetPlanCacheStats().builds, 1u);
    EXPECT_EQ(fresh.GetArtifactCacheStats().builds, 1u);

    ExecutionOptions batch = k10000;
    batch.force_algorithm = AnyKAlgorithm::kBatch;
    auto reference = fresh.Execute(t.db, t.query, {}, batch);
    ASSERT_TRUE(reference.ok());
    ExpectCosts(HeadCosts(deep.value().stream.get(), 10000),
                HeadCosts(reference.value().stream.get(), 10000));
  }
}

// Streams hold their artifact, not the Engine: a stream minted from a
// cached artifact drains exactly after the Engine (and its caches) are
// gone. The 4-cycle's merged stream holds only its case streams, and
// each of those holds its own case artifact -- tree or batch replay.
TEST(EngineCacheTest, CachedStreamDrainsAfterEngineIsDestroyed) {
  ExecutionOptions batch;
  batch.force_algorithm = AnyKAlgorithm::kBatch;
  struct Input {
    Instance instance;
    ExecutionOptions opts;
  };
  std::vector<Input> inputs;
  inputs.push_back({MakePathInstance(3, 40, 4, 3), {}});
  inputs.push_back({MakePathInstance(3, 40, 4, 3), batch});
  inputs.push_back({MakeFourCycleInstance(40, 6, 3), {}});
  inputs.push_back({MakeFourCycleInstance(40, 6, 3), batch});
  for (const Input& input : inputs) {
    const Instance& t = input.instance;
    std::unique_ptr<RankedIterator> stream;
    {
      Engine engine;
      ASSERT_TRUE(engine.Execute(t.db, t.query, {}, input.opts).ok());
      auto warm = engine.Execute(t.db, t.query, {}, input.opts);
      ASSERT_TRUE(warm.ok());
      ASSERT_EQ(engine.GetArtifactCacheStats().hits, 1u);
      stream = std::move(warm.value().stream);
    }
    ExpectCosts(Costs(Drain(stream.get())), OracleSortedCosts(t));
  }
}

}  // namespace
}  // namespace topkjoin
