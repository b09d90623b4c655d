// Tests for serving/: the worker pool, the sharded cursor table, session
// budget accounting, DrainAll round-robin draining, and -- the point of
// the layer -- a concurrency stress test: many client threads opening,
// fetching, extending, and closing cursors at once, with every
// per-cursor stream checked for loss, duplication, and rank order, and
// every session budget checked for overspend. Run under TSAN in CI.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/delta.h"
#include "src/engine/engine.h"
#include "src/obs/instrumented_iterator.h"
#include "src/obs/metrics.h"
#include "src/serving/serving_engine.h"
#include "src/serving/session.h"
#include "src/serving/sharded_cursor_table.h"
#include "src/serving/worker_pool.h"
#include "src/util/mutex.h"
#include "src/util/rng.h"
#include "tests/test_instances.h"

namespace topkjoin {
namespace {

using testing_fixtures::Instance;
using testing_fixtures::JoiningDelta;
using testing_fixtures::MakePathInstance;
using testing_fixtures::MakeStarInstance;
using testing_fixtures::OracleSortedCosts;

void ExpectSameCosts(const std::vector<double>& got,
                     const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-9) << what << " rank " << i;
  }
}

// ----------------------------------------------------------- worker pool

TEST(WorkerPoolTest, RunsEveryTaskAndWaitsIdle) {
  WorkerPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 100);
}

TEST(WorkerPoolTest, InlineModeRunsOnCallingThread) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  std::thread::id runner;
  pool.Submit([&runner] { runner = std::this_thread::get_id(); });
  EXPECT_EQ(runner, std::this_thread::get_id());
  pool.WaitIdle();  // trivially idle
}

TEST(WorkerPoolTest, InlineModeSelfRequeueIsIterativeAndFifo) {
  // A task chain deep enough to smash the stack if Submit recursed.
  WorkerPool pool(0);
  int remaining = 200000;
  std::function<void()> step = [&] {
    if (--remaining > 0) pool.Submit(step);
  };
  pool.Submit(step);
  EXPECT_EQ(remaining, 0);

  // FIFO: tasks submitted from inside a draining task run after the
  // tasks that were already queued (tail admission = fairness).
  std::vector<int> order;
  pool.Submit([&] {
    pool.Submit([&] { order.push_back(2); });
    order.push_back(1);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(WorkerPoolTest, DestructorDrainsSubmittedTasks) {
  std::atomic<int> done{0};
  {
    WorkerPool pool(2);
    for (int i = 0; i < 50; ++i) pool.Submit([&done] { done.fetch_add(1); });
  }
  EXPECT_EQ(done.load(), 50);
}

// -------------------------------------------------------------- sessions

TEST(SessionTest, ReserveSettleNeverOverspends) {
  SessionBudget budget;
  budget.work_budget = 10;
  Session session(budget);
  EXPECT_EQ(session.ReserveWork(4), 4u);
  EXPECT_EQ(session.ReserveWork(100), 6u);  // partial grant
  EXPECT_EQ(session.ReserveWork(1), 0u);    // dry
  EXPECT_TRUE(session.Dry());
  session.SettleWork(4, 4);
  session.SettleWork(6, 2);  // 4 units refunded
  EXPECT_FALSE(session.Dry());
  EXPECT_EQ(session.Stats().work_spent, 6u);
  EXPECT_EQ(session.ReserveWork(100), 4u);  // exactly the refund
}

TEST(SessionTest, UnlimitedBudgetGrantsEverything) {
  Session session(SessionBudget{});
  EXPECT_EQ(session.ReserveResults(1u << 20), 1u << 20);
  session.SettleResults(1u << 20, 17);
  EXPECT_FALSE(session.Dry());
  EXPECT_EQ(session.Stats().results_spent, 17u);
}

// A SIZE_MAX-ish grant saturates: it must neither wrap the remaining
// budget around nor land on the unlimited sentinel (which would turn a
// metered session into an unmetered one).
TEST(SessionTest, HugeExtendSaturatesWithoutUnmetering) {
  SessionBudget budget;
  budget.work_budget = 1;
  Session session(budget);
  EXPECT_EQ(session.ReserveWork(1), 1u);
  EXPECT_TRUE(session.Dry());
  session.ExtendBudgets(0, SIZE_MAX);
  EXPECT_FALSE(session.Dry());
  // Still metered: the grant was clamped just below the sentinel.
  EXPECT_EQ(session.ReserveWork(SIZE_MAX), SIZE_MAX - 1);
}

TEST(SessionTest, ExtendBudgetsRestoresHeadroom) {
  SessionBudget budget;
  budget.result_budget = 2;
  Session session(budget);
  EXPECT_EQ(session.ReserveResults(5), 2u);
  session.SettleResults(2, 2);
  EXPECT_TRUE(session.Dry());
  session.ExtendBudgets(/*extra_results=*/3, /*extra_work=*/0);
  EXPECT_FALSE(session.Dry());
  EXPECT_EQ(session.ReserveResults(5), 3u);
}

// ---------------------------------------------------- sharded table

TEST(ShardedCursorTableTest, InsertFindEraseAcrossStripes) {
  Instance t = MakePathInstance(2, 20, 4, 1);
  Engine engine;
  ShardedCursorTable table(/*num_stripes=*/4);
  auto session = std::make_shared<Session>(SessionBudget{});

  std::vector<CursorId> ids;
  for (int i = 0; i < 10; ++i) {
    auto result = engine.Execute(t.db, t.query);
    ASSERT_TRUE(result.ok());
    ids.push_back(table.Insert(
        std::make_unique<Cursor>(std::move(result.value().stream),
                                 CursorOptions{}),
        session));
  }
  EXPECT_EQ(table.NumCursors(), 10u);
  EXPECT_EQ(table.Ids(), ids);  // allocated increasing, reported sorted

  size_t visited = 0;
  EXPECT_TRUE(table.WithCursor(ids[3], [&](Cursor& cursor, Session& s) {
    EXPECT_EQ(&s, session.get());
    EXPECT_FALSE(cursor.Done());
    ++visited;
  }));
  EXPECT_EQ(visited, 1u);

  EXPECT_EQ(table.Erase(ids[0]).get(), session.get());
  EXPECT_EQ(table.Erase(ids[0]), nullptr);  // already gone
  EXPECT_FALSE(table.WithCursor(ids[0], [](Cursor&, Session&) {}));
  EXPECT_EQ(table.EraseOwnedBy(session.get()), 9u);
  EXPECT_EQ(table.NumCursors(), 0u);
}

// ------------------------------------------------- cursor stats contract

// The satellite contract behind ServingEngine's monitoring: one thread
// may pull a cursor while another reads its counters, with no lock.
// Run under TSAN this validates the Cursor atomics.
TEST(CursorStatsTest, CountersReadableWhileAnotherThreadPulls) {
  Instance t = MakePathInstance(3, 40, 4, 9);
  Engine engine;
  auto opened = engine.OpenCursor(t.db, t.query);
  ASSERT_TRUE(opened.ok());
  Cursor* cursor = opened.value().get();

  // Each counter is individually consistent (monotone); cursor.h
  // explicitly does not promise mutual consistency between the two, so
  // no cross-counter invariant is asserted here.
  std::atomic<bool> stop{false};
  size_t last_emitted = 0;
  size_t last_work = 0;
  std::thread stats([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const size_t emitted = cursor->results_emitted();
      const size_t work = cursor->work_used();
      EXPECT_GE(emitted, last_emitted);
      EXPECT_GE(work, last_work);
      last_emitted = emitted;
      last_work = work;
    }
  });
  size_t total = 0;
  while (cursor->Next().has_value()) ++total;
  stop.store(true, std::memory_order_release);
  stats.join();

  EXPECT_EQ(cursor->state(), CursorState::kExhausted);
  EXPECT_EQ(cursor->results_emitted(), total);
  // Work is charged in measured pipeline units with a one-unit floor, so
  // the drain (including the final exhaustion probe) costs at least one
  // unit per pull.
  EXPECT_GE(cursor->work_used(), total + 1);
}

// -------------------------------------------------- serving engine basics

TEST(ServingEngineTest, FetchMatchesGroundTruthSliceBySlice) {
  Instance t = MakePathInstance(3, 40, 4, 7);
  const auto want = OracleSortedCosts(t);

  ServingOptions options;
  options.num_workers = 2;
  ServingEngine serving(options);
  const SessionId session = serving.OpenSession();
  auto id = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(id.ok());

  std::vector<double> got;
  while (true) {
    auto outcome = serving.Fetch(id.value(), 3);
    ASSERT_TRUE(outcome.ok());
    for (const RankedResult& r : outcome.value().results) {
      got.push_back(r.cost);
    }
    EXPECT_FALSE(outcome.value().session_dry);
    if (outcome.value().cursor_state != CursorState::kActive) break;
  }
  ExpectSameCosts(got, want, "sliced fetch");
  EXPECT_TRUE(serving.CloseCursor(id.value()).ok());
  EXPECT_FALSE(serving.CloseCursor(id.value()).ok());
  EXPECT_TRUE(serving.CloseSession(session).ok());
}

// Fetch(id, SIZE_MAX) is the "drain the rest" sentinel; on an unlimited
// session it must actually drain (regression: the work reservation used
// to overflow to zero and report spurious session dryness).
TEST(ServingEngineTest, DrainTheRestFetchOnUnlimitedSession) {
  Instance t = MakePathInstance(3, 40, 4, 7);
  ServingEngine serving;
  const SessionId session = serving.OpenSession();
  auto id = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(id.ok());

  auto outcome = serving.Fetch(id.value(), SIZE_MAX);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome.value().session_dry);
  EXPECT_EQ(outcome.value().cursor_state, CursorState::kExhausted);
  std::vector<double> got;
  for (const RankedResult& r : outcome.value().results) got.push_back(r.cost);
  ExpectSameCosts(got, OracleSortedCosts(t), "drain-the-rest");
}

TEST(ServingEngineTest, ErrorsOnUnknownIds) {
  ServingEngine serving;
  EXPECT_FALSE(serving.OpenCursor(99, Database{}, ConjunctiveQuery{}).ok());
  EXPECT_FALSE(serving.Fetch(42, 1).ok());
  EXPECT_FALSE(serving.CloseCursor(42).ok());
  EXPECT_FALSE(serving.CloseSession(99).ok());
  EXPECT_FALSE(serving.ExtendSessionBudgets(99, 1, 1).ok());
  EXPECT_FALSE(serving.GetSessionStats(99).ok());
}

TEST(ServingEngineTest, CloseSessionSweepsItsCursors) {
  Instance t = MakePathInstance(2, 20, 4, 3);
  ServingEngine serving;
  const SessionId a = serving.OpenSession();
  const SessionId b = serving.OpenSession();
  auto ca = serving.OpenCursor(a, t.db, t.query);
  auto cb = serving.OpenCursor(b, t.db, t.query);
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(cb.ok());
  EXPECT_EQ(serving.NumOpenCursors(), 2u);

  ASSERT_TRUE(serving.CloseSession(a).ok());
  EXPECT_EQ(serving.NumOpenCursors(), 1u);
  EXPECT_FALSE(serving.Fetch(ca.value(), 1).ok());  // swept
  EXPECT_TRUE(serving.Fetch(cb.value(), 1).ok());   // untouched
}

// Deterministic clock for the idle-eviction tests: a settable "now"
// injected via SetIdleClockForTesting, so no test depends on wall-clock
// sleeps or scheduler timing (TSAN CI runners deschedule freely).
std::atomic<int64_t>& FakeClockSeconds() {
  static std::atomic<int64_t> seconds{0};
  return seconds;
}

std::chrono::steady_clock::time_point FakeNow() {
  return std::chrono::steady_clock::time_point(
      std::chrono::seconds(FakeClockSeconds().load()));
}

// The ROADMAP cursor-leak fix: a client that never calls CloseSession
// or CloseCursor no longer leaks table entries forever -- an operator
// sweep evicts cursors by idle time, while recently-touched cursors
// survive and keep their exact stream position.
TEST(ServingEngineTest, EvictIdleCursorsReapsOnlyStaleEntries) {
  Instance t = MakePathInstance(3, 30, 4, 3);
  const auto want = OracleSortedCosts(t);
  ServingEngine serving;
  serving.SetIdleClockForTesting(&FakeNow);
  FakeClockSeconds() = 1000;
  const SessionId session = serving.OpenSession();
  auto stale = serving.OpenCursor(session, t.db, t.query);
  auto live = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(stale.ok());
  ASSERT_TRUE(live.ok());
  ASSERT_EQ(serving.NumOpenCursors(), 2u);

  // Nothing is idle yet: a generous cutoff evicts nothing.
  EXPECT_EQ(serving.EvictIdleCursors(std::chrono::hours(1)), 0u);

  // Thirty (fake) seconds later, touch only `live`: a sweep with a
  // 20-second cutoff reaps exactly the stale cursor.
  FakeClockSeconds() = 1030;
  auto first = serving.Fetch(live.value(), 2);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().results.size(), 2u);

  EXPECT_EQ(serving.EvictIdleCursors(std::chrono::seconds(20)), 1u);
  EXPECT_EQ(serving.NumOpenCursors(), 1u);
  EXPECT_FALSE(serving.Fetch(stale.value(), 1).ok());  // evicted
  const auto stats = serving.GetSessionStats(session);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().open_cursors, 1u);  // bookkeeping settled

  // The survivor resumes exactly where it left off.
  auto more = serving.Fetch(live.value(), 1);
  ASSERT_TRUE(more.ok());
  ASSERT_EQ(more.value().results.size(), 1u);
  ASSERT_GE(want.size(), 3u);
  EXPECT_NEAR(more.value().results[0].cost, want[2], 1e-9);

  // An idle-evicted id behaves exactly like a closed one.
  EXPECT_FALSE(serving.CloseCursor(stale.value()).ok());
  EXPECT_TRUE(serving.CloseCursor(live.value()).ok());
}

// PR 3: cyclic queries under non-SUM dioids plan end to end, so the
// serving layer accepts them too -- budgeted, resumable, rank-correct.
TEST(ServingEngineTest, ServesCyclicQueriesUnderEveryDioid) {
  testing_fixtures::Instance t =
      testing_fixtures::MakeTriangleInstance(20, 4, 7);
  ServingEngine serving;
  const SessionId session = serving.OpenSession();
  for (const CostModelKind kind :
       {CostModelKind::kSum, CostModelKind::kMax, CostModelKind::kProd,
        CostModelKind::kLex}) {
    RankingSpec ranking;
    ranking.model = kind;
    auto id = serving.OpenCursor(session, t.db, t.query, ranking);
    ASSERT_TRUE(id.ok()) << CostModelName(kind);
    std::vector<double> costs;
    while (true) {
      auto slice = serving.Fetch(id.value(), 3);
      ASSERT_TRUE(slice.ok()) << CostModelName(kind);
      if (slice.value().results.empty()) break;
      for (const RankedResult& r : slice.value().results) {
        costs.push_back(r.cost);
      }
    }
    for (size_t i = 1; i < costs.size(); ++i) {
      EXPECT_LE(costs[i - 1], costs[i] + 1e-9)
          << CostModelName(kind) << " rank " << i;
    }
    EXPECT_TRUE(serving.CloseCursor(id.value()).ok());
  }
}

TEST(ServingEngineTest, SubmitFetchDeliversViaCallback) {
  Instance t = MakePathInstance(3, 40, 4, 7);
  const auto want = OracleSortedCosts(t);
  ASSERT_GE(want.size(), 5u);

  ServingOptions options;
  options.num_workers = 2;
  ServingEngine serving(options);
  const SessionId session = serving.OpenSession();
  auto id = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(id.ok());

  Mutex mu;
  CondVar cv;
  std::vector<double> got;
  bool delivered = false;
  serving.SubmitFetch(id.value(), 5,
                      [&](CursorId cb_id, StatusOr<FetchOutcome> outcome) {
                        MutexLock lock(&mu);
                        EXPECT_EQ(cb_id, id.value());
                        ASSERT_TRUE(outcome.ok());
                        for (const RankedResult& r :
                             outcome.value().results) {
                          got.push_back(r.cost);
                        }
                        delivered = true;
                        cv.NotifyAll();
                      });
  MutexLock lock(&mu);
  while (!delivered) cv.Wait(&mu);
  ExpectSameCosts(got, {want.begin(), want.begin() + 5}, "async slice");
}

// ------------------------------------------------------------- drain-all

void DrainAllMatchesOracle(size_t num_workers) {
  std::vector<Instance> instances;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    instances.push_back(MakePathInstance(3, 30, 4, seed));
    instances.push_back(MakeStarInstance(25, 4, seed));
  }

  ServingOptions options;
  options.num_workers = num_workers;
  ServingEngine serving(options);
  const SessionId session = serving.OpenSession();
  std::vector<CursorId> ids;
  for (const Instance& t : instances) {
    auto id = serving.OpenCursor(session, t.db, t.query);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }

  const auto streams = serving.DrainAll(/*results_per_slice=*/2);
  for (size_t i = 0; i < instances.size(); ++i) {
    const auto it = streams.find(ids[i]);
    ASSERT_NE(it, streams.end()) << "cursor " << i;
    std::vector<double> got;
    for (const RankedResult& r : it->second) got.push_back(r.cost);
    ExpectSameCosts(got, OracleSortedCosts(instances[i]), "drained stream");
  }
  // Cursors stay open (exhausted) after a drain until closed.
  EXPECT_EQ(serving.NumOpenCursors(), ids.size());
}

TEST(ServingEngineTest, DrainAllMatchesOracleWithWorkers) {
  DrainAllMatchesOracle(/*num_workers=*/4);
}

TEST(ServingEngineTest, DrainAllMatchesOracleInline) {
  DrainAllMatchesOracle(/*num_workers=*/0);
}

TEST(ServingEngineTest, DrainAllOnEmptyTableReturnsNothing) {
  ServingEngine serving;
  EXPECT_TRUE(serving.DrainAll(4).empty());
}

// One full drain's session work spend for the instance -- the unit the
// work-proportional budget tests below calibrate against (session work
// is charged in pipeline work units, which depend on the plan, not on
// the result count alone).
size_t MeasureFullDrainWork(const Instance& t) {
  ServingOptions options;
  options.num_workers = 0;
  ServingEngine serving(options);
  const SessionId session = serving.OpenSession();
  auto id = serving.OpenCursor(session, t.db, t.query);
  EXPECT_TRUE(id.ok());
  EXPECT_TRUE(serving.Fetch(id.value(), SIZE_MAX).ok());
  const auto stats = serving.GetSessionStats(session);
  EXPECT_TRUE(stats.ok());
  return stats.value().work_spent;
}

// Inline mode must follow the same round-robin admission as the
// threaded modes (regression: the first cursor's slice chain used to
// run depth-first to completion, eating a shared session budget alone).
TEST(ServingEngineTest, InlineDrainAllSharesBudgetRoundRobin) {
  Instance t = MakePathInstance(3, 40, 4, 11);
  const size_t total = OracleSortedCosts(t).size();
  ASSERT_GT(total, 20u);
  const size_t full_drain_work = MeasureFullDrainWork(t);

  // Enough budget for roughly one cursor's full drain, shared by two
  // identical cursors: fair alternating slices must split it, not feed
  // the first cursor to completion.
  SessionBudget budget;
  budget.work_budget = full_drain_work;
  ServingOptions options;
  options.num_workers = 0;
  ServingEngine serving(options);
  const SessionId session = serving.OpenSession(budget);
  auto c1 = serving.OpenCursor(session, t.db, t.query);
  auto c2 = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());

  const auto streams = serving.DrainAll(/*results_per_slice=*/3);
  const auto s1 = streams.find(c1.value());
  const auto s2 = streams.find(c2.value());
  ASSERT_NE(s1, streams.end());
  ASSERT_NE(s2, streams.end());
  // Neither stream finished (the budget covers ~one drain, split two
  // ways), both made real progress, and -- the round-robin pin -- the
  // identical cursors advanced in lockstep, within one slice of each
  // other (plus one slice of slack for the dry-stop corner).
  EXPECT_LT(s1->second.size(), total);
  EXPECT_LT(s2->second.size(), total);
  EXPECT_GE(s1->second.size(), 3u);
  EXPECT_GE(s2->second.size(), 3u);
  const size_t diff = s1->second.size() > s2->second.size()
                          ? s1->second.size() - s2->second.size()
                          : s2->second.size() - s1->second.size();
  EXPECT_LE(diff, 6u);
  const auto stats = serving.GetSessionStats(session);
  ASSERT_TRUE(stats.ok());
  EXPECT_LE(stats.value().work_spent, full_drain_work);  // never overspent
}

// -------------------------------------------------------- session budgets

TEST(ServingEngineTest, SessionWorkBudgetCutsAllCursorsCollectively) {
  Instance t = MakePathInstance(3, 40, 4, 11);
  const size_t total = OracleSortedCosts(t).size();
  ASSERT_GT(total, 20u);
  const size_t full_drain_work = MeasureFullDrainWork(t);

  SessionBudget budget;
  budget.work_budget = full_drain_work / 2;
  ServingEngine serving;
  const SessionId session = serving.OpenSession(budget);
  auto c1 = serving.OpenCursor(session, t.db, t.query);
  auto c2 = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());

  const auto streams = serving.DrainAll(/*results_per_slice=*/3);
  size_t produced = 0;
  for (const auto& [id, results] : streams) produced += results.size();
  // Half of one drain's work shared by two cursors cannot finish both...
  EXPECT_LT(produced, total * 2);
  EXPECT_GT(produced, 0u);
  const auto stats = serving.GetSessionStats(session);
  ASSERT_TRUE(stats.ok());
  EXPECT_LE(stats.value().work_spent, full_drain_work / 2);  // no overspend

  // Both cursors report the stop as session dryness, not exhaustion.
  auto outcome = serving.Fetch(c1.value(), 5);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().results.empty());
  EXPECT_TRUE(outcome.value().session_dry);
  EXPECT_EQ(outcome.value().cursor_state, CursorState::kActive);

  // Extending the session budget resumes exactly where it stopped:
  // grant two full drains' worth (plus slack for the per-pull ante and
  // the carried mid-pull debt) and everything completes.
  ASSERT_TRUE(serving
                  .ExtendSessionBudgets(
                      session, 0,
                      /*extra_work=*/2 * (full_drain_work + total + 2))
                  .ok());
  const auto rest = serving.DrainAll(/*results_per_slice=*/3);
  size_t remainder = 0;
  for (const auto& [id, results] : rest) remainder += results.size();
  EXPECT_EQ(produced + remainder, total * 2);
}

// The work-proportional accounting pin: session spend tracks the
// pipeline's own WorkUnits counter (every unit charged), with at most
// the one-unit per-pull ante on top -- not one flat unit per pull.
TEST(ServingEngineTest, SessionWorkSpendIsPipelineWorkProportional) {
  Instance t = MakePathInstance(3, 40, 4, 7);
  // Reference: the identical plan's pipeline work over a full drain.
  Engine engine;
  auto ref = engine.Execute(t.db, t.query);
  ASSERT_TRUE(ref.ok());
  size_t results = 0;
  while (ref.value().stream->Next().has_value()) ++results;
  const auto pipeline_units =
      static_cast<size_t>(ref.value().stream->WorkUnits());
  ASSERT_GT(results, 0u);
  ASSERT_GT(pipeline_units, results);  // deep pulls cost more than 1

  ServingEngine serving;
  const SessionId session = serving.OpenSession();
  auto id = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(id.ok());
  auto outcome = serving.Fetch(id.value(), SIZE_MAX);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().results.size(), results);
  const auto stats = serving.GetSessionStats(session);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.value().work_spent, pipeline_units);
  EXPECT_LE(stats.value().work_spent, pipeline_units + results + 1);
}

// Mid-pull dryness carries the uncovered units as cursor debt: the
// budget ledger is never overspent, and after an extension the debt is
// paid before new pulls so the resumed stream is exact and complete.
TEST(ServingEngineTest, WorkDebtCarriesAcrossSlicesWithoutOverspend) {
  Instance t = MakePathInstance(3, 40, 4, 13);
  const auto want = OracleSortedCosts(t);
  ASSERT_GT(want.size(), 10u);
  const size_t full_drain_work = MeasureFullDrainWork(t);

  SessionBudget budget;
  budget.work_budget = full_drain_work / 3;
  ServingEngine serving;
  const SessionId session = serving.OpenSession(budget);
  auto id = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(id.ok());

  auto first = serving.Fetch(id.value(), SIZE_MAX);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().session_dry);
  EXPECT_LT(first.value().results.size(), want.size());
  auto stats = serving.GetSessionStats(session);
  ASSERT_TRUE(stats.ok());
  EXPECT_LE(stats.value().work_spent, full_drain_work / 3);

  ASSERT_TRUE(serving
                  .ExtendSessionBudgets(session, 0,
                                        2 * full_drain_work + want.size())
                  .ok());
  auto rest = serving.Fetch(id.value(), SIZE_MAX);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest.value().cursor_state, CursorState::kExhausted);

  std::vector<double> got;
  for (const RankedResult& r : first.value().results) got.push_back(r.cost);
  for (const RankedResult& r : rest.value().results) got.push_back(r.cost);
  ExpectSameCosts(got, want, "debt-resumed stream");
}

TEST(ServingEngineTest, SessionResultBudgetIsSharedAcrossCursors) {
  Instance t = MakePathInstance(3, 40, 4, 11);
  SessionBudget budget;
  budget.result_budget = 7;
  ServingEngine serving;
  const SessionId session = serving.OpenSession(budget);
  auto c1 = serving.OpenCursor(session, t.db, t.query);
  auto c2 = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());

  const auto streams = serving.DrainAll(/*results_per_slice=*/2);
  size_t produced = 0;
  for (const auto& [id, results] : streams) produced += results.size();
  EXPECT_EQ(produced, 7u);
  const auto stats = serving.GetSessionStats(session);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().results_spent, 7u);
}

// One starved session must not stall others draining alongside it.
TEST(ServingEngineTest, BudgetedSessionDoesNotStarveOthers) {
  Instance t = MakePathInstance(3, 40, 4, 5);
  const auto want = OracleSortedCosts(t);

  SessionBudget tight;
  tight.work_budget = 4;
  ServingOptions options;
  options.num_workers = 2;
  ServingEngine serving(options);
  const SessionId starved = serving.OpenSession(tight);
  const SessionId healthy = serving.OpenSession();
  auto cs = serving.OpenCursor(starved, t.db, t.query);
  auto ch = serving.OpenCursor(healthy, t.db, t.query);
  ASSERT_TRUE(cs.ok());
  ASSERT_TRUE(ch.ok());

  const auto streams = serving.DrainAll(/*results_per_slice=*/2);
  const auto healthy_it = streams.find(ch.value());
  ASSERT_NE(healthy_it, streams.end());
  std::vector<double> got;
  for (const RankedResult& r : healthy_it->second) got.push_back(r.cost);
  ExpectSameCosts(got, want, "healthy session stream");

  const auto stats = serving.GetSessionStats(starved);
  ASSERT_TRUE(stats.ok());
  EXPECT_LE(stats.value().work_spent, 4u);
}

// ------------------------------------------------------ concurrency storm

// The satellite stress test: many client threads open/fetch/extend/close
// cursors concurrently against one ServingEngine. Every fully drained
// cursor's stream must equal the oracle (no loss, no duplication, rank
// order); every session budget must end within bounds.
TEST(ServingStressTest, ConcurrentClientsSeeExactRankedStreams) {
  constexpr size_t kClientThreads = 8;
  constexpr size_t kCursorsPerThread = 6;

  // Shared read-only instances + their oracles.
  std::vector<Instance> instances;
  instances.push_back(MakePathInstance(3, 30, 4, 1));
  instances.push_back(MakePathInstance(2, 40, 5, 2));
  instances.push_back(MakeStarInstance(25, 4, 3));
  instances.push_back(MakePathInstance(4, 15, 3, 4));
  std::vector<std::vector<double>> oracles;
  oracles.reserve(instances.size());
  for (const Instance& t : instances) oracles.push_back(OracleSortedCosts(t));

  ServingOptions options;
  options.num_workers = 4;
  ServingEngine serving(options);

  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (size_t thread_idx = 0; thread_idx < kClientThreads; ++thread_idx) {
    clients.emplace_back([&, thread_idx] {
      Rng rng(1000 + thread_idx);
      const SessionId session = serving.OpenSession();
      for (size_t c = 0; c < kCursorsPerThread; ++c) {
        const size_t which = rng.NextBounded(instances.size());
        const Instance& t = instances[which];
        const std::vector<double>& want = oracles[which];

        // Half the cursors carry a per-cursor work budget that must be
        // topped up mid-stream (exercising ExtendCursorBudgets).
        CursorOptions limits;
        const bool budgeted = rng.NextBounded(2) == 0;
        if (budgeted) limits.work_budget = 5;
        auto id = serving.OpenCursor(session, t.db, t.query, {}, {}, limits);
        if (!id.ok()) {
          failures.fetch_add(1);
          continue;
        }

        std::vector<double> got;
        while (true) {
          auto outcome =
              serving.Fetch(id.value(), 1 + rng.NextBounded(4));
          if (!outcome.ok()) {
            failures.fetch_add(1);
            break;
          }
          for (const RankedResult& r : outcome.value().results) {
            got.push_back(r.cost);
          }
          const CursorState state = outcome.value().cursor_state;
          if (state == CursorState::kWorkBudgetHit) {
            if (!serving.ExtendCursorBudgets(id.value(), 0, 50).ok()) {
              failures.fetch_add(1);
              break;
            }
            continue;
          }
          if (state != CursorState::kActive) break;
        }

        // Exact differential check against the oracle.
        if (got.size() != want.size()) {
          failures.fetch_add(1);
        } else {
          for (size_t i = 0; i < got.size(); ++i) {
            if (std::abs(got[i] - want[i]) > 1e-9) {
              failures.fetch_add(1);
              break;
            }
          }
        }
        if (!serving.CloseCursor(id.value()).ok()) failures.fetch_add(1);
      }
      if (!serving.CloseSession(session).ok()) failures.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(serving.NumOpenCursors(), 0u);
  EXPECT_EQ(serving.NumOpenSessions(), 0u);
}

// Same storm, but with finite session budgets and deliberately
// abandoned cursors: budgets must never be overspent even while slices
// race, and CloseSession must sweep whatever the clients left behind.
TEST(ServingStressTest, ConcurrentBudgetedSessionsNeverOverspend) {
  constexpr size_t kClientThreads = 6;
  constexpr size_t kWorkBudget = 40;

  std::vector<Instance> instances;
  instances.push_back(MakePathInstance(3, 30, 4, 21));
  instances.push_back(MakeStarInstance(25, 4, 22));

  ServingOptions options;
  options.num_workers = 4;
  ServingEngine serving(options);

  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t thread_idx = 0; thread_idx < kClientThreads; ++thread_idx) {
    clients.emplace_back([&, thread_idx] {
      Rng rng(7000 + thread_idx);
      SessionBudget budget;
      budget.work_budget = kWorkBudget;
      const SessionId session = serving.OpenSession(budget);

      // Several cursors racing for one session budget: drive them via
      // the worker pool (SubmitFetch) and the caller thread at once.
      std::vector<CursorId> ids;
      for (int c = 0; c < 4; ++c) {
        const Instance& t = instances[rng.NextBounded(instances.size())];
        auto id = serving.OpenCursor(session, t.db, t.query);
        if (id.ok()) ids.push_back(id.value());
      }
      // The callback may outlive this client thread (it runs on a
      // worker), so it must own its state.
      auto callbacks = std::make_shared<std::atomic<size_t>>(0);
      for (int round = 0; round < 8; ++round) {
        for (const CursorId id : ids) {
          serving.SubmitFetch(id, 3,
                              [callbacks](CursorId, StatusOr<FetchOutcome>) {
                                callbacks->fetch_add(1);
                              });
          (void)serving.Fetch(id, 2);
        }
      }
      // Leave the cursors open: CloseSession must sweep them.
      const auto stats = serving.GetSessionStats(session);
      if (!stats.ok() || stats.value().work_spent > kWorkBudget) {
        failures.fetch_add(1);
      }
      if (!serving.CloseSession(session).ok()) failures.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(serving.NumOpenCursors(), 0u);
}

// ------------------------------------------------------------ plan cache

// Drives a PlanCache the way OpenCursor does, with the retag patch
// rule. Lookup's build fails, so a miss leaves the cache as it found
// it; Insert's build yields `plan`.
std::shared_ptr<const QueryPlan> Lookup(PlanCache& cache, const CacheKey& key,
                                        const Database& db,
                                        const DatabaseSnapshot& snap) {
  auto got = cache.GetOrBuild(
      key, db, snap,
      [&snap](const std::shared_ptr<const QueryPlan>& stale,
              const std::vector<AppendDelta>& gap) {
        return RetagPlan(stale, snap.view(), gap);
      },
      []() -> StatusOr<std::shared_ptr<const QueryPlan>> {
        return Status::Error("lookup only");
      });
  return got.ok() ? got.value().value : nullptr;
}

void Insert(PlanCache& cache, const CacheKey& key, const Database& db,
            const DatabaseSnapshot& snap, const QueryPlan& plan) {
  auto got = cache.GetOrBuild(
      key, db, snap,
      [](const std::shared_ptr<const QueryPlan>&,
         const std::vector<AppendDelta>&) {
        return std::shared_ptr<const QueryPlan>();
      },
      [&plan]() -> StatusOr<std::shared_ptr<const QueryPlan>> {
        return std::make_shared<const QueryPlan>(plan);
      });
  ASSERT_TRUE(got.ok());
}

TEST(PlanCacheTest, HitMissInvalidateAndEvict) {
  Instance t = MakePathInstance(3, 30, 4, 5);
  PlanCache cache("test.plan_cache", /*capacity=*/2);
  const auto snap = t.db.Snapshot();

  QueryPlan plan;
  plan.estimated_output = 77.0;
  const auto key = PlanFingerprint(t.db, t.query, {}, {});
  EXPECT_EQ(Lookup(cache, key, t.db, *snap), nullptr);  // miss
  Insert(cache, key, t.db, *snap, plan);
  const auto hit = Lookup(cache, key, t.db, *snap);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->estimated_output, 77.0);

  // A barrier version bump makes the entry stale: dropped on the next
  // lookup.
  t.db.mutable_relation(t.query.atom(0).relation)->AddTuple({0, 0}, 0.5);
  const auto bumped = t.db.Snapshot();
  EXPECT_EQ(Lookup(cache, key, t.db, *bumped), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);

  // Distinct forced algorithms fingerprint differently; capacity 2
  // evicts the least recently used of three.
  Insert(cache, key, t.db, *bumped, plan);
  for (const AnyKAlgorithm algorithm :
       {AnyKAlgorithm::kPartEager, AnyKAlgorithm::kPartLazy}) {
    ExecutionOptions opts;
    opts.force_algorithm = algorithm;
    Insert(cache, PlanFingerprint(t.db, t.query, {}, opts), t.db, *bumped,
           plan);
  }
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(Lookup(cache, key, t.db, *bumped), nullptr);  // evicted

  // Rankings fingerprint separately too.
  RankingSpec max_rank;
  max_rank.model = CostModelKind::kMax;
  EXPECT_EQ(Lookup(cache, PlanFingerprint(t.db, t.query, max_rank, {}), t.db,
                   *bumped),
            nullptr);

  // Capacity 0 disables caching outright.
  PlanCache off("test.plan_cache", 0);
  Insert(off, key, t.db, *bumped, plan);
  EXPECT_EQ(Lookup(off, key, t.db, *bumped), nullptr);
  EXPECT_EQ(off.stats().entries, 0u);
}

// The epoch-regression race: an open pins its snapshot, a delta
// commits, and a racing open caches the plan at the NEWER epoch first.
// The slow open's lookup and insert must both leave the newer entry in
// place -- the old code retagged it down (or overwrote it), causing
// patch/evict churn across interleaved epochs.
TEST(PlanCacheTest, OlderEpochLookupAndInsertKeepNewerEntry) {
  Instance t = MakePathInstance(3, 30, 4, 5);
  PlanCache cache("test.plan_cache", /*capacity=*/2);
  const auto key = PlanFingerprint(t.db, t.query, {}, {});
  const auto pinned = t.db.Snapshot();  // the slow open's snapshot

  Delta d;
  d.ForRelation(t.query.atom(0).relation).AddTuple({0, 1}, 1.0);
  ASSERT_TRUE(t.db.ApplyDelta(d).ok());
  const auto live = t.db.Snapshot();
  QueryPlan newer;
  newer.estimated_output = 77.0;
  Insert(cache, key, t.db, *live, newer);  // racing open wins the slot

  // Plain miss: neither dropped nor retagged down to the old epoch.
  EXPECT_EQ(Lookup(cache, key, t.db, *pinned), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 0u);
  EXPECT_EQ(cache.stats().patches, 0u);
  EXPECT_EQ(cache.stats().entries, 1u);

  // The slow open plans for itself; inserting that older-epoch plan
  // must not downgrade the entry.
  QueryPlan older;
  older.estimated_output = 11.0;
  Insert(cache, key, t.db, *pinned, older);
  const auto hit = Lookup(cache, key, t.db, *live);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->estimated_output, 77.0);
}

// A stale plan's append-growth tolerance is judged over the gap up to
// the request's pinned epoch, with that epoch's exact relation sizes --
// not up to the live version, which a concurrent writer may have grown
// far past the tolerance.
TEST(PlanCacheTest, RetagJudgesAppendGapAtThePinnedEpoch) {
  Instance t = MakePathInstance(3, 30, 4, 5);
  PlanCache cache("test.plan_cache", /*capacity=*/2);
  QueryPlan plan;
  plan.estimated_output = 42.0;
  const auto key = PlanFingerprint(t.db, t.query, {}, {});
  Insert(cache, key, t.db, *t.db.Snapshot(), plan);

  // One appended row (well within ~10%) up to the pinned epoch...
  Delta small;
  small.ForRelation(t.query.atom(0).relation).AddTuple({0, 1}, 1.0);
  ASSERT_TRUE(t.db.ApplyDelta(small).ok());
  const auto pinned = t.db.Snapshot();
  // ...then a much larger append moves the live database past it.
  Delta big;
  for (int i = 0; i < 20; ++i) {
    big.ForRelation(t.query.atom(0).relation).AddTuple({i, i + 1}, 1.0);
  }
  ASSERT_TRUE(t.db.ApplyDelta(big).ok());

  const auto hit = Lookup(cache, key, t.db, *pinned);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->estimated_output, 42.0);
  EXPECT_EQ(cache.stats().patches, 1u);
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

// The acceptance pin: a warm OpenCursor must skip PlanQuery entirely --
// counter-verified, not just faster -- and still serve the exact stream.
TEST(ServingEngineTest, WarmOpenCursorSkipsPlanQuery) {
  Instance t = MakePathInstance(3, 40, 4, 7);
  const auto want = OracleSortedCosts(t);
  ServingEngine serving;
  const SessionId session = serving.OpenSession();

  auto cold = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(serving.NumPlansComputed(), 1u);
  EXPECT_EQ(serving.GetPlanCacheStats().misses, 1u);
  EXPECT_EQ(serving.GetPlanCacheStats().hits, 0u);

  auto warm = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(serving.NumPlansComputed(), 1u);  // PlanQuery skipped
  EXPECT_EQ(serving.GetPlanCacheStats().hits, 1u);

  // The cached plan serves the identical, exact stream.
  for (const CursorId id : {cold.value(), warm.value()}) {
    auto outcome = serving.Fetch(id, SIZE_MAX);
    ASSERT_TRUE(outcome.ok());
    std::vector<double> got;
    for (const RankedResult& r : outcome.value().results) {
      got.push_back(r.cost);
    }
    ExpectSameCosts(got, want, "plan-cache stream");
  }

  // A different ranking, or a k in another class (k = 3 streams with
  // Take2, an unknown k with REC), is a different plan request: both
  // miss.
  RankingSpec max_rank;
  max_rank.model = CostModelKind::kMax;
  ASSERT_TRUE(serving.OpenCursor(session, t.db, t.query, max_rank).ok());
  EXPECT_EQ(serving.NumPlansComputed(), 2u);
  ExecutionOptions with_k;
  with_k.k = 3;
  ASSERT_TRUE(serving.OpenCursor(session, t.db, t.query, {}, with_k).ok());
  EXPECT_EQ(serving.NumPlansComputed(), 3u);
}

TEST(ServingEngineTest, PlanCacheInvalidatesOnDataChange) {
  Instance t = MakePathInstance(2, 25, 4, 9);
  ServingEngine serving;
  const SessionId session = serving.OpenSession();

  auto first = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(serving.Fetch(first.value(), SIZE_MAX).ok());
  ASSERT_TRUE(serving.CloseCursor(first.value()).ok());
  EXPECT_EQ(serving.NumPlansComputed(), 1u);

  // Mutate the data (all cursors closed: the mutation contract). The
  // version bump must force a re-plan -- the old cardinalities, and
  // even the old grouping, no longer describe the data.
  t.db.mutable_relation(t.query.atom(0).relation)->AddTuple({0, 0}, 0.5);
  const auto want = OracleSortedCosts(t);  // fresh oracle, post-mutation

  auto second = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(serving.NumPlansComputed(), 2u);  // re-planned
  EXPECT_EQ(serving.GetPlanCacheStats().invalidations, 1u);
  auto outcome = serving.Fetch(second.value(), SIZE_MAX);
  ASSERT_TRUE(outcome.ok());
  std::vector<double> got;
  for (const RankedResult& r : outcome.value().results) got.push_back(r.cost);
  ExpectSameCosts(got, want, "post-invalidation stream");

  // Warm again at the new version.
  ASSERT_TRUE(serving.OpenCursor(session, t.db, t.query).ok());
  EXPECT_EQ(serving.NumPlansComputed(), 2u);
}

// The explicit drop for database-object teardown: data changes already
// invalidate via the version key, but an operator about to destroy a
// Database clears its entries (and sampled statistics) so a future
// allocation reusing the address can never collide.
TEST(ServingEngineTest, InvalidateCachedPlansDropsDatabaseEntries) {
  Instance t = MakePathInstance(2, 20, 4, 5);
  ServingEngine serving;
  const SessionId session = serving.OpenSession();
  ASSERT_TRUE(serving.OpenCursor(session, t.db, t.query).ok());
  ASSERT_TRUE(serving.OpenCursor(session, t.db, t.query).ok());
  EXPECT_EQ(serving.NumPlansComputed(), 1u);
  EXPECT_EQ(serving.GetPlanCacheStats().entries, 1u);

  serving.InvalidateCachedPlans(t.db);
  EXPECT_EQ(serving.GetPlanCacheStats().entries, 0u);
  ASSERT_TRUE(serving.OpenCursor(session, t.db, t.query).ok());
  EXPECT_EQ(serving.NumPlansComputed(), 2u);  // re-planned from scratch
}

// OpenCursor storm on a small hot query set: the cache must stay
// consistent under concurrency (TSAN job), serve exact streams, and
// actually absorb the repeat planning work.
TEST(ServingStressTest, ConcurrentOpenCursorStormHitsThePlanCache) {
  constexpr size_t kClientThreads = 8;
  constexpr size_t kOpensPerThread = 20;

  std::vector<Instance> instances;
  instances.push_back(MakePathInstance(3, 30, 4, 31));
  instances.push_back(MakePathInstance(2, 40, 5, 32));
  instances.push_back(MakeStarInstance(25, 4, 33));
  std::vector<std::vector<double>> oracles;
  for (const Instance& t : instances) oracles.push_back(OracleSortedCosts(t));

  ServingOptions options;
  options.num_workers = 4;
  ServingEngine serving(options);

  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t thread_idx = 0; thread_idx < kClientThreads; ++thread_idx) {
    clients.emplace_back([&, thread_idx] {
      Rng rng(4000 + thread_idx);
      const SessionId session = serving.OpenSession();
      for (size_t c = 0; c < kOpensPerThread; ++c) {
        const size_t which = rng.NextBounded(instances.size());
        auto id = serving.OpenCursor(session, instances[which].db,
                                     instances[which].query);
        if (!id.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto outcome = serving.Fetch(id.value(), SIZE_MAX);
        if (!outcome.ok()) {
          failures.fetch_add(1);
        } else {
          const auto& want = oracles[which];
          const auto& results = outcome.value().results;
          if (results.size() != want.size()) {
            failures.fetch_add(1);
          } else {
            for (size_t i = 0; i < results.size(); ++i) {
              if (std::abs(results[i].cost - want[i]) > 1e-9) {
                failures.fetch_add(1);
                break;
              }
            }
          }
        }
        if (!serving.CloseCursor(id.value()).ok()) failures.fetch_add(1);
      }
      if (!serving.CloseSession(session).ok()) failures.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0u);
  const PlanCacheStats stats = serving.GetPlanCacheStats();
  const uint64_t total_opens = kClientThreads * kOpensPerThread;
  // Every open did exactly one lookup; misses are exactly the plans
  // computed; concurrent first-opens may each plan, but once a thread
  // has inserted a query's plan its own later opens always hit.
  EXPECT_EQ(stats.hits + stats.misses, total_opens);
  EXPECT_EQ(serving.NumPlansComputed(), stats.misses);
  EXPECT_LE(serving.NumPlansComputed(), kClientThreads * instances.size());
  EXPECT_GT(stats.hits, 0u);
}

// ---------------------------------------------------------- observability

// The acceptance pin for the metrics layer: after serving a path-4
// query end to end, one GetMetricsSnapshot call exposes all four
// layers -- planner, T-DP preprocessing, enumeration, serving -- with
// consistent per-Next delay percentiles.
TEST(ServingObservabilityTest, MetricsSnapshotCoversAllFourLayers) {
  Instance t = MakePathInstance(4, 30, 4, 11);
  ServingEngine serving;
  const MetricsSnapshot before = serving.GetMetricsSnapshot();
  auto counter_delta = [&](const MetricsSnapshot& snap, const char* name) {
    const auto it = before.counters.find(name);
    return snap.counters.at(name) - (it == before.counters.end() ? 0
                                                                 : it->second);
  };

  const SessionId session = serving.OpenSession();
  auto id = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(id.ok());
  auto outcome = serving.Fetch(id.value(), SIZE_MAX);  // to exhaustion
  ASSERT_TRUE(outcome.ok());
  const size_t total = outcome.value().results.size();
  ASSERT_GT(total, 10u);
  ASSERT_TRUE(serving.CloseCursor(id.value()).ok());  // flushes the wrapper

  const MetricsSnapshot snap = serving.GetMetricsSnapshot();
  // Layer 1, planner.
  EXPECT_GE(counter_delta(snap, "planner.plans"), 1);
  EXPECT_GE(snap.histograms.at("planner.plan_ns").count, 1u);
  // Layer 2, T-DP preprocessing.
  EXPECT_GE(counter_delta(snap, "tdp.builds"), 1);
  EXPECT_GE(snap.histograms.at("tdp.build_ns").count, 1u);
  EXPECT_GT(snap.histograms.at("tdp.arena_bytes").sum, 0u);
  EXPECT_GT(snap.histograms.at("tdp.groups").sum, 0u);
  // Layer 3, enumeration: one in kDelaySamplePeriod pulls left a delay
  // sample, and the percentile readout is internally consistent.
  EXPECT_GE(counter_delta(snap, "anyk.results"),
            static_cast<int64_t>(total));
  const HistogramSnapshot& delay = snap.histograms.at("anyk.next_delay_ns");
  EXPECT_GE(delay.count, total / InstrumentedIterator::kDelaySamplePeriod);
  EXPECT_GT(delay.count, 0u);
  EXPECT_LE(delay.Percentile(0.50), delay.Percentile(0.99));
  EXPECT_LE(delay.Percentile(0.99), delay.max);
  // Layer 4, serving.
  EXPECT_GE(counter_delta(snap, "serving.cursors_opened"), 1);
  EXPECT_GE(snap.histograms.at("serving.open_cursor_ns").count, 1u);
  EXPECT_GE(snap.histograms.at("serving.slice_service_ns").count, 1u);
  // The live-state overlay.
  EXPECT_EQ(snap.gauges.at("serving.open_cursors"), 0);
  EXPECT_EQ(snap.gauges.at("serving.open_sessions"), 1);
  EXPECT_EQ(snap.counters.at("serving.plan_cache.misses"), 1);

  // The snapshot serializes: every layer's metric appears in the JSON.
  const std::string json = snap.ToJson();
  for (const char* name :
       {"planner.plan_ns", "tdp.build_ns", "anyk.next_delay_ns",
        "serving.slice_service_ns", "serving.open_cursors"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

TEST(ServingObservabilityTest, QueueWaitIsAttributedToSessions) {
  Instance t = MakePathInstance(3, 30, 4, 11);
  ServingOptions options;
  options.num_workers = 2;
  ServingEngine serving(options);
  const SessionId session = serving.OpenSession();
  auto id = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(id.ok());

  // Synchronous fetches count slices but no queue wait...
  ASSERT_TRUE(serving.Fetch(id.value(), 2).ok());
  auto stats = serving.GetSessionStats(session);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().fetch_slices, 1u);

  // ...asynchronous ones measure their submit->start wait.
  std::atomic<bool> done{false};
  serving.SubmitFetch(id.value(), 2,
                      [&](CursorId, StatusOr<FetchOutcome> outcome) {
                        EXPECT_TRUE(outcome.ok());
                        done.store(true, std::memory_order_release);
                      });
  while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
  stats = serving.GetSessionStats(session);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().fetch_slices, 2u);
}

TEST(ServingObservabilityTest, QueryTraceReadableWhileCursorIsOpen) {
  Instance t = MakePathInstance(3, 30, 4, 11);
  ServingEngine serving;
  const SessionId session = serving.OpenSession();

  // A cursor opened without collect_trace has no trace to read.
  auto plain = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(serving.GetQueryTrace(plain.value()).ok());
  EXPECT_FALSE(serving.GetQueryTrace(99999).ok());  // unknown cursor

  ExecutionOptions opts;
  opts.collect_trace = true;
  auto traced = serving.OpenCursor(session, t.db, t.query, {}, opts);
  ASSERT_TRUE(traced.ok());

  // Mid-enumeration read: totals are refreshed at TTL milestones.
  auto outcome = serving.Fetch(traced.value(), 7);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().results.size(), 7u);
  auto mid = serving.GetQueryTrace(traced.value());
  ASSERT_TRUE(mid.ok());
  EXPECT_FALSE(mid.value().strategy.empty());
  EXPECT_GE(mid.value().ttl.size(), 3u);  // k = 1, 2, 5 passed
  EXPECT_GE(mid.value().results, 5u);

  // Drain to exhaustion: the trace finalizes with exact totals.
  auto rest = serving.Fetch(traced.value(), SIZE_MAX);
  ASSERT_TRUE(rest.ok());
  ASSERT_EQ(rest.value().cursor_state, CursorState::kExhausted);
  const size_t total = 7 + rest.value().results.size();
  auto final_trace = serving.GetQueryTrace(traced.value());
  ASSERT_TRUE(final_trace.ok());
  EXPECT_EQ(final_trace.value().results, total);
  EXPECT_GT(final_trace.value().work_units, 0);
  // A plan-cache hit skips PlanQuery, so the only timed phase is
  // compile+preprocess.
  ASSERT_EQ(final_trace.value().phases.size(), 1u);
  EXPECT_EQ(final_trace.value().phases[0].name, "compile+preprocess");

  // The plain open above already cached this query's plan, so the
  // traced open was a cache hit -- and the trace says so (collect_trace
  // itself is excluded from the cache fingerprint).
  EXPECT_TRUE(final_trace.value().plan_cache_hit);
}

// Eight workers drain concurrently while a stats thread scrapes the
// full snapshot -- the TSAN acceptance run for scrape-during-record.
TEST(ServingObservabilityTest, SnapshotScrapeDuringEightWorkerDrain) {
  std::vector<Instance> instances;
  std::vector<std::vector<double>> oracles;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    instances.push_back(MakePathInstance(3, 35, 4, seed));
    oracles.push_back(OracleSortedCosts(instances.back()));
  }

  ServingOptions options;
  options.num_workers = 8;
  ServingEngine serving(options);
  const SessionId session = serving.OpenSession();
  std::map<CursorId, size_t> which;
  for (size_t i = 0; i < instances.size(); ++i) {
    auto id = serving.OpenCursor(session, instances[i].db,
                                 instances[i].query);
    ASSERT_TRUE(id.ok());
    which[id.value()] = i;
  }

  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    uint64_t last_results = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const MetricsSnapshot snap = serving.GetMetricsSnapshot();
      const auto it = snap.counters.find("anyk.results");
      ASSERT_NE(it, snap.counters.end());
      EXPECT_GE(it->second, 0);
      const uint64_t results =
          static_cast<uint64_t>(std::max<int64_t>(it->second, 0));
      EXPECT_GE(results, last_results);  // monotone while draining
      last_results = results;
      (void)snap.ToJson();
      (void)serving.GetPlanCacheStats();
    }
  });

  const auto streams = serving.DrainAll(/*results_per_slice=*/4);
  stop.store(true, std::memory_order_release);
  scraper.join();

  // The scrape never perturbed the streams.
  ASSERT_EQ(streams.size(), which.size());
  for (const auto& [id, results] : streams) {
    std::vector<double> got;
    for (const RankedResult& r : results) got.push_back(r.cost);
    ExpectSameCosts(got, oracles[which[id]], "scraped drain");
  }
}

// The budget-debt gauge rises while a session is dry mid-pull and
// settles back to its baseline once the cursors close.
TEST(ServingObservabilityTest, BudgetDebtGaugeSettlesOnClose) {
  Instance t = MakePathInstance(3, 40, 4, 13);
  Gauge* debt = MetricsRegistry::Global().GetGauge("serving.budget_debt");
  const int64_t baseline = debt->value();

  SessionBudget budget;
  budget.work_budget = MeasureFullDrainWork(t) / 3;
  {
    ServingEngine serving;
    const SessionId session = serving.OpenSession(budget);
    auto id = serving.OpenCursor(session, t.db, t.query);
    ASSERT_TRUE(id.ok());
    auto outcome = serving.Fetch(id.value(), SIZE_MAX);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome.value().session_dry);
    // The gauge never goes below the baseline while debt is carried.
    EXPECT_GE(debt->value(), baseline);
    ASSERT_TRUE(serving.CloseSession(session).ok());
  }
  EXPECT_EQ(debt->value(), baseline);
}

// ------------------------------------------- shared artifact cache pins

// The tentpole acceptance pin: a warm OpenCursor performs ZERO
// preprocessing -- counter-verified. N opens of the same query build
// the T-DP/bag artifact exactly once; every cursor still enumerates an
// independent, exact stream from rank 0.
TEST(ServingEngineTest, WarmOpenCursorSharesOnePreprocessingArtifact) {
  Instance t = MakePathInstance(3, 40, 4, 7);
  const auto want = OracleSortedCosts(t);
  ServingEngine serving;
  const SessionId session = serving.OpenSession();

  constexpr size_t kOpens = 8;
  std::vector<CursorId> ids;
  for (size_t i = 0; i < kOpens; ++i) {
    auto id = serving.OpenCursor(session, t.db, t.query);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  EXPECT_EQ(serving.NumArtifactsBuilt(), 1u);  // one build, N cursors
  EXPECT_EQ(serving.GetArtifactCacheStats().misses, 1u);
  EXPECT_EQ(serving.GetArtifactCacheStats().hits, kOpens - 1);

  // Every cursor drains the identical exact stream independently --
  // interleaved pulls, so per-cursor state provably does not leak
  // between streams sharing one artifact.
  std::vector<std::vector<double>> got(kOpens);
  for (size_t rank = 0; rank < want.size(); ++rank) {
    for (size_t i = 0; i < kOpens; ++i) {
      auto out = serving.Fetch(ids[i], 1);
      ASSERT_TRUE(out.ok());
      ASSERT_EQ(out.value().results.size(), 1u);
      got[i].push_back(out.value().results[0].cost);
    }
  }
  for (size_t i = 0; i < kOpens; ++i) {
    ExpectSameCosts(got[i], want, "shared-artifact stream");
  }
}

// The warm-open trace says the artifact came from the cache, and both
// paths still report exactly one compile+preprocess phase.
TEST(ServingEngineTest, TraceReportsArtifactCacheHit) {
  Instance t = MakePathInstance(2, 25, 4, 5);
  ServingEngine serving;
  const SessionId session = serving.OpenSession();
  ExecutionOptions opts;
  opts.collect_trace = true;

  auto cold = serving.OpenCursor(session, t.db, t.query, {}, opts);
  ASSERT_TRUE(cold.ok());
  auto cold_trace = serving.GetQueryTrace(cold.value());
  ASSERT_TRUE(cold_trace.ok());
  EXPECT_FALSE(cold_trace.value().artifact_cache_hit);

  auto warm = serving.OpenCursor(session, t.db, t.query, {}, opts);
  ASSERT_TRUE(warm.ok());
  auto warm_trace = serving.GetQueryTrace(warm.value());
  ASSERT_TRUE(warm_trace.ok());
  EXPECT_TRUE(warm_trace.value().artifact_cache_hit);
  EXPECT_TRUE(warm_trace.value().plan_cache_hit);
  size_t compile_phases = 0;
  for (const auto& phase : warm_trace.value().phases) {
    if (phase.name == "compile+preprocess") ++compile_phases;
  }
  EXPECT_EQ(compile_phases, 1u);
}

// A data change invalidates the cached artifact through the version
// key: the next open rebuilds against the new contents and serves the
// post-mutation oracle exactly.
TEST(ServingEngineTest, ArtifactCacheInvalidatesOnDataChange) {
  Instance t = MakePathInstance(2, 25, 4, 9);
  ServingEngine serving;
  const SessionId session = serving.OpenSession();

  auto first = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(serving.Fetch(first.value(), SIZE_MAX).ok());
  ASSERT_TRUE(serving.CloseCursor(first.value()).ok());
  EXPECT_EQ(serving.NumArtifactsBuilt(), 1u);

  t.db.mutable_relation(t.query.atom(0).relation)->AddTuple({0, 0}, 0.5);
  const auto want = OracleSortedCosts(t);  // fresh oracle, post-mutation

  auto second = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(serving.NumArtifactsBuilt(), 2u);  // rebuilt
  EXPECT_EQ(serving.GetArtifactCacheStats().invalidations, 1u);
  auto outcome = serving.Fetch(second.value(), SIZE_MAX);
  ASSERT_TRUE(outcome.ok());
  std::vector<double> got;
  for (const RankedResult& r : outcome.value().results) got.push_back(r.cost);
  ExpectSameCosts(got, want, "post-invalidation artifact stream");

  // Warm again at the new version; the explicit teardown drop clears
  // the artifact entries too.
  ASSERT_TRUE(serving.OpenCursor(session, t.db, t.query).ok());
  EXPECT_EQ(serving.NumArtifactsBuilt(), 2u);
  serving.InvalidateCachedPlans(t.db);
  EXPECT_EQ(serving.GetArtifactCacheStats().entries, 0u);
  ASSERT_TRUE(serving.OpenCursor(session, t.db, t.query).ok());
  EXPECT_EQ(serving.NumArtifactsBuilt(), 3u);
}

// An in-flight cursor survives the version bump that invalidates its
// artifact from the cache: shared ownership keeps the immutable
// artifact alive until the last stream over it closes, while new opens
// rebuild against the new data.
TEST(ServingEngineTest, InFlightCursorSurvivesArtifactInvalidation) {
  Instance t = MakePathInstance(2, 25, 4, 11);
  const auto want_old = OracleSortedCosts(t);
  ServingEngine serving;
  const SessionId session = serving.OpenSession();

  auto old_cursor = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(old_cursor.ok());
  auto head = serving.Fetch(old_cursor.value(), 3);
  ASSERT_TRUE(head.ok());
  ASSERT_EQ(head.value().results.size(), 3u);

  // Append to a relation the query reads. The artifact copied
  // everything it needs at build time (reduced relations, bags), so
  // the old cursor's stream stays exact over the OLD contents even
  // though the cache entry is now stale.
  t.db.mutable_relation(t.query.atom(0).relation)->AddTuple({9, 9}, 0.25);
  auto fresh = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(serving.NumArtifactsBuilt(), 2u);  // rebuilt for new version

  auto rest = serving.Fetch(old_cursor.value(), SIZE_MAX);
  ASSERT_TRUE(rest.ok());
  std::vector<double> got;
  for (const RankedResult& r : head.value().results) got.push_back(r.cost);
  for (const RankedResult& r : rest.value().results) got.push_back(r.cost);
  ExpectSameCosts(got, want_old, "pre-mutation stream across invalidation");
}

// --------------------------------------- per-cursor locking (races)

// Two cursors hashed to the SAME stripe fetch concurrently: the stripe
// lock covers only the lookup, so a slice blocked mid-body must not
// head-of-line-block its stripe sibling -- under the old
// stripe-scoped locking this test deadlocks. Also pins that unlinking
// a cursor mid-slice is safe: the slice finishes on its own shared
// reference.
TEST(ShardedCursorTableTest, SameStripeCursorsFetchConcurrently) {
  Instance t = MakePathInstance(2, 20, 4, 1);
  Engine engine;
  ShardedCursorTable table(/*num_stripes=*/1);  // everyone collides
  auto session = std::make_shared<Session>(SessionBudget{});

  std::vector<CursorId> ids;
  for (int i = 0; i < 2; ++i) {
    auto result = engine.Execute(t.db, t.query);
    ASSERT_TRUE(result.ok());
    ids.push_back(table.Insert(
        std::make_unique<Cursor>(std::move(result.value().stream),
                                 CursorOptions{}),
        session));
  }

  std::promise<void> entered_a;
  std::promise<void> release_a;
  std::shared_future<void> release_a_future = release_a.get_future().share();
  std::thread blocked([&] {
    const bool found = table.WithCursor(ids[0], [&](Cursor& c, Session&) {
      entered_a.set_value();
      release_a_future.wait();  // hold the cursor mutex, not the stripe's
      EXPECT_TRUE(c.Next().has_value());
    });
    EXPECT_TRUE(found);
  });
  entered_a.get_future().wait();

  // While A's slice is parked, its stripe sibling completes a slice...
  bool pulled_b = false;
  EXPECT_TRUE(table.WithCursor(ids[1], [&](Cursor& c, Session&) {
    pulled_b = c.Next().has_value();
  }));
  EXPECT_TRUE(pulled_b);
  // ...whole-table sweeps proceed...
  EXPECT_EQ(table.NumCursors(), 2u);
  EXPECT_EQ(table.Ids().size(), 2u);
  // ...and A can even be unlinked mid-slice without blocking.
  EXPECT_EQ(table.Erase(ids[0]).get(), session.get());
  EXPECT_EQ(table.NumCursors(), 1u);

  release_a.set_value();
  blocked.join();  // A's body completed against its shared reference
  EXPECT_FALSE(table.WithCursor(ids[0], [](Cursor&, Session&) {}));
  EXPECT_EQ(table.EraseOwnedBy(session.get()), 1u);
}

// Idle eviction racing in-flight Fetch slices on cursors that share
// one artifact (the TSAN acceptance run): every Fetch either serves
// exactly its next ranked slice or reports the cursor closed -- never
// a torn read -- and GetQueryTrace on a just-evicted cursor returns a
// clean error.
TEST(ServingStressTest, EvictionRacesInFlightFetchOnSharedArtifact) {
  Instance t = MakePathInstance(3, 30, 4, 5);
  ServingEngine serving;
  serving.SetIdleClockForTesting(&FakeNow);
  FakeClockSeconds() = 1000;
  const SessionId session = serving.OpenSession();
  ExecutionOptions opts;
  opts.collect_trace = true;

  constexpr size_t kCursors = 6;
  std::vector<CursorId> ids;
  for (size_t i = 0; i < kCursors; ++i) {
    auto id = serving.OpenCursor(session, t.db, t.query, {}, opts);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  EXPECT_EQ(serving.NumArtifactsBuilt(), 1u);  // all share one artifact

  std::atomic<bool> stop{false};
  std::vector<std::thread> fetchers;
  for (size_t i = 0; i < kCursors; ++i) {
    fetchers.emplace_back([&serving, &stop, id = ids[i]] {
      while (!stop.load(std::memory_order_acquire)) {
        auto out = serving.Fetch(id, 2);
        if (!out.ok()) return;  // evicted: a clean "no cursor" error
        if (out.value().cursor_state != CursorState::kActive) return;
      }
    });
  }
  // Sweep with an aggressive cutoff while slices are in flight; jump
  // the fake clock so each sweep sees some cursors as stale. Slices
  // racing the sweep refresh last_used and survive to the next round.
  for (int round = 0; round < 50; ++round) {
    FakeClockSeconds() += 10;
    serving.EvictIdleCursors(std::chrono::seconds(5));
    std::this_thread::yield();
  }
  FakeClockSeconds() += 100;
  serving.EvictIdleCursors(std::chrono::seconds(5));
  stop.store(true, std::memory_order_release);
  for (std::thread& f : fetchers) f.join();

  // Everything evicted by the final sweep: the trace of an evicted
  // cursor is gone with it -- a clean error, not a crash or a stale
  // read.
  EXPECT_EQ(serving.NumOpenCursors(), 0u);
  for (const CursorId id : ids) {
    const auto trace = serving.GetQueryTrace(id);
    EXPECT_FALSE(trace.ok());
    EXPECT_FALSE(serving.Fetch(id, 1).ok());
  }
  ASSERT_TRUE(serving.CloseSession(session).ok());
}

// ---------------------------------------------------------- live updates

// The patch-or-evict acceptance pin: after ApplyDelta, a warm open
// salvages BOTH cached layers -- the plan is retagged in place (within
// the append-growth tolerance) and the artifact is delta-refolded --
// so nothing is rebuilt, yet the stream serves the post-delta oracle.
TEST(ServingEngineTest, ApplyDeltaPatchesWarmArtifactInsteadOfRebuilding) {
  Instance t = MakePathInstance(3, 40, 4, 7);
  ServingEngine serving;
  const SessionId session = serving.OpenSession();

  auto cold = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(serving.Fetch(cold.value(), SIZE_MAX).ok());
  ASSERT_TRUE(serving.CloseCursor(cold.value()).ok());
  EXPECT_EQ(serving.NumArtifactsBuilt(), 1u);
  EXPECT_EQ(serving.NumPlansComputed(), 1u);

  ASSERT_TRUE(t.db.ApplyDelta(JoiningDelta(t, 0.375)).ok());
  const auto want = OracleSortedCosts(t);  // post-delta ground truth

  auto warm = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(serving.NumArtifactsBuilt(), 1u);  // patched, not rebuilt
  EXPECT_EQ(serving.NumArtifactsPatched(), 1u);
  EXPECT_EQ(serving.NumPlansComputed(), 1u);  // plan retagged in place
  EXPECT_EQ(serving.GetPlanCacheStats().patches, 1u);
  EXPECT_EQ(serving.GetArtifactCacheStats().patches, 1u);
  auto outcome = serving.Fetch(warm.value(), SIZE_MAX);
  ASSERT_TRUE(outcome.ok());
  std::vector<double> got;
  for (const RankedResult& r : outcome.value().results) got.push_back(r.cost);
  ExpectSameCosts(got, want, "patched-artifact stream");

  // The patched entry is current at the new epoch: the next open is a
  // plain hit, no further patch or build.
  ASSERT_TRUE(serving.OpenCursor(session, t.db, t.query).ok());
  EXPECT_EQ(serving.NumArtifactsBuilt(), 1u);
  EXPECT_EQ(serving.NumArtifactsPatched(), 1u);
}

// When the delta's join keys were never interned (the structural refold
// refuses), the serving layer falls back to a rebuild -- correctness is
// never sacrificed for patch speed.
TEST(ServingEngineTest, UnpatchableDeltaFallsBackToArtifactRebuild) {
  Instance t = MakePathInstance(3, 40, 4, 9);
  ServingEngine serving;
  const SessionId session = serving.OpenSession();
  ASSERT_TRUE(serving.OpenCursor(session, t.db, t.query).ok());
  EXPECT_EQ(serving.NumArtifactsBuilt(), 1u);

  Delta delta;  // a dangling tuple with keys outside the domain
  delta.ForRelation(t.query.atom(1).relation).AddTuple({901, 902}, 1.0);
  ASSERT_TRUE(t.db.ApplyDelta(delta).ok());
  const auto want = OracleSortedCosts(t);

  auto fresh = serving.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(serving.NumArtifactsBuilt(), 2u);  // refused patch -> rebuild
  EXPECT_EQ(serving.NumArtifactsPatched(), 0u);
  auto outcome = serving.Fetch(fresh.value(), SIZE_MAX);
  ASSERT_TRUE(outcome.ok());
  std::vector<double> got;
  for (const RankedResult& r : outcome.value().results) got.push_back(r.cost);
  ExpectSameCosts(got, want, "post-rebuild stream");
}

// The headline concurrency contract, exercised under TSAN in CI:
// writers commit deltas while readers open, drain, and close cursors.
// Every stream is a complete, rank-ordered enumeration of some
// published epoch, and a cursor opened BEFORE the storm -- drained
// slice by slice WHILE 20 deltas commit -- stays bit-stable against
// its pinned snapshot.
TEST(ServingStressTest, MutateWhileFetchStormKeepsPinnedCursorsExact) {
  constexpr size_t kReaderThreads = 6;
  constexpr size_t kMutatorThreads = 2;
  constexpr size_t kOpensPerReader = 8;
  constexpr size_t kDeltasPerMutator = 10;

  Instance t = MakePathInstance(3, 50, 6, 41);
  const auto want_pre = OracleSortedCosts(t);
  const size_t baseline = want_pre.size();
  // One joining assignment, captured up front; every mutator appends
  // duplicates of it so warm artifacts keep patching all storm long.
  const Relation join_out = NestedLoopJoin(t.db, t.query);
  ASSERT_GT(join_out.NumTuples(), 0u);
  const std::vector<Value> assignment(join_out.Tuple(0).begin(),
                                      join_out.Tuple(0).end());

  ServingOptions options;
  options.num_workers = 4;
  ServingEngine serving(options);

  const SessionId pinned_session = serving.OpenSession();
  auto pinned = serving.OpenCursor(pinned_session, t.db, t.query);
  ASSERT_TRUE(pinned.ok());

  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t m = 0; m < kMutatorThreads; ++m) {
    threads.emplace_back([&, m] {
      for (size_t i = 0; i < kDeltasPerMutator; ++i) {
        Delta delta;
        for (size_t at = 0; at < t.query.NumAtoms(); ++at) {
          const auto& atom = t.query.atom(at);
          RelationDelta& rd = delta.ForRelation(atom.relation);
          for (VarId v : atom.vars) {
            rd.values.push_back(assignment[static_cast<size_t>(v)]);
          }
          rd.weights.push_back(
              0.01 * static_cast<double>(m * kDeltasPerMutator + i + 1));
        }
        if (!t.db.ApplyDelta(delta).ok()) failures.fetch_add(1);
      }
    });
  }
  for (size_t r = 0; r < kReaderThreads; ++r) {
    threads.emplace_back([&, r] {
      const SessionId session = serving.OpenSession();
      for (size_t c = 0; c < kOpensPerReader; ++c) {
        auto id = serving.OpenCursor(session, t.db, t.query);
        if (!id.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto outcome = serving.Fetch(id.value(), SIZE_MAX);
        if (!outcome.ok()) {
          failures.fetch_add(1);
        } else {
          // A complete enumeration of SOME epoch: never smaller than
          // the pre-storm output (appends only), never out of order.
          const auto& results = outcome.value().results;
          if (results.size() < baseline) failures.fetch_add(1);
          for (size_t i = 1; i < results.size(); ++i) {
            if (results[i].cost + 1e-12 < results[i - 1].cost) {
              failures.fetch_add(1);
              break;
            }
          }
        }
        if (!serving.CloseCursor(id.value()).ok()) failures.fetch_add(1);
      }
      if (!serving.CloseSession(session).ok()) failures.fetch_add(1);
    });
  }

  // Drain the pinned cursor in small slices WHILE the storm runs: the
  // snapshot it holds keeps every chunk it enumerates alive and
  // untouched, so the stream must be exactly the pre-storm oracle.
  std::vector<double> got;
  while (true) {
    auto slice = serving.Fetch(pinned.value(), 16);
    ASSERT_TRUE(slice.ok());
    for (const RankedResult& r : slice.value().results) got.push_back(r.cost);
    if (slice.value().cursor_state != CursorState::kActive) break;
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  ExpectSameCosts(got, want_pre, "pinned pre-storm stream");

  // A fresh open observes every committed delta.
  const auto want_post = OracleSortedCosts(t);
  auto fresh = serving.OpenCursor(pinned_session, t.db, t.query);
  ASSERT_TRUE(fresh.ok());
  auto post_outcome = serving.Fetch(fresh.value(), SIZE_MAX);
  ASSERT_TRUE(post_outcome.ok());
  std::vector<double> post;
  for (const RankedResult& r : post_outcome.value().results) {
    post.push_back(r.cost);
  }
  ExpectSameCosts(post, want_post, "post-storm stream");
  ASSERT_TRUE(serving.CloseSession(pinned_session).ok());
}

}  // namespace
}  // namespace topkjoin
