// Robustness tests: the typed Status taxonomy, cooperative
// cancellation + deadlines (ExecContext, Cursor, ServingEngine),
// estimator-driven load shedding, the Shutdown/destructor drain
// handshake, and the deterministic failpoint layer. The failpoint
// sections self-skip in default builds (-DTOPKJOIN_FAILPOINTS=OFF);
// CI's failpoints and tsan jobs run them for real, including the chaos
// storm that asserts no deadlock, no budget leak, and no torn stream
// while faults fire. No sleeps anywhere: deadlines are placed in the
// past, and parked-thread handshakes go through
// FailpointRegistry::WaitForParked.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/anyk/batch.h"
#include "src/anyk/tdp.h"
#include "src/data/delta.h"
#include "src/engine/engine.h"
#include "src/engine/executor.h"
#include "src/obs/metrics.h"
#include "src/serving/serving_engine.h"
#include "src/util/cancellation.h"
#include "src/util/failpoint.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "tests/test_instances.h"

namespace topkjoin {
namespace {

using testing_fixtures::Instance;
using testing_fixtures::JoiningDelta;
using testing_fixtures::MakePathInstance;
using testing_fixtures::OracleSortedCosts;

std::chrono::steady_clock::time_point PastDeadline() {
  return std::chrono::steady_clock::now() - std::chrono::seconds(1);
}

std::chrono::steady_clock::time_point FarDeadline() {
  return std::chrono::steady_clock::now() + std::chrono::hours(24);
}

// ------------------------------------------------------ status taxonomy

TEST(StatusTaxonomyTest, CodesAndNames) {
  EXPECT_EQ(Status::Ok().code(), StatusCode::kOk);
  EXPECT_EQ(Status::Error("x").code(), StatusCode::kUnknown);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "unavailable");
}

TEST(StatusTaxonomyTest, OnlyUnavailableIsRetryable) {
  EXPECT_TRUE(Status::Unavailable("overloaded").retryable());
  EXPECT_FALSE(Status::Ok().retryable());
  EXPECT_FALSE(Status::Error("x").retryable());
  EXPECT_FALSE(Status::Cancelled("x").retryable());
  EXPECT_FALSE(Status::DeadlineExceeded("x").retryable());
  EXPECT_FALSE(Status::NotFound("x").retryable());
  EXPECT_FALSE(Status::ResourceExhausted("x").retryable());
}

TEST(StatusTaxonomyTest, WorkEstimatePayload) {
  const Status plain = Status::Unavailable("shed");
  EXPECT_FALSE(plain.has_work_estimate());
  const Status with =
      Status::Unavailable("shed").WithWorkEstimate(12345.0);
  ASSERT_TRUE(with.has_work_estimate());
  EXPECT_DOUBLE_EQ(with.work_estimate(), 12345.0);
  EXPECT_TRUE(with.retryable());
}

// ---------------------------------------------------------- ExecContext

TEST(ExecContextTest, NoScopeNeverAborts) {
  EXPECT_FALSE(ExecContext::ShouldAbort());
  EXPECT_EQ(ExecContext::abort_code(), StatusCode::kOk);
  EXPECT_TRUE(ExecContext::AbortStatus("phase").ok());
}

TEST(ExecContextTest, CancelAbortsAndIsSticky) {
  CancelState state;
  ExecContext::Scope scope(&state);
  EXPECT_FALSE(ExecContext::ShouldAbort());
  state.RequestCancel();
  EXPECT_TRUE(ExecContext::ShouldAbort());
  EXPECT_TRUE(ExecContext::ShouldAbort());  // sticky
  const Status s = ExecContext::AbortStatus("bag materialization");
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
}

TEST(ExecContextTest, PastDeadlineAbortsOnFirstPoll) {
  CancelState state;
  state.SetDeadline(PastDeadline());
  ExecContext::Scope scope(&state);
  // The scope primes the countdown so the very first poll reads the
  // clock -- no kClockStride warmup for an already-expired deadline.
  EXPECT_TRUE(ExecContext::ShouldAbort());
  EXPECT_EQ(ExecContext::AbortStatus("tdp").code(),
            StatusCode::kDeadlineExceeded);
}

TEST(ExecContextTest, ScopeRestoresOuterState) {
  CancelState cancelled;
  cancelled.RequestCancel();
  {
    ExecContext::Scope outer(&cancelled);
    EXPECT_TRUE(ExecContext::ShouldAbort());
    {
      CancelState healthy;
      ExecContext::Scope inner(&healthy);
      EXPECT_FALSE(ExecContext::ShouldAbort());
    }
    EXPECT_TRUE(ExecContext::ShouldAbort());  // outer scope again
  }
  EXPECT_FALSE(ExecContext::ShouldAbort());  // no scope
}

TEST(ExecContextTest, BuildArtifactDiscardsCancelledBuild) {
  Instance t = MakePathInstance(3, 60, 25, 11);
  auto plan = PlanQuery(t.db, t.query, {}, {}, nullptr);
  ASSERT_TRUE(plan.ok());
  CancelState state;
  state.RequestCancel();
  ExecContext::Scope scope(&state);
  auto artifact = BuildArtifact(t.db, t.query, plan.value(), nullptr);
  ASSERT_FALSE(artifact.ok());
  EXPECT_EQ(artifact.status().code(), StatusCode::kCancelled);
}

// BatchSorted enumerates the whole join output before its first result;
// inside a cancelled scope that collection must stop at its first poll
// and keep nothing (the T-DP itself is built outside the scope).
TEST(ExecContextTest, BatchCollectionStopsWhenCancelled) {
  Instance t = MakePathInstance(3, 60, 8, 11);
  const Tdp<SumCost> tdp(t.db, t.query, SortMode::kEager, nullptr);
  ASSERT_GT(BatchSorted<SumCost>(&tdp).TotalResults(), 0u);
  CancelState state;
  state.RequestCancel();
  ExecContext::Scope scope(&state);
  BatchSorted<SumCost> batch(&tdp);
  EXPECT_EQ(batch.TotalResults(), 0u);
  EXPECT_FALSE(batch.Next().has_value());
}

TEST(ExecContextTest, BuildArtifactDiscardsExpiredBuild) {
  Instance t = MakePathInstance(3, 60, 25, 11);
  auto plan = PlanQuery(t.db, t.query, {}, {}, nullptr);
  ASSERT_TRUE(plan.ok());
  CancelState state;
  state.SetDeadline(PastDeadline());
  ExecContext::Scope scope(&state);
  auto artifact = BuildArtifact(t.db, t.query, plan.value(), nullptr);
  ASSERT_FALSE(artifact.ok());
  EXPECT_EQ(artifact.status().code(), StatusCode::kDeadlineExceeded);
}

// ------------------------------------------------- engine-level deadline

TEST(EngineDeadlineTest, ExpiredDeadlineFailsBeforePlanning) {
  Instance t = MakePathInstance(2, 30, 10, 3);
  Engine engine;
  ExecutionOptions opts;
  opts.deadline = PastDeadline();
  auto result = engine.Execute(t.db, t.query, {}, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// A cursor open is bound by the request's deadline from the start: an
// already expired one fails the open without planning or building.
TEST(EngineDeadlineTest, ExpiredCursorDeadlineFailsBeforePlanning) {
  Instance t = MakePathInstance(2, 30, 10, 3);
  Engine engine;
  Counter* tdp_builds = MetricsRegistry::Global().GetCounter("tdp.builds");
  const int64_t builds_before = tdp_builds->value();
  ExecutionOptions opts;
  opts.deadline = PastDeadline();
  auto opened = engine.OpenCursor(t.db, t.query, {}, opts);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(tdp_builds->value(), builds_before);
}

TEST(EngineDeadlineTest, CursorInheritsRequestDeadline) {
  Instance t = MakePathInstance(2, 30, 10, 3);
  Engine engine;
  ExecutionOptions opts;
  opts.deadline = FarDeadline();
  auto opened = engine.OpenCursor(t.db, t.query, {}, opts);
  ASSERT_TRUE(opened.ok());
  Cursor* cursor = opened.value().get();
  ASSERT_NE(cursor, nullptr);
  // Far deadline: enumeration proceeds normally.
  EXPECT_TRUE(cursor->Next().has_value());
  // Flip the shared state to an expired deadline: the next pull trips
  // the slice-boundary check deterministically (no sleeping).
  cursor->cancel_state()->SetDeadline(PastDeadline());
  EXPECT_EQ(cursor->PollTermination(), CursorState::kDeadlineExceeded);
  EXPECT_FALSE(cursor->Next().has_value());
  EXPECT_EQ(cursor->state(), CursorState::kDeadlineExceeded);
  EXPECT_STREQ(CursorStateName(cursor->state()), "deadline-exceeded");
}

TEST(EngineDeadlineTest, CancelIsTerminalAndBudgetExtensionCannotRevive) {
  Instance t = MakePathInstance(2, 30, 10, 3);
  Engine engine;
  auto opened = engine.OpenCursor(t.db, t.query, {}, {});
  ASSERT_TRUE(opened.ok());
  Cursor* cursor = opened.value().get();
  ASSERT_NE(cursor, nullptr);
  EXPECT_TRUE(cursor->Next().has_value());
  cursor->RequestCancel();
  EXPECT_FALSE(cursor->Next().has_value());
  EXPECT_EQ(cursor->state(), CursorState::kCancelled);
  EXPECT_STREQ(CursorStateName(cursor->state()), "cancelled");
  cursor->ExtendBudgets(1000, 1000);
  EXPECT_EQ(cursor->state(), CursorState::kCancelled);
  EXPECT_FALSE(cursor->Next().has_value());
}

// ------------------------------------------------- serving typed errors

ServingOptions InlineOptions() {
  ServingOptions options;
  options.num_workers = 0;  // deterministic inline slices
  return options;
}

TEST(ServingTypedErrorTest, UnknownIdsAreNotFound) {
  ServingEngine engine(InlineOptions());
  EXPECT_EQ(engine.Fetch(999, 1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.CloseCursor(999).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.CancelCursor(999).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.CloseSession(999).code(), StatusCode::kNotFound);
  Instance t = MakePathInstance(2, 20, 10, 5);
  EXPECT_EQ(engine.OpenCursor(999, t.db, t.query).status().code(),
            StatusCode::kNotFound);
}

TEST(ServingTypedErrorTest, ExpiredDeadlineAtOpen) {
  ServingEngine engine(InlineOptions());
  Instance t = MakePathInstance(2, 20, 10, 5);
  const SessionId session = engine.OpenSession();
  ExecutionOptions opts;
  opts.deadline = PastDeadline();
  auto cursor = engine.OpenCursor(session, t.db, t.query, {}, opts);
  ASSERT_FALSE(cursor.ok());
  EXPECT_EQ(cursor.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ServingTypedErrorTest, ExpiredCursorSliceIsDeadlineExceeded) {
  ServingEngine engine(InlineOptions());
  Instance t = MakePathInstance(2, 20, 10, 5);
  const SessionId session = engine.OpenSession();
  ExecutionOptions opts;
  opts.deadline = FarDeadline();
  auto id = engine.OpenCursor(session, t.db, t.query, {}, opts);
  ASSERT_TRUE(id.ok());
  auto first = engine.Fetch(id.value(), 2);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().results.size(), 2u);
  // Cancel stands in for expiry here (same terminal protocol, zero
  // flakiness); the deadline-expiry path is pinned at the cursor layer
  // above where the clock can be tripped deterministically.
  ASSERT_TRUE(engine.CancelCursor(id.value()).ok());
  auto second = engine.Fetch(id.value(), 2);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(engine.NumCursorsCancelled(), 1u);
  // The cursor stays registered (the client still owns closing it).
  EXPECT_TRUE(engine.CloseCursor(id.value()).ok());
}

TEST(ServingTypedErrorTest, ShedThenRetryAfterExtend) {
  ServingEngine engine(InlineOptions());
  Instance t = MakePathInstance(2, 20, 10, 5);
  SessionBudget budget;
  budget.result_budget = 0;  // born dry
  const SessionId session = engine.OpenSession(budget);
  auto denied = engine.OpenCursor(session, t.db, t.query);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(engine.ExtendSessionBudgets(session, 100, 100000).ok());
  auto granted = engine.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(granted.ok());
  auto slice = engine.Fetch(granted.value(), 3);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(slice.value().results.size(), 3u);
}

// ------------------------------------------------------- load shedding

TEST(LoadSheddingTest, OpenCursorHighWaterMark) {
  ServingOptions options = InlineOptions();
  options.overload_policy.max_open_cursors = 1;
  ServingEngine engine(options);
  Instance t = MakePathInstance(2, 20, 10, 5);
  const SessionId session = engine.OpenSession();
  auto first = engine.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(first.ok());
  auto second = engine.OpenCursor(session, t.db, t.query);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(second.status().retryable());
  EXPECT_EQ(engine.NumRequestsShed(), 1u);
  // Close one; the retry is admitted -- shedding is load, not state.
  ASSERT_TRUE(engine.CloseCursor(first.value()).ok());
  EXPECT_TRUE(engine.OpenCursor(session, t.db, t.query).ok());
  const MetricsSnapshot snap = engine.GetMetricsSnapshot();
  EXPECT_EQ(snap.counters.at("serving.requests_shed"), 1);
}

TEST(LoadSheddingTest, PredictedWorkShedCarriesEstimate) {
  ServingOptions options = InlineOptions();
  options.overload_policy.max_predicted_work = 0.001;
  ServingEngine engine(options);
  Instance t = MakePathInstance(3, 100, 20, 9);
  const SessionId session = engine.OpenSession();
  auto shed = engine.OpenCursor(session, t.db, t.query);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(shed.status().retryable());
  ASSERT_TRUE(shed.status().has_work_estimate());
  EXPECT_GT(shed.status().work_estimate(), 0.001);
  EXPECT_EQ(engine.NumRequestsShed(), 1u);
  EXPECT_EQ(engine.NumArtifactsBuilt(), 0u);  // shed before preprocessing
}

// The admission Explain runs under the request's deadline: an expired
// one fails before any planning or preprocessing.
TEST(LoadSheddingTest, ExpiredDeadlineFailsAdmissionPlanning) {
  ServingOptions options = InlineOptions();
  options.overload_policy.max_predicted_work = 1e12;
  ServingEngine engine(options);
  Instance t = MakePathInstance(3, 100, 20, 9);
  const SessionId session = engine.OpenSession();
  ExecutionOptions opts;
  opts.deadline = PastDeadline();
  auto opened = engine.OpenCursor(session, t.db, t.query, {}, opts);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine.NumPlansComputed(), 0u);
  EXPECT_EQ(engine.NumArtifactsBuilt(), 0u);
  EXPECT_EQ(engine.NumRequestsShed(), 0u);
}

TEST(LoadSheddingTest, UnlimitedPolicyNeverSheds) {
  ServingEngine engine(InlineOptions());  // all thresholds 0 = off
  Instance t = MakePathInstance(3, 100, 20, 9);
  const SessionId session = engine.OpenSession();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.OpenCursor(session, t.db, t.query).ok());
  }
  EXPECT_EQ(engine.NumRequestsShed(), 0u);
}

// ------------------------------------------------------ shutdown / drain

TEST(ShutdownTest, RejectsNewWorkAfterShutdown) {
  ServingEngine engine(InlineOptions());
  Instance t = MakePathInstance(2, 20, 10, 5);
  const SessionId session = engine.OpenSession();
  auto id = engine.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(id.ok());
  engine.Shutdown();
  EXPECT_EQ(engine.OpenCursor(session, t.db, t.query).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(engine.Fetch(id.value(), 1).status().code(),
            StatusCode::kUnavailable);
  std::promise<Status> callback_status;
  engine.SubmitFetch(id.value(), 1,
                     [&](CursorId, StatusOr<FetchOutcome> outcome) {
                       callback_status.set_value(outcome.status());
                     });
  EXPECT_EQ(callback_status.get_future().get().code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(engine.DrainAll(4).empty());
  engine.Shutdown();  // idempotent
}

TEST(ShutdownTest, ConcurrentShutdownDrainsInflightWork) {
  ServingOptions options;
  options.num_workers = 4;
  ServingEngine engine(options);
  Instance t = MakePathInstance(2, 40, 12, 5);
  const SessionId session = engine.OpenSession();
  std::vector<CursorId> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = engine.OpenCursor(session, t.db, t.query);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // Clients hammer SubmitFetch until they observe the drain; every
  // callback must run exactly once, either with results or the typed
  // rejection -- and Shutdown must return with no submitted slice
  // outstanding.
  std::atomic<size_t> callbacks{0};
  std::atomic<size_t> rejected{0};
  std::vector<std::thread> clients;
  clients.reserve(ids.size());
  for (const CursorId id : ids) {
    clients.emplace_back([&, id] {
      while (true) {
        std::promise<bool> unavailable;
        engine.SubmitFetch(id, 2,
                           [&](CursorId, StatusOr<FetchOutcome> outcome) {
                             callbacks.fetch_add(1);
                             unavailable.set_value(
                                 !outcome.ok() &&
                                 outcome.status().code() ==
                                     StatusCode::kUnavailable);
                           });
        if (unavailable.get_future().get()) {
          rejected.fetch_add(1);
          return;
        }
      }
    });
  }
  engine.Shutdown();
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(rejected.load(), ids.size());
  EXPECT_GE(callbacks.load(), ids.size());
}

// ------------------------------------------------- chaos (no failpoints)

// Open/fetch/cancel/close across threads while deltas commit, then
// verify the invariants the serving layer promises: budgets never
// overspent, the debt gauge settles to its pre-test level once every
// cursor is gone, and each cursor's stream is rank-ordered.
TEST(ChaosStormTest, ConcurrentCancelKeepsAccountingExact) {
  const int64_t debt_before =
      MetricsRegistry::Global().GetGauge("serving.budget_debt")->value();
  constexpr size_t kWorkBudget = 20000;
  Instance t = MakePathInstance(2, 60, 15, 21);
  {
    ServingOptions options;
    options.num_workers = 4;
    ServingEngine engine(options);
    SessionBudget budget;
    budget.work_budget = kWorkBudget;
    const SessionId session = engine.OpenSession(budget);
    std::atomic<bool> stop{false};
    std::thread mutator([&] {
      Rng rng(77);
      while (!stop.load()) {
        Delta delta;
        RelationDelta& rd = delta.ForRelation(0);
        rd.values.push_back(static_cast<Value>(rng.NextBounded(15)));
        rd.values.push_back(static_cast<Value>(rng.NextBounded(15)));
        rd.weights.push_back(rng.NextDouble());
        const Status s = t.db.ApplyDelta(delta);
        ASSERT_TRUE(s.ok()) << s.message();
      }
    });
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(100 + static_cast<uint64_t>(c));
        for (int round = 0; round < 25; ++round) {
          auto id = engine.OpenCursor(session, t.db, t.query);
          if (!id.ok()) {
            ASSERT_EQ(id.status().code(), StatusCode::kResourceExhausted);
            return;  // session budget drained: a legal storm ending
          }
          double last = -1e300;
          bool cancelled = false;
          for (int slice = 0; slice < 6; ++slice) {
            if (!cancelled && rng.NextBounded(4) == 0) {
              ASSERT_TRUE(engine.CancelCursor(id.value()).ok());
              cancelled = true;
            }
            auto outcome = engine.Fetch(id.value(), 3);
            if (!outcome.ok()) {
              ASSERT_EQ(outcome.status().code(), StatusCode::kCancelled);
              break;
            }
            for (const RankedResult& r : outcome.value().results) {
              ASSERT_GE(r.cost, last) << "torn stream";
              last = r.cost;
            }
            if (outcome.value().cursor_state != CursorState::kActive) break;
          }
          ASSERT_TRUE(engine.CloseCursor(id.value()).ok());
        }
      });
    }
    for (std::thread& c : clients) c.join();
    stop.store(true);
    mutator.join();
    auto stats = engine.GetSessionStats(session);
    ASSERT_TRUE(stats.ok());
    EXPECT_LE(stats.value().work_spent, kWorkBudget) << "budget overspent";
  }
  // Every cursor (and with it any recorded debt) is destroyed.
  const int64_t debt_after =
      MetricsRegistry::Global().GetGauge("serving.budget_debt")->value();
  EXPECT_EQ(debt_after, debt_before) << "leaked session work debt";
}

// ----------------------------------------------------------- failpoints

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }
};

TEST_F(FailpointTest, UnarmedEvaluateIsOk) {
  EXPECT_TRUE(FailpointRegistry::Global().Evaluate("never.armed").ok());
  EXPECT_EQ(FailpointRegistry::Global().hits("never.armed"), 0u);
}

TEST_F(FailpointTest, ErrorActionFirePolicy) {
  auto& registry = FailpointRegistry::Global();
  FailpointSpec spec;
  spec.error = Status::Unavailable("injected");
  spec.skip_first = 2;
  spec.every_n = 2;
  spec.max_fires = 2;
  registry.Arm("test.policy", spec);
  // Evaluations: 1,2 skipped; 3 fires; 4 passes; 5 fires (cap); 6+ pass.
  EXPECT_TRUE(registry.Evaluate("test.policy").ok());
  EXPECT_TRUE(registry.Evaluate("test.policy").ok());
  const Status third = registry.Evaluate("test.policy");
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(registry.Evaluate("test.policy").ok());
  EXPECT_FALSE(registry.Evaluate("test.policy").ok());
  EXPECT_TRUE(registry.Evaluate("test.policy").ok());
  EXPECT_EQ(registry.hits("test.policy"), 2u);
  registry.Disarm("test.policy");
  EXPECT_TRUE(registry.Evaluate("test.policy").ok());
  EXPECT_EQ(registry.hits("test.policy"), 2u);  // counters survive
}

TEST_F(FailpointTest, BlockParksUntilReleased) {
  auto& registry = FailpointRegistry::Global();
  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kBlock;
  registry.Arm("test.block", spec);
  std::atomic<bool> passed{false};
  std::thread parked([&] {
    EXPECT_TRUE(registry.Evaluate("test.block").ok());
    passed.store(true);
  });
  registry.WaitForParked("test.block", 1);
  EXPECT_FALSE(passed.load());
  registry.Release("test.block");
  parked.join();
  EXPECT_TRUE(passed.load());
}

TEST_F(FailpointTest, InjectedOpenCursorFault) {
  if (!kFailpointsEnabled) GTEST_SKIP() << "failpoints compiled out";
  auto& registry = FailpointRegistry::Global();
  FailpointSpec spec;
  spec.error = Status::Unavailable("injected open fault");
  registry.Arm("serving.open_cursor", spec);
  ServingEngine engine(InlineOptions());
  Instance t = MakePathInstance(2, 20, 10, 5);
  const SessionId session = engine.OpenSession();
  auto denied = engine.OpenCursor(session, t.db, t.query);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kUnavailable);
  registry.Disarm("serving.open_cursor");
  EXPECT_TRUE(engine.OpenCursor(session, t.db, t.query).ok());
}

TEST_F(FailpointTest, InjectedApplyDeltaFaultAbortsPreCommit) {
  if (!kFailpointsEnabled) GTEST_SKIP() << "failpoints compiled out";
  auto& registry = FailpointRegistry::Global();
  FailpointSpec spec;
  spec.error = Status::Unavailable("injected delta fault");
  registry.Arm("data.apply_delta", spec);
  Instance t = MakePathInstance(2, 20, 10, 5);
  const uint64_t version_before = t.db.version();
  Delta delta;
  RelationDelta& rd = delta.ForRelation(0);
  rd.values = {1, 2};
  rd.weights = {0.5};
  const Status s = t.db.ApplyDelta(delta);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(t.db.version(), version_before) << "injected fault committed";
  registry.Disarm("data.apply_delta");
  EXPECT_TRUE(t.db.ApplyDelta(delta).ok());
  EXPECT_EQ(t.db.version(), version_before + 1);
}

TEST_F(FailpointTest, InsertFaultsDegradeToCacheMisses) {
  if (!kFailpointsEnabled) GTEST_SKIP() << "failpoints compiled out";
  auto& registry = FailpointRegistry::Global();
  registry.Arm("serving.plan_cache.insert", FailpointSpec{});
  registry.Arm("serving.artifact_cache.insert", FailpointSpec{});
  ServingEngine engine(InlineOptions());
  Instance t = MakePathInstance(2, 20, 10, 5);
  const SessionId session = engine.OpenSession();
  // Both opens succeed -- the injected insert failures only cost the
  // caching -- and the second open rebuilds instead of hitting.
  ASSERT_TRUE(engine.OpenCursor(session, t.db, t.query).ok());
  ASSERT_TRUE(engine.OpenCursor(session, t.db, t.query).ok());
  EXPECT_EQ(engine.NumPlansComputed(), 2u);
  EXPECT_EQ(engine.NumArtifactsBuilt(), 2u);
}

// An injected patch failure degrades to the rebuild a refused refold
// takes: the warm open after a patchable delta builds instead, and the
// stream is still exact.
TEST_F(FailpointTest, InjectedArtifactPatchFaultRebuilds) {
  if (!kFailpointsEnabled) GTEST_SKIP() << "failpoints compiled out";
  auto& registry = FailpointRegistry::Global();
  registry.Arm("serving.artifact.patch", FailpointSpec{});
  ServingEngine engine(InlineOptions());
  Instance t = MakePathInstance(3, 40, 4, 7);
  const SessionId session = engine.OpenSession();
  ASSERT_TRUE(engine.OpenCursor(session, t.db, t.query).ok());

  ASSERT_TRUE(t.db.ApplyDelta(JoiningDelta(t, 0.375)).ok());
  const std::vector<double> want = OracleSortedCosts(t);
  auto warm = engine.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(registry.hits("serving.artifact.patch"), 1u);
  EXPECT_EQ(engine.NumArtifactsBuilt(), 2u);
  EXPECT_EQ(engine.NumArtifactsPatched(), 0u);
  auto outcome = engine.Fetch(warm.value(), SIZE_MAX);
  ASSERT_TRUE(outcome.ok());
  std::vector<double> got;
  for (const RankedResult& r : outcome.value().results) got.push_back(r.cost);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-9) << "rank " << i;
  }
}

TEST_F(FailpointTest, CancelLandsOnParkedSlice) {
  if (!kFailpointsEnabled) GTEST_SKIP() << "failpoints compiled out";
  auto& registry = FailpointRegistry::Global();
  ServingOptions options;
  options.num_workers = 2;
  ServingEngine engine(options);
  Instance t = MakePathInstance(2, 30, 10, 5);
  const SessionId session = engine.OpenSession();
  auto id = engine.OpenCursor(session, t.db, t.query);
  ASSERT_TRUE(id.ok());
  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kBlock;
  registry.Arm("serving.worker.slice", spec);
  std::promise<Status> outcome_status;
  engine.SubmitFetch(id.value(), 8,
                     [&](CursorId, StatusOr<FetchOutcome> outcome) {
                       outcome_status.set_value(outcome.status());
                     });
  // Deterministic handshake: the worker is provably parked inside the
  // slice when the cancel lands, then released to observe it.
  registry.WaitForParked("serving.worker.slice", 1);
  ASSERT_TRUE(engine.CancelCursor(id.value()).ok());
  registry.Release("serving.worker.slice");
  const Status s = outcome_status.get_future().get();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  registry.Disarm("serving.worker.slice");
}

TEST_F(FailpointTest, ChaosStormWithInjectedFaults) {
  if (!kFailpointsEnabled) GTEST_SKIP() << "failpoints compiled out";
  const int64_t debt_before =
      MetricsRegistry::Global().GetGauge("serving.budget_debt")->value();
  auto& registry = FailpointRegistry::Global();
  {
    FailpointSpec open_fault;
    open_fault.error = Status::Unavailable("storm: open fault");
    open_fault.every_n = 5;
    registry.Arm("serving.open_cursor", open_fault);
    FailpointSpec slice_fault;
    slice_fault.error = Status::Unavailable("storm: slice fault");
    slice_fault.every_n = 7;
    registry.Arm("serving.worker.slice", slice_fault);
    FailpointSpec delta_delay;
    delta_delay.action = FailpointSpec::Action::kDelay;
    delta_delay.delay = std::chrono::microseconds(200);
    registry.Arm("data.apply_delta", delta_delay);

    Instance t = MakePathInstance(2, 60, 15, 33);
    ServingOptions options;
    options.num_workers = 4;
    options.overload_policy.max_open_cursors = 64;
    ServingEngine engine(options);
    const SessionId session = engine.OpenSession();
    std::atomic<bool> stop{false};
    std::thread mutator([&] {
      Rng rng(55);
      while (!stop.load()) {
        Delta delta;
        RelationDelta& rd = delta.ForRelation(1);
        rd.values.push_back(static_cast<Value>(rng.NextBounded(15)));
        rd.values.push_back(static_cast<Value>(rng.NextBounded(15)));
        rd.weights.push_back(rng.NextDouble());
        ASSERT_TRUE(t.db.ApplyDelta(delta).ok());
      }
    });
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(200 + static_cast<uint64_t>(c));
        for (int round = 0; round < 20; ++round) {
          auto id = engine.OpenCursor(session, t.db, t.query);
          if (!id.ok()) {
            // Injected faults and shedding are the only legal denials.
            ASSERT_EQ(id.status().code(), StatusCode::kUnavailable);
            continue;
          }
          double last = -1e300;
          for (int slice = 0; slice < 4; ++slice) {
            if (rng.NextBounded(5) == 0) {
              ASSERT_TRUE(engine.CancelCursor(id.value()).ok());
            }
            auto outcome = engine.Fetch(id.value(), 3);
            if (!outcome.ok()) {
              const StatusCode code = outcome.status().code();
              ASSERT_TRUE(code == StatusCode::kUnavailable ||
                          code == StatusCode::kCancelled)
                  << outcome.status().message();
              if (code == StatusCode::kCancelled) break;
              continue;  // injected slice fault: retry
            }
            for (const RankedResult& r : outcome.value().results) {
              ASSERT_GE(r.cost, last) << "torn stream";
              last = r.cost;
            }
            if (outcome.value().cursor_state != CursorState::kActive) break;
          }
          ASSERT_TRUE(engine.CloseCursor(id.value()).ok());
        }
      });
    }
    for (std::thread& c : clients) c.join();
    stop.store(true);
    mutator.join();
    EXPECT_GT(registry.total_fires(), 0u);
    registry.DisarmAll();
  }
  const int64_t debt_after =
      MetricsRegistry::Global().GetGauge("serving.budget_debt")->value();
  EXPECT_EQ(debt_after, debt_before) << "leaked session work debt";
}

}  // namespace
}  // namespace topkjoin
