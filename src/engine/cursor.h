// Resumable enumeration cursors with per-cursor budgets.
//
// A Cursor wraps a ranked pipeline and meters it: callers pull results
// in slices (Fetch) and may stop and resume at any point without losing
// or repeating ranked results -- the iterator state is the resume token.
// Budgets bound what one enumeration may consume over its lifetime:
//   * result budget: total results the cursor may emit;
//   * work budget:   total RAM-model work units the cursor may spend,
//     charged per pull as the pipeline's measured WorkUnits delta
//     (min 1 -- even a free pull costs the pull itself). Pipelines
//     without instrumentation degrade to one unit per pull. The same
//     units the serving layer charges session budgets with, so the two
//     budget levels are directly comparable. The charge lands after
//     the pull (cost is unknowable beforehand), so a cursor may
//     overshoot its work budget by at most one pull's delay before
//     stopping -- the same bounded-overshoot contract session budgets
//     have.
// Budgets are what let a session manager interleave many concurrent
// enumerations fairly (see engine.h and serving/serving_engine.h).
//
// Thread-safety contract: the mutating operations (Next, Fetch,
// ExtendBudgets) must be externally serialized per cursor -- by the
// owner of an Engine::OpenCursor cursor, by ServingEngine via per-cursor
// locks. The
// observers state()/Done()/results_emitted()/work_used() are safe to
// call concurrently with a mutator from any thread (e.g. a stats
// thread); they read atomic snapshots that are individually consistent
// but not mutually so.
#ifndef TOPKJOIN_ENGINE_CURSOR_H_
#define TOPKJOIN_ENGINE_CURSOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/anyk/ranked_iterator.h"
#include "src/obs/trace.h"
#include "src/util/cancellation.h"

namespace topkjoin {

class DatabaseSnapshot;

/// Handle for a cursor kept in an id table (serving/ServingEngine). Ids
/// are never reused within one table, so a stale id maps to "closed",
/// not to some other caller's cursor.
using CursorId = uint64_t;

/// Lifetime limits for one cursor. nullopt = unlimited. The request's
/// deadline is not a budget: it is ExecutionOptions::deadline, which
/// Engine::OpenCursor arms on the cursor's cancel_state(); once it
/// passes, the cursor terminates with kDeadlineExceeded at its next
/// pull or slice boundary (ExtendBudgets cannot resurrect it).
struct CursorOptions {
  std::optional<size_t> result_budget;
  std::optional<size_t> work_budget;
};

enum class CursorState {
  kActive,            // more results may follow
  kExhausted,         // the underlying stream ran dry
  kResultBudgetHit,   // result budget spent; stream may hold more results
  kWorkBudgetHit,     // work budget spent; stream may hold more results
  kCancelled,         // RequestCancel() landed; terminal
  kDeadlineExceeded,  // the absolute deadline passed; terminal
};

const char* CursorStateName(CursorState state);

/// A metered, resumable handle on a ranked stream. See the thread-safety
/// contract in the file comment: one mutator at a time, any number of
/// concurrent observer reads.
class Cursor {
 public:
  Cursor(std::unique_ptr<RankedIterator> pipeline, CursorOptions options);
  ~Cursor();

  /// Pulls the next result, or nullopt when the stream is exhausted or a
  /// budget is hit (inspect state() to distinguish). When given,
  /// `*units_charged` receives the work units this call added to
  /// work_used(): at least 1 when the pipeline was pulled, 0 when the
  /// cursor was already stopped and nothing was pulled.
  std::optional<RankedResult> Next(size_t* units_charged = nullptr);

  /// Pulls up to `max_results` results in rank order. A shorter (or
  /// empty) slice means exhaustion or a budget stop, never a skip:
  /// calling Fetch again after an empty slice returns empty again unless
  /// budgets are raised via ExtendBudgets. Fetch(0) is a no-op that
  /// touches neither the pipeline nor the cursor state.
  std::vector<RankedResult> Fetch(size_t max_results);

  /// Grants additional budget to a stopped (or active) cursor. A cursor
  /// stopped on a budget becomes active again -- and resumes exactly
  /// where it left off -- only when the grant actually clears the stop:
  /// ExtendBudgets(0, 0) preserves the state, and an exhausted cursor
  /// stays exhausted no matter the grant.
  void ExtendBudgets(size_t extra_results, size_t extra_work);

  /// Requests cooperative cancellation. Safe from ANY thread, without
  /// the cursor's external lock: the flag is atomic and the in-flight
  /// mutator observes it at its next pull. Terminal once observed --
  /// the cursor reports kCancelled and never resumes.
  void RequestCancel() { cancel_state_->RequestCancel(); }

  /// The shared cancel/deadline state (for wiring into an
  /// ExecContext::Scope or handing to a watchdog). Never null.
  const std::shared_ptr<CancelState>& cancel_state() const {
    return cancel_state_;
  }

  /// Slice-boundary poll: transitions an active cursor to kCancelled /
  /// kDeadlineExceeded when the flag is set or the deadline has passed
  /// (always reads the clock -- the per-pull path inside Next() samples
  /// it on a countdown instead). Returns the possibly-updated state.
  /// Mutator-serialized, like Next().
  CursorState PollTermination();

  CursorState state() const {
    return state_.load(std::memory_order_relaxed);
  }
  bool Done() const { return state() != CursorState::kActive; }
  size_t results_emitted() const {
    return results_emitted_.load(std::memory_order_relaxed);
  }
  size_t work_used() const {
    return work_used_.load(std::memory_order_relaxed);
  }

  /// Serving-layer scratch: session work units a past pull performed
  /// but could not reserve (the session went dry mid-pull). The next
  /// slice pays the debt before pulling again, keeping session spend
  /// work-proportional without ever overspending. Mutator-serialized,
  /// exactly like Next().
  size_t session_work_debt() const { return session_work_debt_; }
  /// Also maintains the process-wide "serving.budget_debt" gauge (the
  /// sum of outstanding debt across cursors); the destructor settles
  /// whatever is left so closed cursors cannot leak gauge value.
  void set_session_work_debt(size_t debt);

  /// Optional per-query trace shared with the pipeline (see
  /// ExecutionOptions::collect_trace). The pipeline appends milestones
  /// under the same external serialization as Next(), so read it only
  /// under the cursor's lock (ServingEngine::GetQueryTrace does).
  void set_trace(std::shared_ptr<QueryTrace> trace) {
    trace_ = std::move(trace);
  }
  const std::shared_ptr<QueryTrace>& trace() const { return trace_; }

  /// Pins the database snapshot the cursor's pipeline was compiled
  /// over for the cursor's whole lifetime: enumeration in flight stays
  /// defined -- and bit-stable -- however the live database mutates
  /// underneath it (see data/database.h).
  void set_snapshot(std::shared_ptr<const DatabaseSnapshot> snapshot) {
    snapshot_ = std::move(snapshot);
  }
  const std::shared_ptr<const DatabaseSnapshot>& snapshot() const {
    return snapshot_;
  }

 private:
  /// Polls cancel_state() (CancelState::Poll) and, when it reports a
  /// stop, moves the cursor to kCancelled / kDeadlineExceeded. True
  /// when it did.
  bool StopIfTerminated();

  /// Pulls between deadline clock reads inside Next() -- the same
  /// sampling trick as InstrumentedIterator::kDelaySamplePeriod.
  static constexpr uint32_t kDeadlineSamplePeriod = 16;

  std::unique_ptr<RankedIterator> pipeline_;
  CursorOptions options_;
  std::shared_ptr<QueryTrace> trace_;
  std::shared_ptr<const DatabaseSnapshot> snapshot_;
  std::shared_ptr<CancelState> cancel_state_;
  std::atomic<CursorState> state_{CursorState::kActive};
  std::atomic<size_t> results_emitted_{0};
  std::atomic<size_t> work_used_{0};
  size_t session_work_debt_ = 0;
  uint32_t deadline_countdown_ = 1;  // mutator-serialized, like Next()
};

}  // namespace topkjoin

#endif  // TOPKJOIN_ENGINE_CURSOR_H_
