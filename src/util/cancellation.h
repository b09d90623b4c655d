// Cooperative cancellation + absolute deadlines for long-running work.
//
// Two cooperating pieces:
//
//   * CancelState -- one atomic cancellation flag + absolute deadline,
//     shared between the thread doing the work and any thread that
//     wants to stop it (ServingEngine::CancelCursor flips the flag of
//     an in-flight cursor without taking its slice mutex). Its Poll()
//     is the one termination check in the tree: the cancel flag on
//     every call, the deadline clock only every `stride` calls
//     (mirroring InstrumentedIterator's countdown trick), so even
//     per-row and per-pull checks stay off the profile.
//     TerminationStatus() is the one mapping from its result to a
//     typed Status.
//
//   * ExecContext -- a thread-local scope that makes the *current*
//     CancelState visible to deep preprocessing loops (T-DP build, bag
//     materialization, batch drain) without threading a parameter
//     through every template layer. The loops call
//     ExecContext::ShouldAbort(), which costs a thread-local load and
//     a null check when no scope is installed -- the common case.
//
// A request has one deadline, ExecutionOptions::deadline; the engine
// arms it on the open's CancelState and on the cursor's (engine.cc).
//
// The protocol is cooperative: a loop that observes ShouldAbort()
// breaks out, leaving its partial state behind; the phase owner
// (executor::BuildArtifact, Engine::Execute) then converts
// ExecContext::AbortStatus() into a typed error and discards the
// partial artifact. Nothing half-built is ever published.
#ifndef TOPKJOIN_UTIL_CANCELLATION_H_
#define TOPKJOIN_UTIL_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/status.h"

namespace topkjoin {

/// Steady-clock now as nanoseconds since the clock's epoch -- the
/// representation CancelState stores deadlines in (0 = no deadline;
/// the steady epoch is process start, so 0 is never a real deadline).
inline int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t SteadyPointNs(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

/// Shared cancellation/deadline state. Writers (CancelCursor, the
/// deadline setter) and readers (enumeration pulls, build loops) may be
/// on different threads; all fields are atomics, no lock needed.
struct CancelState {
  std::atomic<bool> cancelled{false};
  /// Absolute steady-clock deadline in ns-since-epoch; 0 = none.
  std::atomic<int64_t> deadline_ns{0};

  void RequestCancel() { cancelled.store(true, std::memory_order_release); }
  void SetDeadline(std::chrono::steady_clock::time_point tp) {
    deadline_ns.store(SteadyPointNs(tp), std::memory_order_release);
  }

  /// The termination poll: kCancelled once the flag is set, else
  /// kDeadlineExceeded once a set deadline has passed, else kOk. The
  /// flag is one relaxed load per call; the clock is read only when
  /// the caller-owned `*countdown` runs out, which restarts it at
  /// `stride` -- so a countdown of 1 forces a read. Without a deadline
  /// the countdown is left alone.
  StatusCode Poll(uint32_t* countdown, uint32_t stride) const {
    if (cancelled.load(std::memory_order_relaxed)) {
      return StatusCode::kCancelled;
    }
    const int64_t dl = deadline_ns.load(std::memory_order_relaxed);
    if (dl == 0 || --*countdown != 0) return StatusCode::kOk;
    *countdown = stride;
    return SteadyNowNs() >= dl ? StatusCode::kDeadlineExceeded
                               : StatusCode::kOk;
  }
};

/// A Poll() result as a typed Status naming `what` (the phase or
/// cursor that stopped); Ok for any code but kCancelled and
/// kDeadlineExceeded.
inline Status TerminationStatus(StatusCode code, std::string_view what) {
  switch (code) {
    case StatusCode::kCancelled:
      return Status::Cancelled(std::string(what) + " was cancelled");
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::string(what) +
                                      " exceeded its deadline");
    default:
      return Status::Ok();
  }
}

/// Thread-local cancellation scope for preprocessing phases. Install a
/// Scope around a build (OpenCursor / Execute do); the build's inner
/// loops poll ShouldAbort(). Scopes nest (the previous state is
/// restored on destruction), and a thread with no scope installed pays
/// only the null check.
class ExecContext {
 private:
  /// Clock reads are amortized over this many polls (the
  /// InstrumentedIterator sampling trick; a T-DP row step is ~tens of
  /// ns, so the deadline is still honored within ~tens of us).
  static constexpr uint32_t kClockStride = 256;

  struct Tls {
    const CancelState* state = nullptr;
    uint32_t countdown = 1;
    StatusCode code = StatusCode::kOk;
  };

  static Tls& tls() {
    thread_local Tls t;
    return t;
  }

 public:
  class Scope {
   public:
    explicit Scope(const CancelState* state) : saved_(tls()) {
      Tls& t = tls();
      t.state = state;
      t.code = StatusCode::kOk;
      t.countdown = 1;  // first poll reads the clock
    }
    ~Scope() { tls() = saved_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tls saved_;
  };

  /// The cheap cooperative check for inner loops. False when no scope
  /// is installed (two instructions); sticky once it fires.
  static bool ShouldAbort() {
    Tls& t = tls();
    if (t.state == nullptr) [[likely]] {
      return false;
    }
    if (t.code == StatusCode::kOk) {
      t.code = t.state->Poll(&t.countdown, kClockStride);
    }
    return t.code != StatusCode::kOk;
  }

  /// Why the current scope aborted (kOk when it has not). Note the
  /// abort is detected by polling: a phase that finished between polls
  /// reports kOk even if the deadline passed meanwhile -- the next
  /// boundary check (slice start, cursor pull) catches it.
  static StatusCode abort_code() { return tls().code; }

  /// abort_code() as a typed Status; Ok when the scope has not aborted.
  /// `what` names the phase for the error message.
  static Status AbortStatus(std::string_view what) {
    return TerminationStatus(abort_code(), what);
  }
};

}  // namespace topkjoin

#endif  // TOPKJOIN_UTIL_CANCELLATION_H_
