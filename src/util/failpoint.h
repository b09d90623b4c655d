// Deterministic fault injection, compiled out by default.
//
// A failpoint is a named hook on a failure-prone path (OpenCursor,
// cache insert/patch, ApplyDelta, worker slice dispatch). Tests arm a
// failpoint by name with an action -- return an error, sleep, or park
// on a latch until released -- and a fire policy (skip the first N
// evaluations, fire every N-th, cap total fires), then drive the real
// code path; the chaos tests in tests/robustness_test.cc storm the
// serving engine this way and assert the invariants hold.
//
// Zero-cost by default: the registry compiles in every build (so tests and benches can read its counters
// unconditionally), but call sites MUST be gated
//
//   if constexpr (kFailpointsEnabled) {
//     const Status s = FailpointRegistry::Global().Evaluate("name");
//     if (!s.ok()) return s;
//   }
//
// so a default build (-DTOPKJOIN_FAILPOINTS=OFF) pays nothing -- not
// even the branch. tools/lint_invariants.py enforces the gate on every
// src/ call site.
#ifndef TOPKJOIN_UTIL_FAILPOINT_H_
#define TOPKJOIN_UTIL_FAILPOINT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

#ifndef TOPKJOIN_FAILPOINTS_ENABLED
#define TOPKJOIN_FAILPOINTS_ENABLED 0
#endif

namespace topkjoin {

/// Build with -DTOPKJOIN_FAILPOINTS=ON to compile the Evaluate calls
/// into the serving/data paths; the CI `failpoints` and `tsan` jobs do.
inline constexpr bool kFailpointsEnabled = TOPKJOIN_FAILPOINTS_ENABLED != 0;

/// What an armed failpoint does when its fire policy says "fire".
struct FailpointSpec {
  enum class Action {
    kError,  // Evaluate returns `error`
    kDelay,  // Evaluate sleeps `delay`, then returns Ok
    kBlock,  // Evaluate parks until Release()/Disarm(); returns Ok
  };
  Action action = Action::kError;
  /// Returned by kError fires. Defaults to a retryable rejection, the
  /// shape most injected faults take.
  Status error = Status::Unavailable("failpoint fired");
  /// Slept by kDelay fires (widens race windows deterministically).
  std::chrono::nanoseconds delay{0};

  // Fire policy: skip the first `skip_first` evaluations entirely,
  // then fire on every `every_n`-th of the rest, at most `max_fires`
  // times. Defaults fire on every evaluation. "Fail the 3rd insert
  // only" = {skip_first: 2, max_fires: 1}.
  uint64_t skip_first = 0;
  uint64_t every_n = 1;
  uint64_t max_fires = UINT64_MAX;
};

/// Process-wide registry of named failpoints. All methods are
/// thread-safe; Evaluate on an unarmed (or never-armed) name is Ok.
class FailpointRegistry {
 public:
  static FailpointRegistry& Global();

  /// Arms (or re-arms, resetting counters) the named failpoint.
  void Arm(const std::string& name, FailpointSpec spec) EXCLUDES(mu_);

  /// Disarms one/all failpoints; parked kBlock threads are released.
  /// Counters survive disarming (hits() stays readable).
  void Disarm(const std::string& name) EXCLUDES(mu_);
  void DisarmAll() EXCLUDES(mu_);

  /// The hook call sites invoke (gated on kFailpointsEnabled). Applies
  /// the fire policy and the armed action; Ok when unarmed, filtered
  /// out by the policy, or after a kDelay/kBlock fire completes.
  Status Evaluate(const char* name) EXCLUDES(mu_);

  /// Unparks every thread blocked in the named kBlock failpoint and
  /// lets future evaluations pass without parking.
  void Release(const std::string& name) EXCLUDES(mu_);

  /// Blocks until >= `parked` threads are parked in the named kBlock
  /// failpoint -- the deterministic handshake for cancel-mid-slice
  /// tests (no sleeps).
  void WaitForParked(const std::string& name, size_t parked) EXCLUDES(mu_);

  /// Times the named failpoint fired (0 for never-armed names).
  uint64_t hits(const std::string& name) const EXCLUDES(mu_);
  /// Total fires across all failpoints since process start. Stays 0 in
  /// a failpoints-off build (nothing calls Evaluate) -- bench_e17
  /// asserts exactly that.
  uint64_t total_fires() const {
    return total_fires_.load(std::memory_order_relaxed);
  }

 private:
  struct Point {
    FailpointSpec spec;
    bool armed = false;
    bool released = false;  // kBlock: parked threads may leave
    uint64_t evals = 0;
    uint64_t fires = 0;
    size_t parked = 0;
  };

  FailpointRegistry() = default;

  mutable Mutex mu_;
  CondVar cv_;  // parked threads + WaitForParked waiters
  // Entries are never erased (Disarm clears `armed`, keeps counters),
  // so references held across a cv wait stay valid.
  std::map<std::string, Point> points_ GUARDED_BY(mu_);
  std::atomic<uint64_t> total_fires_{0};
};

}  // namespace topkjoin

#endif  // TOPKJOIN_UTIL_FAILPOINT_H_
