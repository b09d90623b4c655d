// Lint fixture: a hand-rolled cancel/deadline poll outside
// src/util/cancellation.h.
// Never compiled; exists only for lint_invariants.py --self-test.
#include "src/util/cancellation.h"

namespace topkjoin {

bool BadPoll(const CancelState& state) {
  // termination-poll violation: a second copy of CancelState::Poll.
  if (state.cancelled.load(std::memory_order_relaxed)) return true;
  const int64_t dl = state.deadline_ns.load(std::memory_order_relaxed);
  return dl != 0 && SteadyNowNs() >= dl;
}

}  // namespace topkjoin
