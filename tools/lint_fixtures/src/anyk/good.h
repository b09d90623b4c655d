// Lint fixture: a file that satisfies every invariant, including the
// patterns the linter must NOT flag (commented mentions of std::mutex,
// a gated failpoint, SAFETY-annotated suppression).
// Never compiled; exists only for lint_invariants.py --self-test.
#ifndef TOPKJOIN_TOOLS_LINT_FIXTURES_SRC_ANYK_GOOD_H_
#define TOPKJOIN_TOOLS_LINT_FIXTURES_SRC_ANYK_GOOD_H_

#include "src/util/failpoint.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace topkjoin {

// A comment may say std::mutex or sleep_for without tripping anything.

inline Status EvaluateGatedFailpoint() {
  if constexpr (kFailpointsEnabled) {
    const Status s = FailpointRegistry::Global().Evaluate("fixture.gated");
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

struct Good {
  // SAFETY: fixture demonstrating a documented suppression; the real
  // rules for when one is acceptable live in ISSUE 9 / README.
  void Documented() NO_THREAD_SAFETY_ANALYSIS {}

  Mutex mu;
  int value GUARDED_BY(mu) = 0;
};

}  // namespace topkjoin

#endif  // TOPKJOIN_TOOLS_LINT_FIXTURES_SRC_ANYK_GOOD_H_
