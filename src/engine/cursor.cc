#include "src/engine/cursor.h"

#include <algorithm>
#include <utility>

// Completes DatabaseSnapshot so the shared_ptr pin in ~Cursor can
// delete through it.
#include "src/data/database.h"
#include "src/obs/metrics.h"
#include "src/util/common.h"

namespace topkjoin {
namespace {

// Sum of outstanding session work debt across live cursors. Interned
// once; cursors on any thread update it through the returned pointer.
Gauge* DebtGauge() {
  static Gauge* gauge = MetricsRegistry::Global().GetGauge(
      "serving.budget_debt");
  return gauge;
}

}  // namespace

const char* CursorStateName(CursorState state) {
  switch (state) {
    case CursorState::kActive:
      return "active";
    case CursorState::kExhausted:
      return "exhausted";
    case CursorState::kResultBudgetHit:
      return "result-budget-hit";
    case CursorState::kWorkBudgetHit:
      return "work-budget-hit";
    case CursorState::kCancelled:
      return "cancelled";
    case CursorState::kDeadlineExceeded:
      return "deadline-exceeded";
  }
  return "unknown";
}

Cursor::Cursor(std::unique_ptr<RankedIterator> pipeline, CursorOptions options)
    : pipeline_(std::move(pipeline)),
      options_(options),
      cancel_state_(std::make_shared<CancelState>()) {
  TOPKJOIN_CHECK(pipeline_ != nullptr);
}

Cursor::~Cursor() {
  // Settle outstanding debt so a cursor closed mid-slice cannot leave
  // the process-wide debt gauge inflated forever.
  if (session_work_debt_ != 0) {
    DebtGauge()->Add(-static_cast<int64_t>(session_work_debt_));
  }
}

bool Cursor::StopIfTerminated() {
  // The deadline clock is read only every kDeadlineSamplePeriod pulls
  // (or when PollTermination forces it), so a deadline-bearing
  // cursor's pull stays as cheap as an undeadlined one.
  const StatusCode code =
      cancel_state_->Poll(&deadline_countdown_, kDeadlineSamplePeriod);
  if (code == StatusCode::kOk) return false;
  state_.store(code == StatusCode::kCancelled ? CursorState::kCancelled
                                              : CursorState::kDeadlineExceeded,
               std::memory_order_relaxed);
  return true;
}

CursorState Cursor::PollTermination() {
  if (state() == CursorState::kActive) {
    deadline_countdown_ = 1;  // force the clock read
    StopIfTerminated();
  }
  return state();
}

std::optional<RankedResult> Cursor::Next(size_t* units_charged) {
  if (units_charged != nullptr) *units_charged = 0;
  if (state() != CursorState::kActive) return std::nullopt;
  if (StopIfTerminated()) return std::nullopt;
  if (options_.result_budget.has_value() &&
      results_emitted() >= *options_.result_budget) {
    state_.store(CursorState::kResultBudgetHit, std::memory_order_relaxed);
    return std::nullopt;
  }
  if (options_.work_budget.has_value() &&
      work_used() >= *options_.work_budget) {
    state_.store(CursorState::kWorkBudgetHit, std::memory_order_relaxed);
    return std::nullopt;
  }
  // Charge the measured RAM-model cost of this pull (the pipeline's
  // WorkUnits delta), with a one-unit floor: exhaustion probes and
  // uninstrumented pipelines (WorkUnits() == 0 forever) still pay for
  // the pull itself, which also guarantees forward progress against
  // the budget. The charge is at least 1, so a zero *units_charged
  // means "no pull happened".
  const int64_t units_before = pipeline_->WorkUnits();
  auto result = pipeline_->Next();
  const int64_t delta = pipeline_->WorkUnits() - units_before;
  const size_t units = delta > 1 ? static_cast<size_t>(delta) : size_t{1};
  work_used_.fetch_add(units, std::memory_order_relaxed);
  if (units_charged != nullptr) *units_charged = units;
  if (!result.has_value()) {
    state_.store(CursorState::kExhausted, std::memory_order_relaxed);
    return std::nullopt;
  }
  results_emitted_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

void Cursor::set_session_work_debt(size_t debt) {
  if (debt != session_work_debt_) {
    DebtGauge()->Add(static_cast<int64_t>(debt) -
                     static_cast<int64_t>(session_work_debt_));
  }
  session_work_debt_ = debt;
}

std::vector<RankedResult> Cursor::Fetch(size_t max_results) {
  std::vector<RankedResult> slice;
  if (max_results == 0) return slice;
  // max_results is caller-controlled and may be a "drain the rest"
  // sentinel like SIZE_MAX; cap the reservation.
  slice.reserve(std::min<size_t>(max_results, 1024));
  while (slice.size() < max_results) {
    auto result = Next();
    if (!result.has_value()) break;
    slice.push_back(std::move(*result));
  }
  return slice;
}

void Cursor::ExtendBudgets(size_t extra_results, size_t extra_work) {
  // Saturating: a SIZE_MAX-ish "effectively unlimited" grant must not
  // wrap the budget around to a tiny value.
  const auto extend = [](std::optional<size_t>& budget, size_t extra) {
    if (!budget.has_value()) return;
    *budget = (static_cast<size_t>(-1) - *budget < extra)
                  ? static_cast<size_t>(-1)
                  : *budget + extra;
  };
  extend(options_.result_budget, extra_results);
  extend(options_.work_budget, extra_work);
  // An exhausted stream stays exhausted -- and cancelled/expired
  // cursors stay terminal; a budget stop resumes only when the grant
  // leaves headroom (ExtendBudgets(0, 0) must be a no-op).
  const CursorState s = state();
  if (s == CursorState::kResultBudgetHit &&
      (!options_.result_budget.has_value() ||
       results_emitted() < *options_.result_budget)) {
    state_.store(CursorState::kActive, std::memory_order_relaxed);
  } else if (s == CursorState::kWorkBudgetHit &&
             (!options_.work_budget.has_value() ||
              work_used() < *options_.work_budget)) {
    state_.store(CursorState::kActive, std::memory_order_relaxed);
  }
}

}  // namespace topkjoin
