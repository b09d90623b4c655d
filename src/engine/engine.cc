#include "src/engine/engine.h"

#include <utility>

#include "src/obs/metrics.h"
#include "src/util/cancellation.h"

namespace topkjoin {

CursorOptions ResolveCursorOptions(CursorOptions options,
                                   const ExecutionOptions& opts) {
  if (!options.result_budget.has_value() && opts.k.has_value()) {
    options.result_budget = opts.k;
  }
  if (!options.deadline.has_value() && opts.deadline.has_value()) {
    options.deadline = opts.deadline;
  }
  return options;
}

StatusOr<ExecutionResult> Engine::Execute(const Database& db,
                                          const ConjunctiveQuery& query,
                                          const RankingSpec& ranking,
                                          const ExecutionOptions& opts) {
  // Honor the deadline before and during plan+compile: an already
  // expired request fails immediately, and the ExecContext scope lets
  // the deep preprocessing loops (T-DP build, bag materialization,
  // batch drain) abort cooperatively mid-build instead of finishing
  // doomed work. The same CancelState then seeds the cursor layer.
  CancelState request_cancel;
  if (opts.deadline.has_value()) {
    request_cancel.SetDeadline(*opts.deadline);
    if (request_cancel.DeadlineExpired()) {
      return Status::DeadlineExceeded("deadline passed before planning");
    }
  }
  ExecContext::Scope cancel_scope(&request_cancel);

  // Pin one snapshot for the whole execution: the plan, the compiled
  // pipeline, and the returned stream all see the same frozen view, so
  // mutating `db` while the stream drains is well-defined (the stream
  // keeps enumerating pre-mutation data; see data/database.h).
  std::shared_ptr<const DatabaseSnapshot> snapshot = db.Snapshot();
  const Database& view = snapshot->view();
  std::shared_ptr<QueryTrace> trace;
  FastClock::Ticks plan_start = 0;
  if (opts.collect_trace) {
    trace = std::make_shared<QueryTrace>();
    trace->snapshot_epoch = snapshot->epoch();
    plan_start = FastClock::Now();
  }
  auto plan = PlanQuery(view, query, ranking, opts,
                        estimators_.For(db, snapshot).get());
  if (!plan.ok()) return plan.status();
  if (trace != nullptr) {
    trace->AddPhase("plan", FastClock::TicksToNs(FastClock::Now() -
                                                 plan_start));
  }

  ExecutionResult result;
  result.plan = std::move(plan).value();
  // The same "compile+preprocess" phase ServingEngine::OpenCursor
  // reports: the artifact build plus minting its stream.
  const FastClock::Ticks compile_start =
      trace != nullptr ? FastClock::Now() : 0;
  auto artifact =
      BuildArtifact(view, query, result.plan, &result.preprocessing);
  if (!artifact.ok()) return artifact.status();
  result.stream = NewEnumeration(*artifact.value(), result.plan, trace);
  if (trace != nullptr) {
    trace->AddPhase("compile+preprocess",
                    FastClock::TicksToNs(FastClock::Now() - compile_start));
  }
  result.trace = std::move(trace);
  result.snapshot = std::move(snapshot);
  return result;
}

StatusOr<QueryPlan> Engine::Explain(const Database& db,
                                    const ConjunctiveQuery& query,
                                    const RankingSpec& ranking,
                                    const ExecutionOptions& opts) const {
  const std::shared_ptr<const DatabaseSnapshot> snapshot = db.Snapshot();
  return PlanQuery(snapshot->view(), query, ranking, opts,
                   estimators_.For(db, snapshot).get());
}

StatusOr<std::unique_ptr<Cursor>> Engine::OpenCursor(
    const Database& db, const ConjunctiveQuery& query,
    const RankingSpec& ranking, const ExecutionOptions& opts,
    CursorOptions cursor_options) {
  auto result = Execute(db, query, ranking, opts);
  if (!result.ok()) return result.status();
  auto cursor = std::make_unique<Cursor>(
      std::move(result.value().stream),
      ResolveCursorOptions(cursor_options, opts));
  cursor->set_trace(std::move(result.value().trace));
  cursor->set_snapshot(std::move(result.value().snapshot));
  return cursor;
}

}  // namespace topkjoin
