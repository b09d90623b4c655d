#include "src/engine/engine.h"

#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "src/data/delta.h"
#include "src/obs/metrics.h"
#include "src/util/cancellation.h"
#include "src/util/failpoint.h"

namespace topkjoin {

namespace {

// A cursor opened without an explicit result budget adopts opts.k.
CursorOptions ResolveCursorOptions(CursorOptions options,
                                   const ExecutionOptions& opts) {
  if (!options.result_budget.has_value()) options.result_budget = opts.k;
  return options;
}

// Arms `cancel` with `deadline`. An already expired request fails
// immediately; otherwise the caller's ExecContext scope over `cancel`
// lets the deep preprocessing loops (T-DP build, bag materialization,
// batch drain) abort cooperatively mid-build instead of finishing
// doomed work.
Status ArmDeadline(
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    CancelState* cancel) {
  if (!deadline.has_value()) return Status::Ok();
  cancel->SetDeadline(*deadline);
  uint32_t force_clock = 1;
  return TerminationStatus(cancel->Poll(&force_clock, 1), "planning");
}

}  // namespace

StatusOr<PlanCache::Result> Engine::CachedPlan(
    const CacheKey& key, const Database& db,
    const std::shared_ptr<const DatabaseSnapshot>& snapshot,
    const ConjunctiveQuery& query, const RankingSpec& ranking,
    const ExecutionOptions& opts) const {
  const Database& view = snapshot->view();
  return plans_.GetOrBuild(
      key, db, *snapshot,
      [&view](const std::shared_ptr<const QueryPlan>& stale,
              const std::vector<AppendDelta>& gap) {
        return RetagPlan(stale, view, gap);
      },
      [&]() -> StatusOr<std::shared_ptr<const QueryPlan>> {
        const std::shared_ptr<const CardinalityEstimator> estimator =
            estimators_.For(db, snapshot);
        auto planned = PlanQuery(view, query, ranking, opts, estimator.get());
        if (!planned.ok()) return planned.status();
        return std::make_shared<const QueryPlan>(std::move(planned).value());
      });
}

StatusOr<ExecutionResult> Engine::Execute(const Database& db,
                                          const ConjunctiveQuery& query,
                                          const RankingSpec& ranking,
                                          const ExecutionOptions& opts) {
  CancelState cancel;
  if (Status armed = ArmDeadline(opts.deadline, &cancel); !armed.ok()) {
    return armed;
  }
  ExecContext::Scope cancel_scope(&cancel);

  // Pin ONE snapshot for the whole open: planning, preprocessing and
  // the stream's entire enumeration run against this frozen view, and
  // every cache is keyed on its epoch. A concurrent ApplyDelta (or
  // barrier mutation) publishes a new epoch for *future* opens without
  // perturbing this one.
  ExecutionResult result;
  result.snapshot = db.Snapshot();
  const Database& view = result.snapshot->view();
  if (opts.collect_trace) {
    result.trace = std::make_shared<QueryTrace>();
    result.trace->snapshot_epoch = result.snapshot->epoch();
  }
  QueryTrace* const trace = result.trace.get();

  // Hot queries skip planning -- the cached QueryPlan already fixes
  // strategy, algorithm, and bag grouping -- and then preprocessing:
  // the artifact cache shares the compiled T-DP/bag artifact across
  // streams. After a small pure-append delta both caches salvage their
  // stale entry: the plan is retagged, the artifact delta-refolded.
  const CacheKey key = PlanFingerprint(db, query, ranking, opts);
  const FastClock::Ticks plan_start = FastClock::Now();
  auto plan = CachedPlan(key, db, result.snapshot, query, ranking, opts);
  if (!plan.ok()) return plan.status();
  const QueryPlan& query_plan = *plan.value().value;
  if (trace != nullptr) {
    trace->plan_cache_hit = plan.value().outcome == CacheOutcome::kHit;
    if (!trace->plan_cache_hit) {
      trace->AddPhase("plan",
                      FastClock::TicksToNs(FastClock::Now() - plan_start));
    }
  }

  const FastClock::Ticks compile_start = FastClock::Now();
  auto artifact = artifacts_.GetOrBuild(
      key, db, *result.snapshot,
      [&view](const std::shared_ptr<const PreprocessingArtifact>& stale,
              const std::vector<AppendDelta>& gap)
          -> std::shared_ptr<const PreprocessingArtifact> {
        if constexpr (kFailpointsEnabled) {
          // An injected patch failure forces the full-rebuild path --
          // the same degradation a real refold refusal produces.
          if (!FailpointRegistry::Global()
                   .Evaluate("serving.artifact.patch")
                   .ok()) {
            return nullptr;
          }
        }
        // Only the delta-touched T-DP groups are refolded; keys outside
        // the existing group structure make TryPatch refuse.
        return stale->TryPatch(view, gap);
      },
      [&] {
        return BuildArtifact(view, query, query_plan, &result.preprocessing);
      });
  if (!artifact.ok()) return artifact.status();
  if (artifact.value().outcome == CacheOutcome::kPatched) {
    // The refold has no internal abort polls (it is delta-sized, not
    // data-sized), but the deadline may have expired across it.
    if (Status aborted = ExecContext::AbortStatus("preprocessing");
        !aborted.ok()) {
      return aborted;
    }
  }
  result.stream =
      NewEnumeration(*artifact.value().value, query_plan, result.trace);
  if (trace != nullptr) {
    trace->artifact_cache_hit =
        artifact.value().outcome == CacheOutcome::kHit;
    // Every open reports the phase: a warm open's near-zero
    // compile+preprocess time is exactly the claim worth tracing.
    trace->AddPhase("compile+preprocess",
                    FastClock::TicksToNs(FastClock::Now() - compile_start));
  }
  result.plan = query_plan;
  return result;
}

StatusOr<QueryPlan> Engine::Explain(const Database& db,
                                    const ConjunctiveQuery& query,
                                    const RankingSpec& ranking,
                                    const ExecutionOptions& opts) const {
  CancelState cancel;
  if (Status armed = ArmDeadline(opts.deadline, &cancel); !armed.ok()) {
    return armed;
  }
  ExecContext::Scope cancel_scope(&cancel);
  auto plan = CachedPlan(PlanFingerprint(db, query, ranking, opts), db,
                         db.Snapshot(), query, ranking, opts);
  if (!plan.ok()) return plan.status();
  return *plan.value().value;
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
  // The open's deadline keeps bounding every pull of the cursor.
  if (opts.deadline.has_value()) {
    cursor->cancel_state()->SetDeadline(*opts.deadline);
  }
  cursor->set_trace(std::move(result.value().trace));
  cursor->set_snapshot(std::move(result.value().snapshot));
  return cursor;
}

void Engine::InvalidateCachedPlans(const Database& db) {
  plans_.InvalidateDatabase(&db);
  artifacts_.InvalidateDatabase(&db);
  estimators_.InvalidateDatabase(&db);
}

}  // namespace topkjoin
