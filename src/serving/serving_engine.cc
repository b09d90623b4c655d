#include "src/serving/serving_engine.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/util/cancellation.h"
#include "src/util/common.h"
#include "src/util/failpoint.h"

namespace topkjoin {

namespace {

Status NoCursorError(CursorId id) {
  return Status::NotFound("no open cursor with id " + std::to_string(id));
}

Status NoSessionError(SessionId id) {
  return Status::NotFound("no open session with id " + std::to_string(id));
}

Status ShuttingDownError() {
  return Status::Unavailable("serving engine is shutting down");
}

// Reserves and immediately spends up to `amount` work units from the
// session ledger; returns the unpaid remainder (> 0 means the session
// ran dry mid-payment). The only way Fetch converts performed work into
// session spend, for both debt payoff and post-pull settlement.
size_t PayWork(Session& session, size_t amount) {
  while (amount > 0) {
    const size_t grant = session.ReserveWork(amount);
    if (grant == 0) break;
    session.SettleWork(grant, grant);
    amount -= grant;
  }
  return amount;
}

// Overlays one cache's stats as <prefix>.hits, .misses, ... counters
// and the <prefix>.entries gauge.
void OverlayCacheStats(const std::string& prefix, const PlanCacheStats& stats,
                       MetricsSnapshot* snap) {
  const std::pair<const char*, uint64_t> counters[] = {
      {".hits", stats.hits},
      {".misses", stats.misses},
      {".patches", stats.patches},
      {".builds", stats.builds},
      {".invalidations", stats.invalidations},
      {".evictions", stats.evictions}};
  for (const auto& [suffix, value] : counters) {
    snap->counters[prefix + suffix] = static_cast<int64_t>(value);
  }
  snap->gauges[prefix + ".entries"] = static_cast<int64_t>(stats.entries);
}

}  // namespace

// ------------------------------------------------------------- lifecycle

/// See the header: registers one in-flight public call iff the drain
/// has not begun. The flag is checked under lifecycle_mu_, the same
/// mutex Shutdown sets it under, so an admitted call is either counted
/// before Shutdown reads inflight_ (and is waited for) or observes the
/// flag and bails -- there is no third interleaving.
class ServingEngine::InflightGuard {
 public:
  explicit InflightGuard(ServingEngine* engine) : engine_(engine) {
    MutexLock lock(&engine_->lifecycle_mu_);
    if (engine_->shutting_down_.load(std::memory_order_relaxed)) return;
    ++engine_->inflight_;
    admitted_ = true;
  }
  ~InflightGuard() {
    if (!admitted_) return;
    bool last = false;
    {
      MutexLock lock(&engine_->lifecycle_mu_);
      last = --engine_->inflight_ == 0;
    }
    if (last) engine_->lifecycle_cv_.NotifyAll();
  }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

  bool admitted() const { return admitted_; }

 private:
  ServingEngine* engine_;
  bool admitted_ = false;
};

ServingEngine::ServingEngine(ServingOptions options)
    : options_(options),
      cursors_(kCursorStripes),
      pool_(options.num_workers) {}

void ServingEngine::Shutdown() {
  {
    MutexLock lock(&lifecycle_mu_);
    // Under the mutex: an InflightGuard that won admission before this
    // store is visible in inflight_ and waited for below.
    shutting_down_.store(true, std::memory_order_release);
    while (inflight_ != 0) lifecycle_cv_.Wait(&lifecycle_mu_);
  }
  // Every public entry point has returned and none will admit again;
  // what remains is already-queued pool work (SubmitFetch callbacks,
  // drain slices winding down) -- let it finish.
  pool_.WaitIdle();
}

ServingEngine::~ServingEngine() { Shutdown(); }

// -------------------------------------------------------------- sessions

SessionId ServingEngine::OpenSession(SessionBudget budget) {
  MutexLock lock(&sessions_mu_);
  const SessionId id = next_session_id_++;
  sessions_.emplace(id, std::make_shared<Session>(budget));
  return id;
}

std::shared_ptr<Session> ServingEngine::FindSession(SessionId id) const {
  MutexLock lock(&sessions_mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

Status ServingEngine::CloseSession(SessionId id) {
  std::shared_ptr<Session> session;
  {
    MutexLock lock(&sessions_mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return NoSessionError(id);
    session = std::move(it->second);
    sessions_.erase(it);
  }
  // Sweep the session's cursors outside sessions_mu_ (stripe locks and
  // sessions_mu_ are never nested, in either order).
  cursors_.EraseOwnedBy(session.get());
  return Status::Ok();
}

Status ServingEngine::ExtendSessionBudgets(SessionId id, size_t extra_results,
                                           size_t extra_work) {
  const std::shared_ptr<Session> session = FindSession(id);
  if (session == nullptr) return NoSessionError(id);
  session->ExtendBudgets(extra_results, extra_work);
  return Status::Ok();
}

StatusOr<SessionStats> ServingEngine::GetSessionStats(SessionId id) const {
  const std::shared_ptr<Session> session = FindSession(id);
  if (session == nullptr) return NoSessionError(id);
  return session->Stats();
}

size_t ServingEngine::NumOpenSessions() const {
  MutexLock lock(&sessions_mu_);
  return sessions_.size();
}

// --------------------------------------------------------------- cursors

Status ServingEngine::CheckLoadAdmission() {
  const size_t max_open = options_.overload_policy.max_open_cursors;
  if (max_open == 0 || cursors_.NumCursors() < max_open) return Status::Ok();
  requests_shed_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Global().GetCounter("serving.requests_shed")->Increment();
  return Status::Unavailable("shed: open-cursor high-water mark (" +
                             std::to_string(max_open) + ") reached");
}

Status ServingEngine::CheckPredictedWorkAdmission(
    const QueryPlan& plan, const ExecutionOptions& opts) {
  const OverloadPolicy& policy = options_.overload_policy;
  // Predicted cost of serving this cursor: the intermediate work the
  // preprocessing pass must do regardless, plus the output the client
  // can actually pull (capped by k when the request bounds it). A
  // non-finite estimate means the estimator had nothing to say --
  // admit, because unknown is not the same as heavy.
  double output = plan.estimated_output;
  if (opts.k.has_value()) {
    output = std::min(output, static_cast<double>(*opts.k));
  }
  const double predicted = plan.estimated_intermediate + output;
  if (!std::isfinite(predicted) || predicted <= policy.max_predicted_work) {
    return Status::Ok();
  }
  requests_shed_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Global().GetCounter("serving.requests_shed")->Increment();
  return Status::Unavailable("shed: predicted work exceeds policy limit")
      .WithWorkEstimate(predicted);
}

StatusOr<CursorId> ServingEngine::OpenCursor(SessionId session_id,
                                             const Database& db,
                                             const ConjunctiveQuery& query,
                                             const RankingSpec& ranking,
                                             const ExecutionOptions& opts,
                                             CursorOptions cursor_options) {
  InflightGuard inflight(this);
  if (!inflight.admitted()) return ShuttingDownError();
  std::shared_ptr<Session> session = FindSession(session_id);
  if (session == nullptr) return NoSessionError(session_id);
  if constexpr (kFailpointsEnabled) {
    const Status s = FailpointRegistry::Global().Evaluate("serving.open_cursor");
    if (!s.ok()) return s;
  }
  // A session with no budget headroom cannot fetch a single result;
  // opening (and possibly preprocessing) for it is pure waste. The
  // typed kResourceExhausted tells the client to ExtendSessionBudgets
  // and retry, distinct from load shedding's retryable kUnavailable.
  if (session->Dry()) {
    return Status::ResourceExhausted(
        "session " + std::to_string(session_id) +
        " has no remaining budget; extend and retry");
  }
  if (Status admitted = CheckLoadAdmission(); !admitted.ok()) {
    return admitted;
  }

  if (options_.overload_policy.max_predicted_work > 0.0) {
    // Plan first and shed a too-heavy request before any preprocessing.
    // Explain reads through the Engine's plan cache, so the open below
    // does not plan again; opts.deadline governs planning here as it
    // governs the open.
    auto plan = engine_.Explain(db, query, ranking, opts);
    if (!plan.ok()) return plan.status();
    if (Status admitted = CheckPredictedWorkAdmission(plan.value(), opts);
        !admitted.ok()) {
      return admitted;
    }
  }

  ScopedTimer open_timer(
      MetricsRegistry::Global().GetHistogram("serving.open_cursor_ns"));
  auto cursor = engine_.OpenCursor(db, query, ranking, opts, cursor_options);
  if (!cursor.ok()) return cursor.status();
  MetricsRegistry::Global().GetCounter("serving.cursors_opened")->Increment();
  session->AddCursor();
  return cursors_.Insert(std::move(cursor).value(), std::move(session));
}

Status ServingEngine::CloseCursor(CursorId id) {
  const std::shared_ptr<Session> session = cursors_.Erase(id);
  if (session == nullptr) return NoCursorError(id);
  session->RemoveCursor();
  return Status::Ok();
}

Status ServingEngine::CancelCursor(CursorId id) {
  // FindCursor takes only the stripe lock -- never the cursor mutex --
  // so the cancel lands even while a worker is mid-slice on this very
  // cursor; the slice's next pull observes the flag and stops.
  const std::shared_ptr<Cursor> cursor = cursors_.FindCursor(id);
  if (cursor == nullptr) return NoCursorError(id);
  cursor->RequestCancel();
  cursors_cancelled_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Global().GetCounter("serving.cursors_cancelled")
      ->Increment();
  return Status::Ok();
}

size_t ServingEngine::EvictIdleCursors(
    std::chrono::steady_clock::duration max_idle) {
  const auto evicted = cursors_.EvictIdle(max_idle);
  for (const std::shared_ptr<Session>& session : evicted) {
    session->RemoveCursor();
  }
  if (!evicted.empty()) {
    MetricsRegistry::Global()
        .GetCounter("serving.cursors_evicted")
        ->Add(static_cast<int64_t>(evicted.size()));
  }
  return evicted.size();
}

StatusOr<FetchOutcome> ServingEngine::Fetch(CursorId id, size_t max_results) {
  InflightGuard inflight(this);
  if (!inflight.admitted()) return ShuttingDownError();
  return FetchSlice(id, max_results, std::nullopt);
}

StatusOr<FetchOutcome> ServingEngine::FetchSlice(
    CursorId id, size_t max_results, std::optional<uint64_t> queue_wait_ns) {
  // Deliberately NOT gated on shutdown: slices already queued when the
  // drain began must run to completion (settling their reservations),
  // and Shutdown waits for them via pool_.WaitIdle().
  if constexpr (kFailpointsEnabled) {
    const Status s =
        FailpointRegistry::Global().Evaluate("serving.worker.slice");
    if (!s.ok()) return s;
  }
  if (queue_wait_ns.has_value()) {
    MetricsRegistry::Global()
        .GetHistogram("serving.queue_wait_ns")
        ->Record(*queue_wait_ns);
  }
  ScopedTimer slice_timer(
      MetricsRegistry::Global().GetHistogram("serving.slice_service_ns"));
  FetchOutcome out;
  Status typed_error = Status::Ok();
  const bool found =
      cursors_.WithCursor(id, [&](Cursor& cursor, Session& session) {
        session.RecordSlice(queue_wait_ns.value_or(0));
        // Force a deadline-clock read at the slice boundary (the
        // in-pull check is countdown-sampled); a slice that STARTS on a
        // cancelled / expired cursor reports the typed error instead of
        // an empty outcome. A cursor tripped MID-slice below instead
        // returns ok with the results pulled before the trip and the
        // terminal cursor_state -- the stream is never torn.
        const CursorState at_entry = cursor.PollTermination();
        if (at_entry == CursorState::kCancelled ||
            at_entry == CursorState::kDeadlineExceeded) {
          typed_error = TerminationStatus(
              at_entry == CursorState::kCancelled
                  ? StatusCode::kCancelled
                  : StatusCode::kDeadlineExceeded,
              "cursor " + std::to_string(id));
          return;
        }
        out.cursor_state = at_entry;
        if (max_results == 0) return;

        // Session work is charged the pipeline work units Cursor::Next
        // charged the pull (its RankedIterator::WorkUnits delta, floored
        // at 1), not one unit per pull: a deep-rank pull that drains
        // group heaps costs what it actually did. Reservation always precedes spend -- a
        // one-unit ante before the pull, the measured remainder after
        // it -- so the budget can never be overspent. A pull is
        // indivisible, though: units the session could not cover are
        // carried as cursor work debt and must be paid off before that
        // cursor pulls again, keeping accounting exact across slices.
        while (out.results.size() < max_results) {
          // Pay outstanding debt from a previous pull first.
          const size_t debt =
              PayWork(session, cursor.session_work_debt());
          cursor.set_session_work_debt(debt);
          if (debt > 0) {
            out.session_dry = true;
            break;
          }
          const size_t r = session.ReserveResults(1);
          if (r == 0) {
            out.session_dry = true;
            break;
          }
          const size_t w = session.ReserveWork(1);  // the pull's ante
          if (w == 0) {
            session.SettleResults(1, 0);
            out.session_dry = true;
            break;
          }
          size_t units = 0;
          auto result = cursor.Next(&units);
          if (units == 0) {
            // The cursor was already stopped (its own budget): nothing
            // was pulled, so both unit reservations are refunded.
            session.SettleWork(1, 0);
            session.SettleResults(1, 0);
            break;
          }
          session.SettleWork(1, 1);  // the ante covers the first unit
          const size_t extra = PayWork(session, units - 1);
          if (extra > 0) {
            // Mid-pull dryness: record the shortfall; the slice ends
            // after delivering what the pull already produced.
            cursor.set_session_work_debt(extra);
            out.session_dry = true;
          }
          if (!result.has_value()) {
            session.SettleResults(1, 0);  // pull found no result
            break;
          }
          session.SettleResults(1, 1);
          out.results.push_back(std::move(*result));
          if (out.session_dry) break;
        }
        out.cursor_state = cursor.state();
      });
  if (!found) return NoCursorError(id);
  if (!typed_error.ok()) return typed_error;
  return out;
}

Status ServingEngine::ExtendCursorBudgets(CursorId id, size_t extra_results,
                                          size_t extra_work) {
  const bool found =
      cursors_.WithCursor(id, [&](Cursor& cursor, Session& session) {
        (void)session;
        cursor.ExtendBudgets(extra_results, extra_work);
      });
  return found ? Status::Ok() : NoCursorError(id);
}

void ServingEngine::SubmitFetch(CursorId id, size_t max_results,
                                FetchCallback callback) {
  TOPKJOIN_CHECK(callback != nullptr);
  InflightGuard inflight(this);
  if (!inflight.admitted()) {
    // The rejection is still delivered through the callback -- callers
    // wired for asynchronous completion get exactly one invocation
    // either way.
    callback(id, ShuttingDownError());
    return;
  }
  const FastClock::Ticks enqueued = FastClock::Now();
  pool_.Submit(
      [this, id, max_results, enqueued, callback = std::move(callback)] {
        callback(id, FetchSlice(id, max_results,
                                FastClock::TicksToNs(FastClock::Now() -
                                                     enqueued)));
      });
}

// -------------------------------------------------------------- draining

/// Shared state of one DrainAll call. `pending` counts cursors whose
/// slice chain has not finished; the caller blocks until it reaches 0,
/// then re-sweeps cursors that stopped on (possibly transient) session
/// dryness until a sweep makes no progress.
struct ServingEngine::DrainTicket {
  Mutex mu;
  CondVar done_cv;
  std::map<CursorId, std::vector<RankedResult>> results GUARDED_BY(mu);
  size_t pending GUARDED_BY(mu) = 0;
  // Total results across all slices.
  size_t produced GUARDED_BY(mu) = 0;
  // Active cursors stopped by dry sessions.
  std::vector<CursorId> dried GUARDED_BY(mu);
};

void ServingEngine::RunDrainSlice(const std::shared_ptr<DrainTicket>& ticket,
                                  CursorId id, size_t results_per_slice,
                                  FastClock::Ticks enqueued) {
  auto outcome = FetchSlice(
      id, results_per_slice,
      FastClock::TicksToNs(FastClock::Now() - enqueued));
  // Keep going while the cursor is active and its session has budget; a
  // closed cursor (!ok) or any stop condition ends this cursor's chain.
  // A drain overtaken by Shutdown winds down too: the chain stops
  // requeueing, pending reaches 0, and the blocked DrainAll returns
  // with whatever was produced.
  const bool requeue = outcome.ok() &&
                       outcome.value().cursor_state == CursorState::kActive &&
                       !outcome.value().session_dry &&
                       !shutting_down_.load(std::memory_order_acquire);
  {
    MutexLock lock(&ticket->mu);
    if (outcome.ok() && !outcome.value().results.empty()) {
      auto& sink = ticket->results[id];
      ticket->produced += outcome.value().results.size();
      for (RankedResult& r : outcome.value().results) {
        sink.push_back(std::move(r));
      }
    }
    if (!requeue) {
      // Dryness can be transient (a sibling slice's unit reservation,
      // refunded a moment later); remember the cursor for a re-sweep
      // instead of dropping it for good.
      if (outcome.ok() && outcome.value().session_dry &&
          outcome.value().cursor_state == CursorState::kActive) {
        ticket->dried.push_back(id);
      }
      if (--ticket->pending == 0) ticket->done_cv.NotifyAll();
      return;
    }
  }
  // Tail re-enqueue: every other waiting cursor gets a slice first.
  const FastClock::Ticks requeued = FastClock::Now();
  pool_.Submit([this, ticket, id, results_per_slice, requeued] {
    RunDrainSlice(ticket, id, results_per_slice, requeued);
  });
}

std::map<CursorId, std::vector<RankedResult>> ServingEngine::DrainAll(
    size_t results_per_slice) {
  InflightGuard inflight(this);
  if (!inflight.admitted()) return {};
  results_per_slice = std::max<size_t>(1, results_per_slice);
  auto ticket = std::make_shared<DrainTicket>();
  if (cursors_.NumCursors() == 0) return {};

  // Admit every cursor from one pool task rather than the caller: in
  // inline mode the first Submit starts draining immediately, so
  // admitting inside a task puts all first slices in the queue before
  // any slice (or its tail requeue) runs -- round-robin stays fair in
  // every worker configuration, including zero.
  const auto admit = [this, ticket,
                      results_per_slice](std::vector<CursorId> ids) {
    pool_.Submit([this, ticket, ids = std::move(ids), results_per_slice] {
      for (const CursorId id : ids) {
        const FastClock::Ticks enqueued = FastClock::Now();
        pool_.Submit([this, ticket, id, results_per_slice, enqueued] {
          RunDrainSlice(ticket, id, results_per_slice, enqueued);
        });
      }
    });
  };

  std::vector<CursorId> round = cursors_.Ids();
  size_t produced_before_round = 0;
  while (true) {
    std::vector<CursorId> retried = round;  // for the termination check
    std::sort(retried.begin(), retried.end());
    {
      MutexLock lock(&ticket->mu);
      ticket->pending = round.size();
    }
    admit(std::move(round));
    MutexLock lock(&ticket->mu);
    while (ticket->pending != 0) ticket->done_cv.Wait(&ticket->mu);
    if (ticket->dried.empty() ||
        shutting_down_.load(std::memory_order_acquire)) {
      return std::move(ticket->results);
    }
    // Re-sweep dry-stopped cursors until dryness is provably permanent:
    // a round that produced nothing AND re-dried exactly the cursors it
    // retried moved no budget at all (no results consumed, and refunds
    // only come from cursors that exit the drain), so the session state
    // is unchanged and no retry can ever succeed absent external budget
    // extensions. A round failing either condition shrank the cursor
    // set or consumed budget -- both bounded, so this terminates.
    std::sort(ticket->dried.begin(), ticket->dried.end());
    if (ticket->produced == produced_before_round &&
        ticket->dried == retried) {
      return std::move(ticket->results);
    }
    produced_before_round = ticket->produced;
    round.clear();
    round.swap(ticket->dried);
  }
}

// --------------------------------------------------------- observability

MetricsSnapshot ServingEngine::GetMetricsSnapshot() const {
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  // Overlay live operational state this engine owns. These are derived
  // levels (not recordings).
  snap.gauges["serving.open_cursors"] =
      static_cast<int64_t>(cursors_.NumCursors());
  snap.gauges["serving.open_sessions"] =
      static_cast<int64_t>(NumOpenSessions());
  snap.counters["serving.requests_shed"] =
      static_cast<int64_t>(requests_shed_.load(std::memory_order_relaxed));
  snap.counters["serving.cursors_cancelled"] = static_cast<int64_t>(
      cursors_cancelled_.load(std::memory_order_relaxed));
  snap.gauges["serving.queue_depth"] =
      static_cast<int64_t>(pool_.QueueDepth());
  OverlayCacheStats("serving.plan_cache", GetPlanCacheStats(), &snap);
  OverlayCacheStats("serving.artifact_cache", GetArtifactCacheStats(), &snap);
  return snap;
}

StatusOr<QueryTrace> ServingEngine::GetQueryTrace(CursorId id) {
  std::optional<QueryTrace> trace;
  const bool found =
      cursors_.WithCursor(id, [&](Cursor& cursor, Session& session) {
        (void)session;
        if (cursor.trace() != nullptr) trace = *cursor.trace();
      });
  if (!found) return NoCursorError(id);
  if (!trace.has_value()) {
    return Status::Error("cursor " + std::to_string(id) +
                         " was not opened with collect_trace");
  }
  return *std::move(trace);
}

}  // namespace topkjoin
