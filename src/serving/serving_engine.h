// ServingEngine: thread-safe concurrent serving on top of the engine.
//
// Engine (engine.h) opens every ranked stream: it owns the plan,
// artifact and estimator caches and hands out one caller-owned cursor
// per query. This layer admits open requests (lifecycle, session
// budget, load and predicted-work shedding), opens each cursor through
// its own Engine, keeps many cursors under ids and serves their slices
// from a fixed pool of worker threads (or inline, with num_workers = 0):
//
//   * a sharded, mutex-protected cursor table (striped locks keyed by
//     CursorId) gives per-cursor serialization with cross-cursor
//     parallelism (sharded_cursor_table.h);
//   * a worker pool drains a FIFO queue of Fetch slices; cursors that
//     want more re-enqueue at the tail, so admission is fair
//     round-robin (worker_pool.h);
//   * sessions meter aggregate result/work budgets across all of a
//     tenant's cursors with reserve -> spend -> settle accounting, so
//     one heavy query cannot starve the rest (session.h).
//
// Thread-safety: every public method may be called from any thread at
// any time. OpenCursor runs Engine::OpenCursor without holding any
// cursor lock -- the Engine is safe to call concurrently and its
// caches have their own short-held mutexes -- and enumeration holds
// only the cursor's own mutex (the stripe lock covers just the
// lookup). Live updates are fully supported: Engine::OpenCursor pins
// one DatabaseSnapshot and plans/compiles/enumerates against that
// frozen view, so Database::ApplyDelta (and barrier mutations) may run
// concurrently with open cursors -- each cursor drains the snapshot it
// was opened against, bit-stable, while new cursors see the new epoch.
#ifndef TOPKJOIN_SERVING_SERVING_ENGINE_H_
#define TOPKJOIN_SERVING_SERVING_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/engine/engine.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serving/session.h"
#include "src/serving/sharded_cursor_table.h"
#include "src/serving/worker_pool.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace topkjoin {

/// Admission-control thresholds consulted by OpenCursor BEFORE any
/// expensive work. 0 (or 0.0) disables the corresponding check. A
/// request rejected by any of these gets a typed, retryable
/// Status::Unavailable (Status::retryable() is true) and bumps the
/// serving.requests_shed counter; the estimator-driven check also
/// attaches the predicted work (Status::work_estimate()) so clients can
/// triage retry-now vs. retry-later vs. narrow-the-query.
struct OverloadPolicy {
  /// Shed opens once this many cursors are already open.
  size_t max_open_cursors = 0;
  /// Estimator-driven shedding: plan first (Engine::Explain, cheap for
  /// hot queries -- the plan cache already has the estimates), and
  /// shed before any preprocessing when the plan's predicted work
  /// exceeds this. Non-finite estimates (unknown cost) are admitted:
  /// unknown is not the same as heavy.
  double max_predicted_work = 0.0;
};

struct ServingOptions {
  /// Worker threads serving Fetch slices. 0 = no threads: SubmitFetch
  /// and DrainAll run their slices inline on the calling thread (same
  /// scheduling policy, no parallelism) -- the bench baseline mode.
  size_t num_workers = 4;
  /// Load-shedding thresholds (all disabled by default).
  OverloadPolicy overload_policy;
};

/// The outcome of one Fetch slice. `results` is in rank order and
/// continues exactly where the cursor's previous slice stopped.
struct FetchOutcome {
  std::vector<RankedResult> results;
  /// Cursor state after the slice (kActive: more may follow).
  CursorState cursor_state = CursorState::kActive;
  /// True when a *session* budget (not the cursor's own) cut the slice
  /// short; the cursor itself could still make progress if the session's
  /// budgets were extended.
  bool session_dry = false;
};

class ServingEngine {
 public:
  explicit ServingEngine(ServingOptions options = {});

  /// Drains (Shutdown) and joins the workers. Safe to race against
  /// concurrent public calls: entry points that began before the drain
  /// finish normally, later ones get Status::Unavailable.
  ~ServingEngine();

  /// Enters drain mode: new OpenCursor / Fetch / SubmitFetch / DrainAll
  /// calls are rejected with a typed Status::Unavailable, in-flight
  /// calls and already-queued slices run to completion, then Shutdown
  /// returns. Idempotent and thread-safe; the destructor calls it, so
  /// destroying a ServingEngine under load is well-defined.
  void Shutdown() EXCLUDES(lifecycle_mu_);

  // ------------------------------------------------------------ sessions

  /// Opens a session (the budget-fairness unit). Every cursor is opened
  /// under a session and draws on its aggregate budgets.
  SessionId OpenSession(SessionBudget budget = {});

  /// Closes the session and every cursor still open under it. A
  /// concurrent OpenCursor that already resolved the session may leave
  /// its cursor open under the detached (but still enforced) budgets.
  Status CloseSession(SessionId id);

  /// Grants additional aggregate budget to a session.
  Status ExtendSessionBudgets(SessionId id, size_t extra_results,
                              size_t extra_work);

  /// Monitoring snapshot; safe to call from a stats thread at any time.
  StatusOr<SessionStats> GetSessionStats(SessionId id) const;

  // ------------------------------------------------------------- cursors

  /// Admits the request -- shutdown, session lookup, session dryness
  /// (kResourceExhausted), then the OverloadPolicy; a shed request
  /// builds nothing -- opens it with Engine::OpenCursor (same budget,
  /// deadline, cache and snapshot rules) outside any cursor lock, and
  /// registers the cursor under `session`.
  StatusOr<CursorId> OpenCursor(SessionId session, const Database& db,
                                const ConjunctiveQuery& query,
                                const RankingSpec& ranking = {},
                                const ExecutionOptions& opts = {},
                                CursorOptions cursor_options = {});

  Status CloseCursor(CursorId id);

  /// Requests cooperative cancellation of an open cursor. Returns
  /// immediately (kNotFound when the id is closed/unknown); the cursor
  /// observes the flag at its next pull -- including mid-slice, since
  /// the flag is read outside the cursor mutex -- settles its session
  /// accounting exactly as any other terminal state, and reports
  /// CursorState::kCancelled from then on. Subsequent Fetch slices
  /// return Status::Cancelled. Safe from any thread, including while a
  /// worker is parked inside the cursor's slice.
  Status CancelCursor(CursorId id);

  /// Closes every cursor that has not been opened or fetched within the
  /// last `max_idle`, settling its session's bookkeeping -- the backstop
  /// against clients that never CloseSession leaking table entries.
  /// Call it from an operator/maintenance loop; cursors touched by a
  /// concurrent Fetch are refreshed and survive. Returns the number of
  /// cursors evicted.
  size_t EvictIdleCursors(std::chrono::steady_clock::duration max_idle);

  /// Synchronous slice: reserves session budget, pulls up to
  /// `max_results` under the cursor's own mutex, settles the unused
  /// reservation. Thread-safe; slices of one cursor never overlap.
  StatusOr<FetchOutcome> Fetch(CursorId id, size_t max_results);

  /// Grants additional per-cursor budget (see Cursor::ExtendBudgets).
  Status ExtendCursorBudgets(CursorId id, size_t extra_results,
                             size_t extra_work);

  /// Asynchronous slice: enqueues the Fetch on the worker pool; the
  /// callback runs on a worker thread (inline with 0 workers).
  using FetchCallback = std::function<void(CursorId, StatusOr<FetchOutcome>)>;
  void SubmitFetch(CursorId id, size_t max_results, FetchCallback callback);

  /// Round-robin scheduler: admits one `results_per_slice`-sized slice
  /// per open cursor into the queue (in id order), each slice
  /// re-enqueueing at the tail while its cursor stays active and its
  /// session has budget. Blocks until no cursor can make progress;
  /// returns the per-cursor streams, each in rank order.
  /// Cursors opened concurrently with the drain are not admitted.
  std::map<CursorId, std::vector<RankedResult>> DrainAll(
      size_t results_per_slice);

  size_t NumOpenCursors() const { return cursors_.NumCursors(); }
  size_t NumOpenSessions() const;
  size_t num_workers() const { return pool_.num_threads(); }

  /// Full observability snapshot: every process-wide metric (counters,
  /// gauges, log-bucketed histograms from all layers -- planner, T-DP
  /// preprocessing, enumeration, serving) overlaid with this engine's
  /// live operational state (open cursors/sessions, plan- and
  /// artifact-cache counters). Safe to call from a stats thread while
  /// workers drain; hot-path metrics are flushed periodically, so
  /// histogram contents trail the hot loops by at most one flush period
  /// (~4096 results). Serialize with MetricsSnapshot::ToJson().
  MetricsSnapshot GetMetricsSnapshot() const;

  /// Copies the QueryTrace of a cursor opened with
  /// ExecutionOptions::collect_trace (error otherwise). Taken under the
  /// cursor's own mutex, so it is a consistent mid-enumeration view;
  /// totals are refreshed on milestones/flushes and finalized when the
  /// cursor closes.
  StatusOr<QueryTrace> GetQueryTrace(CursorId id);

  /// The Engine's plan-cache stats (see Engine::GetPlanCacheStats).
  PlanCacheStats GetPlanCacheStats() const {
    return engine_.GetPlanCacheStats();
  }
  /// The Engine's artifact-cache stats.
  PlanCacheStats GetArtifactCacheStats() const {
    return engine_.GetArtifactCacheStats();
  }
  /// Plans computed: the plan cache's builds.
  uint64_t NumPlansComputed() const { return GetPlanCacheStats().builds; }
  /// Preprocessing runs: the artifact cache's builds. N warm opens of
  /// the same query leave this at 1.
  uint64_t NumArtifactsBuilt() const { return GetArtifactCacheStats().builds; }
  /// Stale artifacts upgraded by a delta-scoped refold instead of a
  /// rebuild: the artifact cache's patches.
  uint64_t NumArtifactsPatched() const {
    return GetArtifactCacheStats().patches;
  }
  /// OpenCursor requests rejected by the OverloadPolicy (typed
  /// kUnavailable). Also exported as the serving.requests_shed counter.
  uint64_t NumRequestsShed() const {
    return requests_shed_.load(std::memory_order_relaxed);
  }
  /// CancelCursor calls that found their cursor. Also exported as the
  /// serving.cursors_cancelled counter.
  uint64_t NumCursorsCancelled() const {
    return cursors_cancelled_.load(std::memory_order_relaxed);
  }

  /// See Engine::InvalidateCachedPlans: call before destroying a
  /// Database this engine has served.
  void InvalidateCachedPlans(const Database& db) {
    engine_.InvalidateCachedPlans(db);
  }

  /// Test hook: drives the idle-eviction clock deterministically (see
  /// ShardedCursorTable::SetTimeSourceForTesting). nullptr restores the
  /// steady clock.
  void SetIdleClockForTesting(ShardedCursorTable::TimeSource source) {
    cursors_.SetTimeSourceForTesting(source);
  }

 private:
  struct DrainTicket;  // see serving_engine.cc

  /// RAII in-flight registration for the drain handshake: the ctor
  /// admits the call iff Shutdown has not begun; admitted() is false
  /// afterwards and the caller must bail with kUnavailable. Defined in
  /// serving_engine.cc.
  class InflightGuard;

  std::shared_ptr<Session> FindSession(SessionId id) const
      EXCLUDES(sessions_mu_);

  /// The two halves of the OverloadPolicy: the open-cursor limit, and
  /// the predicted work of the request's plan. Both return
  /// kUnavailable and count the shed.
  Status CheckLoadAdmission();
  Status CheckPredictedWorkAdmission(const QueryPlan& plan,
                                     const ExecutionOptions& opts);
  void RunDrainSlice(const std::shared_ptr<DrainTicket>& ticket, CursorId id,
                     size_t results_per_slice, FastClock::Ticks enqueued);

  /// The one Fetch implementation. `queue_wait_ns`, when set, is the
  /// submit->start wait of an asynchronous slice (SubmitFetch /
  /// DrainAll) and is recorded against the session and the global
  /// queue-wait histogram; the synchronous Fetch passes nullopt.
  StatusOr<FetchOutcome> FetchSlice(CursorId id, size_t max_results,
                                    std::optional<uint64_t> queue_wait_ns);

  /// Lock stripes of the cursor table: enough that unrelated cursors
  /// rarely contend on one stripe lock.
  static constexpr size_t kCursorStripes = 16;

  const ServingOptions options_;
  ShardedCursorTable cursors_;
  Engine engine_;
  std::atomic<uint64_t> requests_shed_{0};
  std::atomic<uint64_t> cursors_cancelled_{0};

  /// Drain-mode handshake (see Shutdown). The flag is written under
  /// lifecycle_mu_ but read with a lone acquire load on hot requeue
  /// paths; inflight_ counts public entry points currently between
  /// InflightGuard construction and destruction.
  std::atomic<bool> shutting_down_{false};
  mutable Mutex lifecycle_mu_;
  CondVar lifecycle_cv_;
  size_t inflight_ GUARDED_BY(lifecycle_mu_) = 0;

  mutable Mutex sessions_mu_;
  std::map<SessionId, std::shared_ptr<Session>> sessions_
      GUARDED_BY(sessions_mu_);
  SessionId next_session_id_ GUARDED_BY(sessions_mu_) = 1;

  // Last member: destroyed first, so workers join while the cursor table
  // and sessions are still alive.
  WorkerPool pool_;
};

}  // namespace topkjoin

#endif  // TOPKJOIN_SERVING_SERVING_ENGINE_H_
