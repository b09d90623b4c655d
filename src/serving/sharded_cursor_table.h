// A sharded, mutex-protected cursor table: id -> Cursor ownership for
// the serving layer.
//
// Cursors are spread over a fixed number of lock stripes keyed by
// CursorId (ids are allocated round-robin from one atomic counter, so
// the stripes stay balanced). The stripe mutex covers only table
// bookkeeping -- lookup, insert, erase, the idle sweep; the work done
// on a cursor (the whole Fetch slice run through WithCursor) is
// serialized by a per-cursor mutex instead. Two cursors that hash to
// the same stripe therefore fetch fully in parallel: a long slice
// (e.g. Fetch(id, SIZE_MAX) draining a huge stream) never
// head-of-line-blocks its stripe siblings or a whole-table sweep.
#ifndef TOPKJOIN_SERVING_SHARDED_CURSOR_TABLE_H_
#define TOPKJOIN_SERVING_SHARDED_CURSOR_TABLE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/engine/cursor.h"
#include "src/serving/session.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace topkjoin {

/// Thread-safe cursor storage. Every cursor is owned by (charged to) a
/// Session; the session pointer rides along in the stripe so a Fetch
/// needs only one stripe-lock acquisition for the lookup.
///
/// Lifetime: entries hold the cursor, its mutex, and its session as
/// shared_ptrs. WithCursor copies those references under the stripe
/// lock, releases it, then runs `fn` under the per-cursor mutex -- so
/// Erase/EraseOwnedBy/EvictIdle can remove the entry concurrently
/// without blocking on an in-flight slice; the cursor is destroyed when
/// the slice's reference (the last one) drops. A caller whose cursor is
/// erased mid-slice finishes the slice normally; the next lookup of
/// that id reports "closed".
class ShardedCursorTable {
 public:
  explicit ShardedCursorTable(size_t num_stripes);

  /// Takes ownership; returns a globally unique id (never reused).
  CursorId Insert(std::unique_ptr<Cursor> cursor,
                  std::shared_ptr<Session> session);

  /// Runs `fn(cursor, session)` under the cursor's own mutex (the
  /// stripe lock is held only for the lookup); returns false when the
  /// id is closed/unknown. `fn` may call back into the table for
  /// *other* cursors, but not for `id` itself (the cursor mutex is not
  /// recursive).
  bool WithCursor(CursorId id,
                  const std::function<void(Cursor&, Session&)>& fn);

  /// Looks up the cursor WITHOUT taking its per-cursor mutex: only the
  /// stripe lock, and no idle-clock touch. This is the cancellation
  /// path -- CancelCursor must land while a slice is mid-flight on the
  /// cursor mutex, and a cancel must not count as activity that saves
  /// the cursor from the idle sweep. Callers may only use the returned
  /// cursor's thread-safe surface (RequestCancel, state).
  std::shared_ptr<Cursor> FindCursor(CursorId id) const;

  /// Unlinks the cursor (destroyed when the last in-flight reference
  /// drops); returns its session so the caller can update bookkeeping,
  /// or nullptr when the id is closed/unknown. Does not wait for an
  /// in-flight WithCursor on the same id.
  std::shared_ptr<Session> Erase(CursorId id);

  /// Unlinks every cursor owned by `session`; returns how many.
  size_t EraseOwnedBy(const Session* session);

  /// Unlinks every cursor not touched (Insert or WithCursor) within
  /// the last `max_idle`: the leak backstop for clients that never
  /// CloseSession/CloseCursor (ROADMAP "cursor eviction by idle time").
  /// Returns the evicted cursors' owning sessions so the caller can
  /// settle per-session bookkeeping (one entry per evicted cursor).
  /// Never blocks on in-flight slices; a cursor mid-Fetch completes its
  /// slice on the caller's still-shared reference.
  std::vector<std::shared_ptr<Session>> EvictIdle(
      std::chrono::steady_clock::duration max_idle);

  /// Live ids in increasing order (the round-robin admission order).
  /// A snapshot: concurrent opens/closes may change the set immediately.
  std::vector<CursorId> Ids() const;

  size_t NumCursors() const;
  size_t num_stripes() const { return stripes_.size(); }

  /// Replaces the idle clock (steady_clock::now by default) so tests
  /// can drive EvictIdle deterministically instead of sleeping.
  using TimeSource = std::chrono::steady_clock::time_point (*)();
  void SetTimeSourceForTesting(TimeSource source);

 private:
  /// One live cursor: the cursor itself, the mutex serializing its
  /// slices, the owning session, and the last time it was inserted or
  /// handed to a WithCursor body (the idle clock EvictIdle sweeps by).
  /// All shared_ptrs so an unlink never races an in-flight slice.
  struct Entry {
    std::shared_ptr<Cursor> cursor;
    std::shared_ptr<Mutex> mu;
    std::shared_ptr<Session> session;
    std::chrono::steady_clock::time_point last_used;
  };

  /// Lock discipline (PR 7, now compiler-checked): the stripe mutex
  /// covers ONLY the entries map -- lookup, insert, erase, the idle
  /// sweep. Slice work on a cursor runs under Entry::mu after the
  /// stripe lock is released; the two are never held together, so a
  /// parked slice cannot block its stripe siblings.
  struct Stripe {
    mutable Mutex mu;
    std::map<CursorId, Entry> entries GUARDED_BY(mu);
  };

  Stripe& stripe_for(CursorId id) { return stripes_[id % stripes_.size()]; }
  const Stripe& stripe_for(CursorId id) const {
    return stripes_[id % stripes_.size()];
  }

  std::vector<Stripe> stripes_;
  std::atomic<CursorId> next_id_{1};
  std::atomic<TimeSource> time_source_;
};

}  // namespace topkjoin

#endif  // TOPKJOIN_SERVING_SHARDED_CURSOR_TABLE_H_
