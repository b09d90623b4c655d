// A catalog of named relations with snapshot-consistent live updates.
//
// Atoms of a conjunctive query reference relations by index into a
// Database, which supports self-joins naturally (two atoms may reference
// the same relation, as in the paper's graph-pattern queries expressed
// as self-joins of the edge set).
//
// ## Snapshots and the commit-then-publish protocol
//
// Serving threads never read live relations directly: they pin a
// DatabaseSnapshot (shared_ptr, obtained from Snapshot()) whose view is
// a chunk-sharing frozen copy of every relation, stamped with the epoch
// it was built at. Because Relation storage is copy-on-write chunks
// (data/relation.h), a snapshot is O(#relations + #chunks) to build and
// bit-stable forever after, no matter what the writer does next.
//
// Writers mutate under the internal mutex and *publish* in two steps:
// first the mutation fully completes and a fresh snapshot of the result
// is installed, only then does version() advance (release store). A
// concurrent reader therefore either sees the old version (and the old,
// still-valid snapshot) or the new version (whose snapshot is already
// installed) -- the "bump-before-mutate" torn-cache window is closed by
// construction.
//
// ## Delta log
//
// ApplyDelta appends tuples and records, per committed version, which
// rows of which relations were appended (AppendDelta). DeltasSince lets
// incremental maintainers (reservoir samples, T-DP artifact patches)
// catch a stale derived structure up without a rebuild. Structural
// mutations (Add, or anything through mutable_relation, which may sort
// or filter) are barriers: they clear the log, so DeltasSince reports
// the gap as uncoverable and callers fall back to rebuilding.
#ifndef TOPKJOIN_DATA_DATABASE_H_
#define TOPKJOIN_DATA_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/data/delta.h"
#include "src/data/relation.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace topkjoin {

class Database;
class DatabaseSnapshot;

/// RAII handle for in-place mutation of one relation. Holds the
/// database mutex for its whole lifetime (concurrent Snapshot() calls
/// block until commit) and publishes the new version + snapshot on
/// destruction -- after the caller's writes, never before.
class [[nodiscard]] MutableRelationRef {
 public:
  MutableRelationRef(const MutableRelationRef&) = delete;
  MutableRelationRef& operator=(const MutableRelationRef&) = delete;
  MutableRelationRef(MutableRelationRef&&) = delete;
  MutableRelationRef& operator=(MutableRelationRef&&) = delete;
  // SAFETY: releases db_->mu_ acquired by the constructor (see the
  // constructor note: a cross-function guard object the analysis
  // cannot model); the Locked helpers it commits through carry
  // REQUIRES(mu_) and are checked at every other call site.
  ~MutableRelationRef() NO_THREAD_SAFETY_ANALYSIS;

  Relation* operator->() { return relation_; }
  Relation& operator*() { return *relation_; }

 private:
  friend class Database;
  // SAFETY: the guard owns db->mu_ from construction to destruction --
  // a critical section spanning two functions and the caller's scope,
  // which the intraprocedural analysis cannot express for an object
  // returned by value (SCOPED_CAPABILITY tracks block-scoped locals
  // only). The commit protocol itself stays checked: everything the
  // destructor calls is REQUIRES(mu_)-annotated and exercised under
  // the TSAN CI job.
  MutableRelationRef(Database* db, Relation* relation)
      NO_THREAD_SAFETY_ANALYSIS;

  Database* db_;
  Relation* relation_;
};

/// Owns a set of relations. Relations are stable under addition (stored
/// via unique_ptr), so raw pointers handed out remain valid.
///
/// Thread model: any number of concurrent readers (Snapshot, version,
/// relation, DeltasSince) interleave safely with writers (ApplyDelta,
/// Add, mutable_relation). Writers serialize on the internal mutex.
/// Reading live relations via relation() while a writer is active is
/// the caller's race to manage -- concurrency-safe readers go through
/// Snapshot().
class Database {
 public:
  Database() = default;

  // std::atomic/Mutex members suppress the implicit moves; tests move
  // instances by value during single-threaded setup, so restore them
  // explicitly. Moving concurrently with any other access is UB.
  //
  // SAFETY: a move reads the source's mu_-guarded fields without its
  // lock; that is sound only under the documented contract above (no
  // concurrent access to either object during the move), which the
  // analysis has no way to see.
  Database(Database&& other) noexcept NO_THREAD_SAFETY_ANALYSIS;
  Database& operator=(Database&& other) noexcept NO_THREAD_SAFETY_ANALYSIS;

  /// Moves a relation into the catalog; returns its id. Acts as a
  /// delta-log barrier (derived caches must rebuild, not patch).
  RelationId Add(Relation relation) EXCLUDES(mu_);

  size_t NumRelations() const { return relations_.size(); }

  const Relation& relation(RelationId id) const {
    TOPKJOIN_DCHECK(id < relations_.size());
    return *relations_[id];
  }

  /// In-place mutable access. The returned guard holds the database
  /// mutex until it is destroyed, then commits: snapshot first, version
  /// bump second. Acts as a delta-log barrier (the guard may have
  /// sorted/filtered, which invalidates row ids).
  MutableRelationRef mutable_relation(RelationId id) EXCLUDES(mu_);

  /// Atomically appends `delta` across its relations, logs the appended
  /// row ranges, and publishes a new snapshot epoch. Errors (bad
  /// relation id, values/weights arity mismatch) leave the database
  /// untouched.
  Status ApplyDelta(const Delta& delta) EXCLUDES(mu_);

  /// The currently published snapshot: a frozen, chunk-sharing view of
  /// every relation plus the epoch it represents. Cheap when nothing
  /// changed (returns the cached shared_ptr). Never returns null.
  std::shared_ptr<const DatabaseSnapshot> Snapshot() const EXCLUDES(mu_);

  /// Fills `out` with the append records needed to catch a reader up
  /// from `from_version` to the current version, in commit order.
  /// Returns false when the gap is not coverable (barrier in between,
  /// log trimmed, or `from_version` is from another database) -- the
  /// caller must rebuild. `out` empty with true means already current.
  bool DeltasSince(uint64_t from_version, std::vector<AppendDelta>* out) const
      EXCLUDES(mu_);

  /// Monotonically increasing data version: advanced by Add, ApplyDelta
  /// and every mutable_relation commit -- always *after* the mutation
  /// and its snapshot are in place (commit-then-publish). Cross-request
  /// caches key on (database identity, version). Seeded from a
  /// process-wide epoch counter, so a new Database that happens to be
  /// allocated at a freed one's address cannot replay the old object's
  /// versions (see Engine::InvalidateCachedPlans for the
  /// belt-and-suspenders explicit drop).
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Looks up a relation by name; returns nullptr when absent.
  const Relation* Find(const std::string& name) const;

  /// Size of the largest relation ("n" in the paper's complexity bounds).
  size_t MaxRelationSize() const;

 private:
  friend class MutableRelationRef;

  static uint64_t NextEpochSeed();

  /// Oldest log entries are dropped (whole versions at a time) beyond
  /// this many records; readers further behind rebuild instead.
  static constexpr size_t kMaxLogEntries = 1024;

  /// Builds a frozen chunk-sharing copy stamped with `epoch`.
  ///
  /// SAFETY: the body writes guarded fields of the snapshot's *view_*
  /// -- a freshly allocated Database no other thread can reach until
  /// the shared_ptr is returned and published, so its mutex need not
  /// (and cannot meaningfully) be held. The analysis checks locks per
  /// instance and would demand snap->view_.mu_ here. The REQUIRES on
  /// this database's own mu_ still binds callers.
  std::shared_ptr<const DatabaseSnapshot> BuildSnapshotLocked(uint64_t epoch)
      const REQUIRES(mu_) NO_THREAD_SAFETY_ANALYSIS;

  /// Installs the snapshot for `new_version`, then advances version_.
  void PublishLocked(uint64_t new_version) REQUIRES(mu_);

  /// Clears the log: mutations between log_floor_ and the current
  /// version can no longer be described as pure appends.
  void BarrierLocked(uint64_t new_version) REQUIRES(mu_);

  void TrimLogLocked() REQUIRES(mu_);

  // Stable under addition (unique_ptr slots); readers of live relations
  // via relation() manage their own race per the thread-model note
  // above, so the vector itself is deliberately not guarded.
  std::vector<std::unique_ptr<Relation>> relations_;
  std::atomic<uint64_t> version_{NextEpochSeed()};

  mutable Mutex mu_;
  mutable std::shared_ptr<const DatabaseSnapshot> published_ GUARDED_BY(mu_);
  std::deque<AppendDelta> log_ GUARDED_BY(mu_);
  // DeltasSince(from) is answerable iff from >= log_floor_.
  uint64_t log_floor_ GUARDED_BY(mu_) =
      version_.load(std::memory_order_relaxed);
};

/// An immutable view of a Database at one epoch. The view is itself a
/// Database (chunk-sharing frozen copies of every relation, version()
/// == epoch()), so every `const Database&` consumer -- planner,
/// executor, estimator, T-DP build -- works on a snapshot unchanged.
/// Held by shared_ptr; cursors, cached artifacts and estimator entries
/// pin the snapshot they were built from.
class DatabaseSnapshot {
 public:
  DatabaseSnapshot(const DatabaseSnapshot&) = delete;
  DatabaseSnapshot& operator=(const DatabaseSnapshot&) = delete;

  const Database& view() const { return view_; }
  uint64_t epoch() const { return epoch_; }

 private:
  friend class Database;
  DatabaseSnapshot() = default;

  Database view_;
  uint64_t epoch_ = 0;
};

}  // namespace topkjoin

#endif  // TOPKJOIN_DATA_DATABASE_H_
