// One epoch-versioned LRU cache: the rules shared by every cache that
// holds something derived from a database at one snapshot epoch.
//
// Ranked enumeration is preprocessing followed by cheap enumeration, so
// Engine makes repeat queries cheap by caching everything
// before the first result: the cardinality estimator, the QueryPlan,
// and the preprocessing artifact (full reducer, bags, T-DP). Each is a
// VersionedCache<T> of shared_ptr<const T>: a cached value is immutable,
// a hit hands out shared ownership, and eviction only drops the cache's
// own reference.
//
// GetOrBuild(key, live_db, snapshot, patch, build) resolves a request
// pinned at snapshot.epoch():
//   * hit   -- the entry is at exactly that epoch: served unchanged.
//   * newer -- the entry is from a LATER epoch (a racing request pinned
//              after a delta got there first): a plain miss. The caller
//              builds for itself and the newer entry is kept.
//   * older -- the stale value is taken out and handed to `patch`,
//              outside the lock, with the delta-log gap from its epoch
//              up to -- never past -- the pinned epoch. If the log
//              cannot cover the gap (a barrier mutation or a trimmed
//              log) or the patch refuses, the caller builds.
// The result is inserted unless a newer entry holds the key (an insert
// never downgrades), then the least recently used entry beyond capacity
// is evicted. Capacity 0 turns caching off.
//
// Counting, in stats() and in the registry counters <name>_hits,
// <name>_misses and <name>_patches:
//   hit   -> hits;   patch -> misses + patches;   build -> misses + builds.
//   invalidations: entries dropped without being salvaged (stale and
//   unpatchable, or InvalidateDatabase). evictions: LRU capacity drops.
//
// Thread-safety: every method may be called concurrently. Only the
// index and LRU bookkeeping run under the mutex; patches and builds run
// outside it, so two concurrent first misses on one (key, epoch) may
// both build, and the insert keeps one of them.
#ifndef TOPKJOIN_DATA_VERSIONED_CACHE_H_
#define TOPKJOIN_DATA_VERSIONED_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/data/database.h"
#include "src/data/delta.h"
#include "src/obs/metrics.h"
#include "src/util/failpoint.h"
#include "src/util/hash.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace topkjoin {

/// Identity of a cached value: the Database object it derives from plus
/// an encoding of everything else it depends on (empty when it depends
/// on the database alone). The epoch is the entry's version, not part
/// of the key.
struct CacheKey {
  CacheKey() = default;
  CacheKey(const Database* database, std::vector<uint64_t> words)
      : db(database), encoded(std::move(words)) {
    hash = HashMix(0x706c616e63616368ULL, reinterpret_cast<uintptr_t>(db));
    for (const uint64_t word : encoded) hash = HashMix(hash, word);
  }

  const Database* db = nullptr;
  std::vector<uint64_t> encoded;
  uint64_t hash = 0;

  bool operator==(const CacheKey& other) const {
    return db == other.db && encoded == other.encoded;
  }
};

/// Lifetime counters (see the counting rule above); `entries` is the
/// current size.
struct VersionedCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t patches = 0;
  uint64_t builds = 0;
  uint64_t invalidations = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
};

/// How GetOrBuild produced its value.
enum class CacheOutcome { kHit, kPatched, kBuilt };

template <typename T>
class VersionedCache {
 public:
  using Value = std::shared_ptr<const T>;

  struct Result {
    Value value;
    CacheOutcome outcome = CacheOutcome::kBuilt;
  };

  /// `name` prefixes the registry counters (<name>_hits, ...) and names
  /// the insert failpoint (<name>.insert): an injected insert fault
  /// leaves the request served but its value uncached.
  VersionedCache(const std::string& name, size_t capacity)
      : capacity_(capacity),
        insert_failpoint_(name + ".insert"),
        hits_counter_(MetricsRegistry::Global().GetCounter(name + "_hits")),
        misses_counter_(
            MetricsRegistry::Global().GetCounter(name + "_misses")),
        patches_counter_(
            MetricsRegistry::Global().GetCounter(name + "_patches")) {}

  VersionedCache(const VersionedCache&) = delete;
  VersionedCache& operator=(const VersionedCache&) = delete;

  /// The value for `key` at `snapshot`'s epoch (see the file comment).
  /// `live_db` is the database `snapshot` was taken from; its delta log
  /// describes the gap a stale entry has to cover.
  ///   patch(const Value& stale, const std::vector<AppendDelta>& gap)
  ///       -> Value, nullptr to refuse;
  ///   build() -> StatusOr<Value>, whose error GetOrBuild returns.
  template <typename Patch, typename Build>
  StatusOr<Result> GetOrBuild(const CacheKey& key, const Database& live_db,
                              const DatabaseSnapshot& snapshot, Patch&& patch,
                              Build&& build) EXCLUDES(mu_) {
    const uint64_t epoch = snapshot.epoch();
    Value stale;
    uint64_t stale_epoch = 0;
    {
      MutexLock lock(&mu_);
      const auto it = index_.find(key);
      if (it != index_.end() && it->second->epoch == epoch) {
        lru_.splice(lru_.begin(), lru_, it->second);
        ++stats_.hits;
        hits_counter_->Increment();
        return Result{it->second->value, CacheOutcome::kHit};
      }
      if (it != index_.end() && it->second->epoch < epoch) {
        stale = std::move(it->second->value);
        stale_epoch = it->second->epoch;
        EraseLocked(it->second);
      }
      ++stats_.misses;
    }
    misses_counter_->Increment();

    Result result;
    if (stale != nullptr) {
      std::vector<AppendDelta> gap;
      if (live_db.DeltasSince(stale_epoch, &gap)) {
        // The log catches up to the LIVE version, which a concurrent
        // writer may have moved past the pinned epoch; a patch goes
        // forward to `epoch` and no further.
        std::erase_if(gap, [epoch](const AppendDelta& d) {
          return d.to_version > epoch;
        });
        result.value = patch(stale, gap);
      }
    }
    if (result.value != nullptr) {
      result.outcome = CacheOutcome::kPatched;
      patches_counter_->Increment();
    } else {
      StatusOr<Value> built = build();
      if (!built.ok()) {
        Commit(key, epoch, nullptr, stale != nullptr, CacheOutcome::kBuilt);
        return built.status();
      }
      result.value = std::move(built).value();
    }
    Commit(key, epoch, result.value, stale != nullptr, result.outcome);
    return result;
  }

  /// Drops every entry derived from `db` (by identity), whatever its
  /// epoch. Call before destroying a Database so a later allocation at
  /// the same address cannot collide. Returns the number dropped.
  size_t InvalidateDatabase(const Database* db) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    size_t dropped = 0;
    for (auto it = lru_.begin(); it != lru_.end();) {
      const auto next = std::next(it);
      if (it->key.db == db) {
        EraseLocked(it);
        ++dropped;
      }
      it = next;
    }
    stats_.invalidations += dropped;
    return dropped;
  }

  VersionedCacheStats stats() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    VersionedCacheStats out = stats_;
    out.entries = lru_.size();
    return out;
  }

 private:
  struct Entry {
    CacheKey key;
    uint64_t epoch = 0;
    Value value;
  };
  using LruList = std::list<Entry>;

  struct KeyHash {
    size_t operator()(const CacheKey& key) const {
      return static_cast<size_t>(key.hash);
    }
  };

  /// Books a finished miss and inserts its value (nullptr: the build
  /// failed, nothing to insert). `had_stale`: a stale entry was taken
  /// out for it, which a build means was dropped unsalvaged.
  void Commit(const CacheKey& key, uint64_t epoch, Value value,
              bool had_stale, CacheOutcome outcome) EXCLUDES(mu_) {
    bool insert = value != nullptr && capacity_ > 0;
    if constexpr (kFailpointsEnabled) {
      // Evaluated outside the lock: a delay or block action must not
      // stall every other request on this cache.
      if (insert) {
        insert = FailpointRegistry::Global()
                     .Evaluate(insert_failpoint_.c_str())
                     .ok();
      }
    }
    MutexLock lock(&mu_);
    if (outcome == CacheOutcome::kPatched) {
      ++stats_.patches;
    } else {
      if (value != nullptr) ++stats_.builds;
      if (had_stale) ++stats_.invalidations;
    }
    if (!insert) return;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      // Never downgrade: a racing request pinned at a newer epoch
      // already cached its value.
      if (it->second->epoch > epoch) return;
      it->second->epoch = epoch;
      it->second->value = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(Entry{key, epoch, std::move(value)});
    index_.emplace(key, lru_.begin());
    if (lru_.size() > capacity_) {
      EraseLocked(std::prev(lru_.end()));
      ++stats_.evictions;
    }
  }

  void EraseLocked(typename LruList::iterator it) REQUIRES(mu_) {
    index_.erase(it->key);
    lru_.erase(it);
  }

  const size_t capacity_;
  const std::string insert_failpoint_;
  Counter* const hits_counter_;
  Counter* const misses_counter_;
  Counter* const patches_counter_;

  mutable Mutex mu_;
  LruList lru_ GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<CacheKey, typename LruList::iterator, KeyHash> index_
      GUARDED_BY(mu_);
  VersionedCacheStats stats_ GUARDED_BY(mu_);
};

}  // namespace topkjoin

#endif  // TOPKJOIN_DATA_VERSIONED_CACHE_H_
