// Small LRU cache of CardinalityEstimators: a VersionedCache
// (src/data/versioned_cache.h) keyed on the database identity alone,
// one entry per database, versioned by snapshot epoch.
//
// Building an estimator samples every relation (O(total tuples)), so
// planning that rebuilt one per query paid the sampling cost over and
// over. Engine holds one of these and plans every plan-cache miss over
// it; two databases served alternately keep one entry each.
//
// Live updates: every cached estimator is built over -- and pins -- a
// DatabaseSnapshot, so it stays valid however the live database
// mutates. A stale entry whose gap the delta log covers (pure appends)
// is patched: copied and its reservoir samples extended over the
// appended rows (CardinalityEstimator::RetargetAndExtend,
// O(appended)), instead of resampled. Barriers (Add /
// mutable_relation) fall back to a full rebuild.
//
// Thread-safety: all methods are safe to call concurrently. Sampling
// runs outside the cache lock, so one database's build never stalls
// another's hits; two concurrent first misses of one (database, epoch)
// may both sample, and the cache keeps one.
#ifndef TOPKJOIN_STATS_ESTIMATOR_CACHE_H_
#define TOPKJOIN_STATS_ESTIMATOR_CACHE_H_

#include <cstddef>
#include <memory>

#include "src/data/database.h"
#include "src/data/versioned_cache.h"
#include "src/stats/cardinality_estimator.h"

namespace topkjoin {

class EstimatorCache {
 public:
  explicit EstimatorCache(size_t capacity = 4)
      : cache_("stats.estimator_cache", capacity) {}

  /// The estimator for `db` at its current snapshot; builds (or
  /// patches) one when the cached entry is missing or stale. The
  /// returned shared_ptr keeps the snapshot it was built over alive,
  /// so it stays valid after the cache moves on AND after the live
  /// database mutates.
  std::shared_ptr<const CardinalityEstimator> For(const Database& db);

  /// Same, for a caller that already pinned a snapshot of `db` (the
  /// serving layer pins exactly one snapshot per OpenCursor and keys
  /// every cache on its epoch).
  std::shared_ptr<const CardinalityEstimator> For(
      const Database& db, std::shared_ptr<const DatabaseSnapshot> snap);

  /// Drops the entry for `db` (e.g. before freeing the database).
  void InvalidateDatabase(const Database* db) {
    cache_.InvalidateDatabase(db);
  }

  /// Lifetime counters, kept by the cache itself (no registry read).
  VersionedCacheStats stats() const { return cache_.stats(); }

 private:
  VersionedCache<CardinalityEstimator> cache_;
};

}  // namespace topkjoin

#endif  // TOPKJOIN_STATS_ESTIMATOR_CACHE_H_
