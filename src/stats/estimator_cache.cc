#include "src/stats/estimator_cache.h"

#include <utility>
#include <vector>

namespace topkjoin {

namespace {

/// Keeps the snapshot alive for as long as anyone holds the estimator:
/// the returned shared_ptr aliases into a pair that owns both.
std::shared_ptr<const CardinalityEstimator> Alias(
    std::shared_ptr<const DatabaseSnapshot> snap,
    std::shared_ptr<const CardinalityEstimator> est) {
  struct Pinned {
    std::shared_ptr<const DatabaseSnapshot> snap;
    std::shared_ptr<const CardinalityEstimator> est;
  };
  auto pinned = std::make_shared<Pinned>(Pinned{std::move(snap), est});
  return std::shared_ptr<const CardinalityEstimator>(pinned, est.get());
}

}  // namespace

std::shared_ptr<const CardinalityEstimator> EstimatorCache::For(
    const Database& db) {
  return For(db, db.Snapshot());
}

std::shared_ptr<const CardinalityEstimator> EstimatorCache::For(
    const Database& db, std::shared_ptr<const DatabaseSnapshot> snap) {
  auto result = cache_.GetOrBuild(
      CacheKey(&db, {}), db, *snap,
      [&snap](const std::shared_ptr<const CardinalityEstimator>& stale,
              const std::vector<AppendDelta>& /*gap*/) {
        // The gap is pure appends: extend a copy's reservoirs over the
        // appended rows of the pinned view, which ends exactly at the
        // snapshot's epoch.
        auto patched = std::make_shared<CardinalityEstimator>(*stale);
        patched->RetargetAndExtend(snap->view());
        return Alias(snap, std::move(patched));
      },
      [&snap]() -> StatusOr<std::shared_ptr<const CardinalityEstimator>> {
        return Alias(snap,
                     std::make_shared<const CardinalityEstimator>(snap->view()));
      });
  return std::move(result).value().value;
}

}  // namespace topkjoin
