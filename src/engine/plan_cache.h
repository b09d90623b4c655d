// The engine's plan cache and the key it shares with the artifact
// cache.
//
// Planning a query is not cheap: PlanQuery samples every relation
// (src/stats/), solves the AGM LP, and searches bag groupings. Serving
// workloads repeat a small set of hot queries, so Engine caches the
// finished QueryPlan in a VersionedCache (src/data/versioned_cache.h)
// keyed by a structural fingerprint of (query, ranking, execution
// options) and the identity of the database, at the epoch it was
// planned against. A stale plan survives a small pure-append delta:
// RetagPlan keeps it while its cardinality estimates still hold.
#ifndef TOPKJOIN_ENGINE_PLAN_CACHE_H_
#define TOPKJOIN_ENGINE_PLAN_CACHE_H_

#include <memory>
#include <vector>

#include "src/data/versioned_cache.h"
#include "src/engine/planner.h"

namespace topkjoin {

using PlanCache = VersionedCache<QueryPlan>;
/// The stats shape of the plan and artifact caches.
using PlanCacheStats = VersionedCacheStats;

/// Structural identity of a plan request: equal iff the requests name
/// the same Database object and encode the same (atoms, num_vars,
/// ranking dioid, tree algorithm, whether it was forced) -- everything
/// PlanQuery's output depends on besides the data itself, which the
/// cache's epoch covers. k enters only through the algorithm
/// ChooseTreeAlgorithm resolves it to. The artifact cache uses the same
/// key.
CacheKey PlanFingerprint(const Database& db, const ConjunctiveQuery& query,
                         const RankingSpec& ranking,
                         const ExecutionOptions& opts);

/// The plan cache's patch rule. A stale plan still holds -- and is
/// returned as is, to be retagged at the new epoch -- when every
/// relation the append-only `gap` touched grew by at most ~10%.
/// `view` is the requester's pinned snapshot at the epoch the gap ends
/// at, so the post-append sizes are exact and race-free. nullptr
/// refuses.
std::shared_ptr<const QueryPlan> RetagPlan(
    const std::shared_ptr<const QueryPlan>& stale, const Database& view,
    const std::vector<AppendDelta>& gap);

}  // namespace topkjoin

#endif  // TOPKJOIN_ENGINE_PLAN_CACHE_H_
