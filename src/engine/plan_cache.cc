#include "src/engine/plan_cache.h"

#include <unordered_map>
#include <utility>

namespace topkjoin {

namespace {

// A stale plan is still trustworthy while every relation the delta gap
// touched grew by at most this fraction: cardinality estimates (and the
// bag grouping and heavy/light threshold derived from them) degrade
// continuously with growth, not at a cliff. The tree algorithm depends
// on the request alone, so growth never changes it.
constexpr double kMaxPatchGrowth = 0.10;

}  // namespace

CacheKey PlanFingerprint(const Database& db, const ConjunctiveQuery& query,
                         const RankingSpec& ranking,
                         const ExecutionOptions& opts) {
  std::vector<uint64_t> e;
  e.reserve(8 + query.NumAtoms() * 6);
  e.push_back(static_cast<uint64_t>(query.num_vars()));
  e.push_back(static_cast<uint64_t>(ranking.model));
  // k reaches the plan only through the chosen algorithm, so requests
  // whose k falls in one class share a plan and an artifact. A forced
  // choice stays distinct: its rationale says so.
  e.push_back(opts.force_algorithm.has_value() ? 1 : 0);
  e.push_back(static_cast<uint64_t>(ChooseTreeAlgorithm(opts)));
  e.push_back(query.NumAtoms());
  for (const Atom& atom : query.atoms()) {
    e.push_back(static_cast<uint64_t>(atom.relation));
    e.push_back(atom.vars.size());
    for (const VarId v : atom.vars) e.push_back(static_cast<uint64_t>(v));
  }
  return CacheKey(&db, std::move(e));
}

std::shared_ptr<const QueryPlan> RetagPlan(
    const std::shared_ptr<const QueryPlan>& stale, const Database& view,
    const std::vector<AppendDelta>& gap) {
  std::unordered_map<RelationId, uint64_t> appended;
  for (const AppendDelta& d : gap) appended[d.relation] += d.num_rows;
  for (const auto& [relation, rows] : appended) {
    // Growth is appended / (size at the epoch - appended).
    const uint64_t now = view.relation(relation).NumTuples();
    if (now < rows) return nullptr;  // shrunk?! treat as not coverable
    const uint64_t before = now - rows;
    if (static_cast<double>(rows) >
        kMaxPatchGrowth * static_cast<double>(before)) {
      return nullptr;
    }
  }
  return stale;
}

}  // namespace topkjoin
