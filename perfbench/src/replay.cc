#include "src/replay.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/anyk/tdp.h"
#include "src/cycles/fourcycle.h"
#include "src/engine/executor.h"
#include "src/join/acyclic_count.h"
#include "src/join/join_stats.h"
#include "src/join/semijoin.h"
#include "src/query/decomposition.h"
#include "src/query/hypergraph.h"
#include "src/ranking/cost_model.h"

namespace perfbench {

using topkjoin::AnyKAlgorithm;
using topkjoin::DatabaseSnapshot;
using topkjoin::JoinStats;
using topkjoin::PlanStrategy;
using topkjoin::SortMode;

namespace {

void Emit(const SpanTarget& t, std::string name, uint64_t parent,
          int64_t start, int64_t end, uint64_t id = 0) {
  if (t.log != nullptr) t.log->Record(std::move(name), t.request, parent, start, end, id);
}

uint64_t ReserveId(const SpanTarget& t) {
  return t.log != nullptr ? t.log->NewId() : 0;
}

// The sort mode each algorithm's artifact builds its T-DP with (the
// dispatch in anyk/artifact.h).
SortMode ModeOf(AnyKAlgorithm algorithm) {
  switch (algorithm) {
    case AnyKAlgorithm::kPartEager:
    case AnyKAlgorithm::kBatch:
      return SortMode::kEager;
    case AnyKAlgorithm::kPartMemoized:
      return SortMode::kQuickselect;
    case AnyKAlgorithm::kRec:
    case AnyKAlgorithm::kPartLazy:
    case AnyKAlgorithm::kPartTake2:
      return SortMode::kLazy;
  }
  return SortMode::kLazy;
}

double QError(double estimate, double actual) {
  return std::max(estimate / actual, actual / estimate);
}

// Re-issues the T-DP constructor as an anyk.tdp_build span under
// `parent`, and the full reducer it runs as a join.full_reducer child.
void ReplayTdp(const SpanTarget& t, uint64_t parent, CostModelKind model,
               const Database& db, const ConjunctiveQuery& query,
               SortMode mode,
               const std::vector<topkjoin::WeightMatrix>* weights,
               LayerObs* obs) {
  const uint64_t tdp_id = ReserveId(t);
  const int64_t start = NowNs();
  topkjoin::WithCostModel(model, [&]<typename CM>() {
    topkjoin::Tdp<CM> tdp(db, query, mode, nullptr, weights);
    (void)tdp;
  });
  Emit(t, "anyk.tdp_build", parent, start, NowNs(), tdp_id);

  const auto tree = topkjoin::GyoJoinTree(query);
  TOPKJOIN_CHECK(tree.has_value());
  topkjoin::ReducedInstance instance = topkjoin::MakeInstance(db, query);
  const int64_t reduce_start = NowNs();
  topkjoin::FullReducer(query, *tree, &instance, nullptr);
  Emit(t, "join.full_reducer", tdp_id, reduce_start, NowNs());
  for (const auto& rel : instance.atom_relations) {
    obs->reduced_tuples += static_cast<int64_t>(rel.NumTuples());
  }
}

int64_t BagTuples(const Database& bags) {
  int64_t total = 0;
  for (RelationId id = 0; id < bags.NumRelations(); ++id) {
    total += static_cast<int64_t>(bags.relation(id).NumTuples());
  }
  return total;
}

}  // namespace

const topkjoin::CardinalityEstimator& EstimatorBook::For(
    const std::shared_ptr<const DatabaseSnapshot>& snap, const Database* live,
    const SpanTarget& target) {
  Entry& entry = entries_[live];
  if (entry.est != nullptr && entry.snap->epoch() == snap->epoch()) {
    return *entry.est;
  }
  if (entry.est != nullptr && entry.snap->epoch() < snap->epoch()) {
    auto extended =
        std::make_unique<topkjoin::CardinalityEstimator>(*entry.est);
    const int64_t start = NowNs();
    extended->RetargetAndExtend(snap->view());
    Emit(target, "stats.estimator_extend", target.open_parent, start, NowNs());
    entry.est = std::move(extended);
  } else {
    const int64_t start = NowNs();
    entry.est = std::make_unique<topkjoin::CardinalityEstimator>(snap->view());
    Emit(target, "stats.estimator_build", target.open_parent, start, NowNs());
  }
  entry.snap = snap;
  return *entry.est;
}

ReplayResult ReplayOpen(EstimatorBook* book, const SpanTarget& t,
                        const std::shared_ptr<const DatabaseSnapshot>& snap,
                        const QuerySpec& spec,
                        const topkjoin::ExecutionOptions& opts, size_t k,
                        LayerObs* obs) {
  ReplayResult out;
  const Database& view = snap->view();
  const int64_t replay_start = NowNs();
  const topkjoin::CardinalityEstimator& est = book->For(snap, spec.db, t);

  int64_t start = NowNs();
  auto planned =
      topkjoin::PlanQuery(view, spec.query, spec.ranking(), opts, &est);
  Emit(t, "planner.plan", t.open_parent, start, NowNs());
  if (!planned.ok()) return out;
  out.plan = std::move(planned).value();
  const topkjoin::QueryPlan& plan = out.plan;

  JoinStats build_stats;
  const uint64_t build_id = ReserveId(t);
  start = NowNs();
  auto built = topkjoin::BuildArtifact(view, spec.query, plan, &build_stats);
  const int64_t build_end = NowNs();
  if (!built.ok()) return out;
  out.artifact = std::move(built).value();
  Emit(t, "executor.build_artifact", t.open_parent, start, build_end,
       build_id);
  obs->tdp_bytes += static_cast<int64_t>(out.artifact->ApproxBytes());

  // Re-issue the calls BuildArtifact made, as its child spans, and
  // count the output the plan estimated.
  const SortMode mode = ModeOf(plan.algorithm);
  double actual_output = 0.0;
  switch (plan.strategy) {
    case PlanStrategy::kAnyKDirect:
    case PlanStrategy::kBatchSort:
      ReplayTdp(t, build_id, spec.model, view, spec.query, mode, nullptr, obs);
      actual_output = static_cast<double>(
          topkjoin::CountAcyclic(view, spec.query, nullptr));
      break;
    case PlanStrategy::kDecompose: {
      start = NowNs();
      topkjoin::DecomposedQuery dq = topkjoin::MaterializeGrouping(
          view, spec.query, *plan.grouping, nullptr);
      Emit(t, "query.bag_materialize", build_id, start, NowNs());
      obs->query_bag_tuples += BagTuples(dq.db);
      ReplayTdp(t, build_id, spec.model, dq.db, dq.query, mode,
                &dq.bag_weights, obs);
      actual_output = static_cast<double>(
          topkjoin::CountAcyclic(dq.db, dq.query, nullptr));
      break;
    }
    case PlanStrategy::kUnionCases: {
      start = NowNs();
      topkjoin::FourCyclePlans cases = topkjoin::BuildFourCyclePlans(
          view, spec.query, nullptr, plan.fourcycle_threshold);
      Emit(t, "cycles.fourcycle_plans", build_id, start, NowNs());
      for (const topkjoin::DecomposedQuery& c : cases.cases) {
        obs->cycles_bag_tuples += BagTuples(c.db);
        ReplayTdp(t, build_id, spec.model, c.db, c.query, mode,
                  &c.bag_weights, obs);
      }
      actual_output = static_cast<double>(
          topkjoin::CountFourCycles(view, spec.query, nullptr));
      break;
    }
  }
  if (actual_output > 0 && plan.estimated_output > 0 &&
      std::isfinite(plan.estimated_output)) {
    obs->qerror_output.Add(QError(plan.estimated_output, actual_output));
  }
  const double actual_intermediate =
      static_cast<double>(build_stats.intermediate_tuples);
  if (plan.estimated_intermediate > 0 && actual_intermediate > 0 &&
      std::isfinite(plan.estimated_intermediate)) {
    obs->qerror_intermediate.Add(
        QError(plan.estimated_intermediate, actual_intermediate));
  }

  // The replay's own time to first result excludes the re-issued
  // children above (they repeat work BuildArtifact already did).
  const int64_t open_ns = build_end - replay_start;
  start = NowNs();
  std::unique_ptr<topkjoin::RankedIterator> stream =
      topkjoin::NewEnumeration(*out.artifact, plan);
  int64_t end = NowNs();
  Emit(t, "executor.new_enumeration", t.open_parent, start, end);
  int64_t ttf_ns = open_ns + (end - start);

  Samples& next_ns = obs->next_ns[spec.model];
  size_t pulled = 0;
  while (pulled < k) {
    start = NowNs();
    auto r = stream->Next();
    end = NowNs();
    if (!r.has_value()) break;
    if (pulled == 0) {
      Emit(t, "anyk.first_result", t.first_result_parent, start, end);
      ttf_ns += end - start;
    } else {
      next_ns.Add(static_cast<double>(end - start));
    }
    ++pulled;
  }
  EnumCounts& counts = obs->enums[spec.model];
  const topkjoin::PipelineCounters c = stream->Counters();
  counts.work += stream->WorkUnits();
  counts.pushes += c.frontier_pushes;
  counts.results += static_cast<int64_t>(pulled);
  counts.candidate_peak_bytes =
      std::max(counts.candidate_peak_bytes, c.candidate_pool_bytes);
  out.ttf_ns = ttf_ns;
  out.ok = pulled > 0;
  return out;
}

std::shared_ptr<const topkjoin::PreprocessingArtifact> ReplayPatch(
    const SpanTarget& t, const topkjoin::PreprocessingArtifact& base,
    uint64_t base_epoch, const Database& live,
    const std::shared_ptr<const DatabaseSnapshot>& snap, LayerObs* obs) {
  std::vector<topkjoin::AppendDelta> deltas;
  if (!live.DeltasSince(base_epoch, &deltas)) return nullptr;
  std::erase_if(deltas, [&](const topkjoin::AppendDelta& d) {
    return d.to_version > snap->epoch();
  });
  const int64_t start = NowNs();
  auto patched = base.TryPatch(snap->view(), deltas);
  const int64_t end = NowNs();
  if (patched == nullptr) return nullptr;
  Emit(t, "anyk.tdp_patch", t.open_parent, start, end);
  if (const topkjoin::TdpPatchStats* stats = patched->patch_stats()) {
    obs->groups_refolded += static_cast<int64_t>(stats->groups_refolded);
    obs->groups_total += static_cast<int64_t>(stats->groups_total);
  }
  return patched;
}

ReplayResult ReplayRequest(EstimatorBook* book, const SpanTarget& t,
                           const Replayable& r,
                           const topkjoin::ExecutionOptions& opts, size_t k,
                           LayerObs* obs) {
  ReplayResult out = ReplayOpen(book, t, r.snap, *r.spec, opts, k, obs);
  if (!out.ok || r.pre_delta == nullptr ||
      out.plan.strategy != PlanStrategy::kAnyKDirect) {
    return out;
  }
  auto base = topkjoin::BuildArtifact(r.pre_delta->view(), r.spec->query,
                                      out.plan, nullptr);
  out.ok = base.ok();
  if (out.ok) {
    ReplayPatch(t, *base.value(), r.pre_delta->epoch(), *r.spec->db, r.snap,
                obs);
  }
  return out;
}

}  // namespace perfbench
