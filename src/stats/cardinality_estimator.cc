#include "src/stats/cardinality_estimator.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <unordered_map>

#include "src/obs/metrics.h"
#include "src/util/hash.h"

namespace topkjoin {

namespace {

// Maximum sampled tuples per relation. Larger samples tighten the
// envelope on sparse joins at linear memory/estimation cost; 256 keeps
// a per-database build cheap relative to join preprocessing.
constexpr size_t kSampleSize = 256;
// Exploration budget (index probes) per sample-join estimate; when
// exhausted the partial count is extrapolated from the fraction of
// anchor rows processed. 20000 keeps an estimate well under the cost
// of the join's own preprocessing while staying inside the 10x
// accuracy envelope (tests/stats_test.cc).
constexpr int64_t kWorkLimit = 20000;
// Seed for the per-relation reservoir draws.
constexpr uint64_t kSampleSeed = 0x7061706572;

/// One atom's role in the sample join: probe its sample by the columns
/// whose variables earlier atoms already bound, bind the rest.
struct JoinStep {
  size_t atom = 0;
  std::vector<size_t> bound_cols;                   // probe key columns
  std::vector<std::pair<size_t, VarId>> free_cols;  // newly bound
  std::unordered_map<ValueKey, std::vector<RowId>, ValueKeyHash> index;
};

}  // namespace

CardinalityEstimator::CardinalityEstimator(const Database& db) : db_(&db) {
  // Sampling every relation is the cost the estimator caches exist to
  // amortize; exporting it makes double-builds visible in the planner
  // metrics.
  ScopedTimer timer(
      MetricsRegistry::Global().GetHistogram("stats.estimator_build_ns"));
  MetricsRegistry::Global().GetCounter("stats.estimator_builds")->Increment();
  samples_.reserve(db.NumRelations());
  for (RelationId id = 0; id < db.NumRelations(); ++id) {
    // Per-relation seed: reproducible independently of catalog order
    // changes elsewhere.
    samples_.emplace_back(db.relation(id), kSampleSize,
                          HashMix(kSampleSeed, id));
  }
}

void CardinalityEstimator::RetargetAndExtend(const Database& db) {
  TOPKJOIN_CHECK(db.NumRelations() == samples_.size());
  ScopedTimer timer(
      MetricsRegistry::Global().GetHistogram("stats.estimator_patch_ns"));
  db_ = &db;
  for (RelationId id = 0; id < samples_.size(); ++id) {
    samples_[id].ExtendTo(db.relation(id));
  }
}

double CardinalityEstimator::IndependenceEstimate(
    const ConjunctiveQuery& query, const std::vector<size_t>& atoms) const {
  double estimate = 1.0;
  // (var -> the distinct-count estimates of every column binding it).
  std::map<VarId, std::vector<double>> distinct_of_var;
  for (const size_t a : atoms) {
    const Atom& atom = query.atom(a);
    const RelationSample& s = samples_[atom.relation];
    estimate *= static_cast<double>(s.num_rows());
    for (size_t col = 0; col < atom.vars.size(); ++col) {
      distinct_of_var[atom.vars[col]].push_back(s.EstimateDistinct(col));
    }
  }
  // Each repeated occurrence of a variable is one equality predicate;
  // under independence it selects 1/distinct of the larger side.
  for (const auto& [var, distincts] : distinct_of_var) {
    if (distincts.size() < 2) continue;
    const double d =
        std::max(1.0, *std::max_element(distincts.begin(), distincts.end()));
    estimate /= std::pow(d, static_cast<double>(distincts.size() - 1));
  }
  return estimate;
}

double CardinalityEstimator::EstimateJoinSize(
    const ConjunctiveQuery& query, const std::vector<size_t>& atoms) const {
  TOPKJOIN_CHECK(!atoms.empty());
  for (const size_t a : atoms) {
    TOPKJOIN_CHECK(a < query.NumAtoms());
    if (db_->relation(query.atom(a).relation).Empty()) return 0.0;
  }
  if (atoms.size() == 1) {
    return static_cast<double>(
        db_->relation(query.atom(atoms[0]).relation).NumTuples());
  }

  // Join order: anchor on the smallest relation, then greedily extend
  // with the atom sharing the most already-bound variables (connected
  // growth keeps the probe keys selective; ties prefer small atoms).
  std::vector<size_t> order;
  std::vector<bool> used(atoms.size(), false);
  std::vector<bool> bound(static_cast<size_t>(query.num_vars()), false);
  const auto relation_size = [&](size_t a) {
    return db_->relation(query.atom(a).relation).NumTuples();
  };
  size_t anchor = 0;
  for (size_t i = 1; i < atoms.size(); ++i) {
    if (relation_size(atoms[i]) < relation_size(atoms[anchor])) anchor = i;
  }
  const auto take = [&](size_t i) {
    used[i] = true;
    order.push_back(atoms[i]);
    for (const VarId v : query.atom(atoms[i]).vars) {
      bound[static_cast<size_t>(v)] = true;
    }
  };
  take(anchor);
  while (order.size() < atoms.size()) {
    size_t best = atoms.size();
    size_t best_shared = 0;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (used[i]) continue;
      size_t shared = 0;
      for (const VarId v : query.atom(atoms[i]).vars) {
        if (bound[static_cast<size_t>(v)]) ++shared;
      }
      if (best == atoms.size() || shared > best_shared ||
          (shared == best_shared &&
           relation_size(atoms[i]) < relation_size(atoms[best]))) {
        best = i;
        best_shared = shared;
      }
    }
    take(best);
  }

  // Per-step probe indexes over the samples, keyed by the columns whose
  // variables are bound by earlier steps -- the correlated join-key
  // structure that per-column histograms lose.
  std::vector<JoinStep> steps(order.size());
  std::fill(bound.begin(), bound.end(), false);
  double scale = 1.0;
  for (size_t p = 0; p < order.size(); ++p) {
    JoinStep& step = steps[p];
    step.atom = order[p];
    const Atom& atom = query.atom(step.atom);
    const RelationSample& s = samples_[atom.relation];
    scale *= s.scale();
    for (size_t col = 0; col < atom.vars.size(); ++col) {
      if (bound[static_cast<size_t>(atom.vars[col])]) {
        step.bound_cols.push_back(col);
      } else {
        step.free_cols.emplace_back(col, atom.vars[col]);
        bound[static_cast<size_t>(atom.vars[col])] = true;
      }
    }
    if (p == 0) continue;  // the anchor is scanned, not probed
    step.index.reserve(s.sampled_rows().size());
    ValueKey key;
    key.values.resize(step.bound_cols.size());
    for (const RowId r : s.sampled_rows()) {
      for (size_t i = 0; i < step.bound_cols.size(); ++i) {
        key.values[i] = s.relation().At(r, step.bound_cols[i]);
      }
      step.index[key].push_back(r);
    }
  }

  // Depth-first sample join under a work budget; a partial walk is
  // extrapolated from the fraction of anchor rows processed. Probe-key
  // scratch is preallocated per step: the inner loop must not allocate.
  std::vector<Value> assignment(static_cast<size_t>(query.num_vars()), 0);
  std::vector<ValueKey> probe_keys(steps.size());
  for (size_t p = 0; p < steps.size(); ++p) {
    probe_keys[p].values.resize(steps[p].bound_cols.size());
  }
  int64_t budget = kWorkLimit;
  double matches = 0.0;
  std::function<void(size_t)> descend = [&](size_t p) {
    if (p == steps.size()) {
      matches += 1.0;
      return;
    }
    const JoinStep& step = steps[p];
    const RelationSample& s = samples_[query.atom(step.atom).relation];
    ValueKey& key = probe_keys[p];
    for (size_t i = 0; i < step.bound_cols.size(); ++i) {
      key.values[i] = assignment[static_cast<size_t>(
          query.atom(step.atom).vars[step.bound_cols[i]])];
    }
    --budget;
    const auto it = step.index.find(key);
    if (it == step.index.end()) return;
    for (const RowId r : it->second) {
      if (budget <= 0) return;
      --budget;
      for (const auto& [col, var] : step.free_cols) {
        assignment[static_cast<size_t>(var)] = s.relation().At(r, col);
      }
      descend(p + 1);
    }
  };
  const RelationSample& anchor_sample = samples_[query.atom(order[0]).relation];
  size_t anchor_processed = 0;
  for (const RowId r : anchor_sample.sampled_rows()) {
    if (budget <= 0) break;
    ++anchor_processed;
    --budget;
    for (const auto& [col, var] : steps[0].free_cols) {
      assignment[static_cast<size_t>(var)] = anchor_sample.relation().At(r, col);
    }
    descend(1);
  }

  if (matches > 0.0) {
    const double fraction =
        static_cast<double>(anchor_processed) /
        static_cast<double>(anchor_sample.sampled_rows().size());
    return matches / fraction * scale;
  }

  // Empty sampled join. With full samples (scale 1) that is an exact
  // zero; otherwise the true size sits below the estimator's resolution
  // (what a single sampled match would have represented), so take the
  // independence estimate capped by that resolution.
  if (scale <= 1.0) return 0.0;
  return std::clamp(IndependenceEstimate(query, atoms), 0.0, scale);
}

double CardinalityEstimator::EstimateOutput(
    const ConjunctiveQuery& query) const {
  std::vector<size_t> atoms(query.NumAtoms());
  for (size_t i = 0; i < atoms.size(); ++i) atoms[i] = i;
  return EstimateJoinSize(query, atoms);
}

double CardinalityEstimator::EstimateEdgeSelectivity(
    const ConjunctiveQuery& query, size_t i, size_t j) const {
  const std::vector<VarId> shared = query.SharedVars(i, j);
  if (shared.empty()) return 1.0;
  const RelationSample& si = samples_[query.atom(i).relation];
  const RelationSample& sj = samples_[query.atom(j).relation];
  const double ni = static_cast<double>(si.num_rows());
  const double nj = static_cast<double>(sj.num_rows());
  if (ni == 0.0 || nj == 0.0) return 0.0;
  const JoinKeySketch sketch_i = si.KeySketch(query.ColumnsOf(i, shared));
  const JoinKeySketch sketch_j = sj.KeySketch(query.ColumnsOf(j, shared));
  // Sum the frequency products over the smaller sketch's keys.
  const JoinKeySketch& outer =
      sketch_i.counts.size() <= sketch_j.counts.size() ? sketch_i : sketch_j;
  const JoinKeySketch& inner =
      sketch_i.counts.size() <= sketch_j.counts.size() ? sketch_j : sketch_i;
  double join_size = 0.0;
  for (const auto& [key, count] : outer.counts) {
    join_size +=
        outer.scale * count * inner.EstimateFrequency(key);
  }
  return std::clamp(join_size / (ni * nj), 0.0, 1.0);
}

DecompositionEstimate CardinalityEstimator::EstimateDecomposition(
    const ConjunctiveQuery& query, const AtomGrouping& grouping) const {
  DecompositionEstimate out;
  out.bag_tuples.reserve(grouping.groups.size());
  for (const auto& group : grouping.groups) {
    const double bag = EstimateJoinSize(query, group);
    out.bag_tuples.push_back(bag);
    out.intermediate_tuples += bag;
    out.max_bag_tuples = std::max(out.max_bag_tuples, bag);
  }
  return out;
}

}  // namespace topkjoin
