#include "src/cycles/fourcycle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/anyk/union_anyk.h"
#include "src/ranking/cost_model.h"
#include "src/data/hash_index.h"
#include "src/join/acyclic_count.h"
#include "src/join/yannakakis.h"
#include "src/util/common.h"

namespace topkjoin {

namespace {

// Variable ids in the canonical shape.
constexpr VarId kA = 0, kB = 1, kC = 2, kD = 3;

// Degree map of a binary relation's column.
std::unordered_map<Value, size_t> DegreeMap(const Relation& rel, size_t col) {
  std::unordered_map<Value, size_t> deg;
  deg.reserve(rel.NumTuples());
  for (RowId r = 0; r < rel.NumTuples(); ++r) ++deg[rel.At(r, col)];
  return deg;
}

struct HeavyLight {
  std::unordered_set<Value> heavy_b;  // deg_R(b) > tau  (col 1 of R)
  std::unordered_set<Value> heavy_d;  // deg_W(d) > tau  (col 0 of W)
  size_t threshold = 0;
};

size_t StaticThreshold(const Relation& r, const Relation& w) {
  const size_t n = std::max(r.NumTuples(), w.NumTuples());
  return std::max<size_t>(
      1, static_cast<size_t>(std::sqrt(static_cast<double>(n))));
}

// `threshold` 0 = the static sqrt(n) split.
HeavyLight SplitHeavyLight(const Relation& r, const Relation& w,
                           size_t threshold) {
  HeavyLight hl;
  hl.threshold = threshold > 0 ? threshold : StaticThreshold(r, w);
  for (const auto& [b, deg] : DegreeMap(r, 1)) {
    if (deg > hl.threshold) hl.heavy_b.insert(b);
  }
  for (const auto& [d, deg] : DegreeMap(w, 0)) {
    if (deg > hl.threshold) hl.heavy_d.insert(d);
  }
  return hl;
}

// One materialized 3-ary bag covering two input atoms: the relation
// (scalar weight = sum of the two member weights, the additive-dioid
// view) plus the per-tuple member-weight pairs so non-additive dioids
// can fold their exact costs downstream.
struct WeightedBag {
  Relation rel;
  WeightMatrix weights{2};

  WeightedBag(std::string name, std::vector<std::string> attrs)
      : rel(std::move(name), std::move(attrs)) {}

  void Add(std::initializer_list<Value> tuple, Weight w1, Weight w2) {
    rel.AddTuple(tuple, w1 + w2);
    weights.AppendRow({w1, w2});
  }
};

// Builds one case's DecomposedQuery from two materialized 3-ary bags.
// bag1 covers atoms {W, R} or {R, S}; bag2 covers the rest; every input
// atom's weight is counted exactly once per result.
DecomposedQuery MakeCase(WeightedBag bag1, std::vector<VarId> vars1,
                         WeightedBag bag2, std::vector<VarId> vars2) {
  DecomposedQuery out;
  const RelationId id1 = out.db.Add(std::move(bag1.rel));
  const RelationId id2 = out.db.Add(std::move(bag2.rel));
  out.query.AddAtom(id1, std::move(vars1));
  out.query.AddAtom(id2, std::move(vars2));
  out.bag_weights.push_back(std::move(bag1.weights));
  out.bag_weights.push_back(std::move(bag2.weights));
  return out;
}

}  // namespace

ConjunctiveQuery FourCycleQuery(RelationId edge_relation) {
  ConjunctiveQuery q;
  q.AddAtom(edge_relation, {kA, kB});
  q.AddAtom(edge_relation, {kB, kC});
  q.AddAtom(edge_relation, {kC, kD});
  q.AddAtom(edge_relation, {kD, kA});
  return q;
}

bool IsFourCycleShaped(const ConjunctiveQuery& query) {
  if (query.NumAtoms() != 4 || query.num_vars() != 4) return false;
  const std::vector<std::vector<VarId>> expected = {
      {kA, kB}, {kB, kC}, {kC, kD}, {kD, kA}};
  for (size_t i = 0; i < 4; ++i) {
    if (query.atom(i).vars != expected[i]) return false;
  }
  return true;
}

FourCyclePlans BuildFourCyclePlans(const Database& db,
                                   const ConjunctiveQuery& query,
                                   JoinStats* stats, size_t threshold) {
  TOPKJOIN_CHECK(IsFourCycleShaped(query));
  const Relation& r = db.relation(query.atom(0).relation);
  const Relation& s = db.relation(query.atom(1).relation);
  const Relation& t = db.relation(query.atom(2).relation);
  const Relation& w = db.relation(query.atom(3).relation);

  const HeavyLight hl = SplitHeavyLight(r, w, threshold);
  const auto is_heavy_b = [&](Value b) { return hl.heavy_b.contains(b); };
  const auto is_heavy_d = [&](Value d) { return hl.heavy_d.contains(d); };

  FourCyclePlans plans;
  plans.threshold = hl.threshold;
  plans.heavy_b_count = hl.heavy_b.size();
  plans.heavy_d_count = hl.heavy_d.size();
  std::vector<Value> heavy_b(hl.heavy_b.begin(), hl.heavy_b.end());
  std::vector<Value> heavy_d(hl.heavy_d.begin(), hl.heavy_d.end());
  std::sort(heavy_b.begin(), heavy_b.end());
  std::sort(heavy_d.begin(), heavy_d.end());

  // Shared indexes.
  HashIndex s_by_b(s, {0});   // S(b, c) by b
  HashIndex t_by_d(t, {1});   // T(c, d) by d
  HashIndex r_by_ab(r, {0, 1});
  HashIndex s_by_bc(s, {0, 1});
  HashIndex t_by_cd(t, {0, 1});
  HashIndex w_by_da(w, {0, 1});

  auto record = [&](const WeightedBag& bag) {
    if (stats != nullptr) {
      stats->RecordIntermediate(static_cast<int64_t>(bag.rel.NumTuples()));
    }
  };

  // ---- Case LL: bags ABC = R|><|S [b light], CDA = T|><|W [d light].
  {
    WeightedBag abc("abc_ll", {"a", "b", "c"});
    for (RowId ri = 0; ri < r.NumTuples(); ++ri) {
      const Value a = r.At(ri, 0), b = r.At(ri, 1);
      if (is_heavy_b(b)) continue;
      const Value key[] = {b};
      for (RowId si : s_by_b.Probe(key)) {
        abc.Add({a, b, s.At(si, 1)}, r.TupleWeight(ri), s.TupleWeight(si));
      }
    }
    WeightedBag cda("cda_ll", {"c", "d", "a"});
    for (RowId wi = 0; wi < w.NumTuples(); ++wi) {
      const Value d = w.At(wi, 0), a = w.At(wi, 1);
      if (is_heavy_d(d)) continue;
      const Value key[] = {d};
      for (RowId ti : t_by_d.Probe(key)) {
        cda.Add({t.At(ti, 0), d, a}, t.TupleWeight(ti), w.TupleWeight(wi));
      }
    }
    record(abc);
    record(cda);
    if (!abc.rel.Empty() && !cda.rel.Empty()) {
      plans.cases.push_back(MakeCase(std::move(abc), {kA, kB, kC},
                                     std::move(cda), {kC, kD, kA}));
    }
  }

  // Helper: bag ABD = W|><|R with a filter on (b heaviness, d side).
  // Iterates W edges (d, a) passing `d_pred`, then loops heavy b values
  // and keeps those with R(a, b) present -- O(|W| * #heavyB).
  auto build_abd = [&](const char* name, bool want_heavy_d) {
    WeightedBag abd(name, {"a", "b", "d"});
    for (RowId wi = 0; wi < w.NumTuples(); ++wi) {
      const Value d = w.At(wi, 0), a = w.At(wi, 1);
      if (is_heavy_d(d) != want_heavy_d) continue;
      for (Value b : heavy_b) {
        const Value key[] = {a, b};
        for (RowId ri : r_by_ab.Probe(key)) {
          abd.Add({a, b, d}, w.TupleWeight(wi), r.TupleWeight(ri));
        }
      }
    }
    return abd;
  };
  // Helper: bag BCD = S|><|T with b heavy and a chosen d-side strategy.
  auto build_bcd_d_light = [&]() {
    // d light: iterate T edges with light d, loop heavy b, check S(b,c).
    WeightedBag bcd("bcd_hl", {"b", "c", "d"});
    for (RowId ti = 0; ti < t.NumTuples(); ++ti) {
      const Value c = t.At(ti, 0), d = t.At(ti, 1);
      if (is_heavy_d(d)) continue;
      for (Value b : heavy_b) {
        const Value key[] = {b, c};
        for (RowId si : s_by_bc.Probe(key)) {
          bcd.Add({b, c, d}, s.TupleWeight(si), t.TupleWeight(ti));
        }
      }
    }
    return bcd;
  };
  auto build_bcd_both_heavy = [&]() {
    // b, d both heavy: iterate S edges with heavy b, loop heavy d,
    // check T(c, d) -- O(|S| * #heavyD).
    WeightedBag bcd("bcd_hh", {"b", "c", "d"});
    for (RowId si = 0; si < s.NumTuples(); ++si) {
      const Value b = s.At(si, 0), c = s.At(si, 1);
      if (!is_heavy_b(b)) continue;
      for (Value d : heavy_d) {
        const Value key[] = {c, d};
        for (RowId ti : t_by_cd.Probe(key)) {
          bcd.Add({b, c, d}, s.TupleWeight(si), t.TupleWeight(ti));
        }
      }
    }
    return bcd;
  };

  // ---- Case HH: bags ABD [d heavy], BCD [b,d heavy]; join on (B, D).
  {
    WeightedBag abd = build_abd("abd_hh", /*want_heavy_d=*/true);
    WeightedBag bcd = build_bcd_both_heavy();
    record(abd);
    record(bcd);
    if (!abd.rel.Empty() && !bcd.rel.Empty()) {
      plans.cases.push_back(MakeCase(std::move(abd), {kA, kB, kD},
                                     std::move(bcd), {kB, kC, kD}));
    }
  }

  // ---- Case HL (b heavy, d light): bags ABD [d light], BCD [d light].
  {
    WeightedBag abd = build_abd("abd_hl", /*want_heavy_d=*/false);
    WeightedBag bcd = build_bcd_d_light();
    record(abd);
    record(bcd);
    if (!abd.rel.Empty() && !bcd.rel.Empty()) {
      plans.cases.push_back(MakeCase(std::move(abd), {kA, kB, kD},
                                     std::move(bcd), {kB, kC, kD}));
    }
  }

  // ---- Case LH (b light, d heavy): bags DAB and BCD with light b
  // iterated from R / S edges and heavy d looped.
  {
    WeightedBag dab("dab_lh", {"d", "a", "b"});
    for (RowId ri = 0; ri < r.NumTuples(); ++ri) {
      const Value a = r.At(ri, 0), b = r.At(ri, 1);
      if (is_heavy_b(b)) continue;
      for (Value d : heavy_d) {
        const Value key[] = {d, a};
        for (RowId wi : w_by_da.Probe(key)) {
          dab.Add({d, a, b}, w.TupleWeight(wi), r.TupleWeight(ri));
        }
      }
    }
    WeightedBag bcd("bcd_lh", {"b", "c", "d"});
    for (RowId si = 0; si < s.NumTuples(); ++si) {
      const Value b = s.At(si, 0), c = s.At(si, 1);
      if (is_heavy_b(b)) continue;
      for (Value d : heavy_d) {
        const Value key[] = {c, d};
        for (RowId ti : t_by_cd.Probe(key)) {
          bcd.Add({b, c, d}, s.TupleWeight(si), t.TupleWeight(ti));
        }
      }
    }
    record(dab);
    record(bcd);
    if (!dab.rel.Empty() && !bcd.rel.Empty()) {
      plans.cases.push_back(MakeCase(std::move(dab), {kD, kA, kB},
                                     std::move(bcd), {kB, kC, kD}));
    }
  }

  return plans;
}

size_t ChooseFourCycleThreshold(const Database& db,
                                const ConjunctiveQuery& query,
                                const CardinalityEstimator* estimator) {
  TOPKJOIN_CHECK(IsFourCycleShaped(query));
  const Relation& r = db.relation(query.atom(0).relation);
  const Relation& s = db.relation(query.atom(1).relation);
  const Relation& t = db.relation(query.atom(2).relation);
  const Relation& w = db.relation(query.atom(3).relation);
  if (estimator == nullptr) return StaticThreshold(r, w);

  // Exact per-value cross-degree products: a light join value v
  // contributes deg_drive(v) * deg_probe(v) tuples to its light bag, so
  // the light side of the cost is exact given the degree maps (built in
  // O(n) here; BuildFourCyclePlans rebuilds its own for the split --
  // cheap relative to the materialization both feed).
  const auto cross = [](const std::unordered_map<Value, size_t>& drive,
                        const std::unordered_map<Value, size_t>& probe) {
    std::vector<std::pair<size_t, double>> out;  // (drive degree, product)
    out.reserve(drive.size());
    for (const auto& [v, deg] : drive) {
      const auto it = probe.find(v);
      const double pdeg =
          it == probe.end() ? 0.0 : static_cast<double>(it->second);
      out.emplace_back(deg, static_cast<double>(deg) * pdeg);
    }
    return out;
  };
  const auto by_b = cross(DegreeMap(r, 1), DegreeMap(s, 0));
  const auto by_d = cross(DegreeMap(w, 0), DegreeMap(t, 1));

  // Heavy-loop output rates from the estimator's per-edge
  // selectivities: a heavy-b pass scans W against every heavy b value
  // and probes R by (a, b) -- the probes cost exactly |W| per heavy
  // value, and the expected matches against the deg_R(b) R-edges of a
  // heavy b are sel(W, R on a) * |W| * deg_R(b) (the d side
  // symmetrically, probing T by (c, d) from S edges). The selectivity
  // is the correlated quantity the degree maps alone cannot see.
  const double sel_wr = estimator->EstimateEdgeSelectivity(query, 3, 0);
  const double sel_st = estimator->EstimateEdgeSelectivity(query, 1, 2);

  // cost(tau) = exact light-bag tuples + heavy loop probes (exact) +
  // expected heavy-bag outputs. Evaluated over a geometric grid; both
  // terms are monotone staircases in tau, so the grid's factor-2
  // resolution is within a constant of the true optimum.
  const auto light_cost = [](const std::vector<std::pair<size_t, double>>& xs,
                             size_t tau, size_t* heavy_count,
                             double* heavy_deg_mass) {
    double total = 0.0;
    size_t heavy = 0;
    double mass = 0.0;
    for (const auto& [deg, product] : xs) {
      if (deg <= tau) {
        total += product;
      } else {
        ++heavy;
        mass += static_cast<double>(deg);
      }
    }
    *heavy_count = heavy;
    *heavy_deg_mass = mass;
    return total;
  };
  size_t max_deg = 1;
  for (const auto& [deg, product] : by_b) max_deg = std::max(max_deg, deg);
  for (const auto& [deg, product] : by_d) max_deg = std::max(max_deg, deg);

  const auto cost_at = [&](size_t tau) {
    size_t heavy_b = 0, heavy_d = 0;
    double mass_b = 0.0, mass_d = 0.0;
    const double light = light_cost(by_b, tau, &heavy_b, &mass_b) +
                         light_cost(by_d, tau, &heavy_d, &mass_d);
    const double probes =
        static_cast<double>(heavy_b) * static_cast<double>(w.NumTuples()) +
        static_cast<double>(heavy_d) * static_cast<double>(s.NumTuples());
    const double outputs =
        sel_wr * static_cast<double>(w.NumTuples()) * mass_b +
        sel_st * static_cast<double>(t.NumTuples()) * mass_d;
    return light + probes + outputs;
  };

  std::vector<size_t> candidates;
  for (size_t tau = 1; tau < max_deg; tau <<= 1) candidates.push_back(tau);
  candidates.push_back(max_deg);  // everything light

  size_t best_tau = candidates.front();
  double best_cost = std::numeric_limits<double>::infinity();
  for (const size_t tau : candidates) {
    const double cost = cost_at(tau);
    if (cost < best_cost) {
      best_cost = cost;
      best_tau = tau;
    }
  }
  // The static sqrt(n) split carries the O~(n^1.5) worst-case
  // guarantee; the probe hit rates above are selectivity
  // approximations. Deviate from the guarantee only when the model
  // predicts a decisive (> 2x) win -- the regime the skewed-hub pin
  // test exercises -- so model noise on benign instances can never
  // trade the proven bound for a marginal estimate.
  const size_t static_tau = StaticThreshold(r, w);
  if (best_cost * 2.0 < cost_at(static_tau)) {
    return std::max<size_t>(1, best_tau);
  }
  return static_tau;
}

namespace {

// Each case plan owns its bag database; the per-case artifact keeps it
// alive alongside the shared T-DP, and routes the bags' member weights
// into the CM-typed T-DP. nullptr when the algorithm is unknown.
template <typename CM>
std::shared_ptr<const PreprocessingArtifact> MakeCaseUnionArtifact(
    FourCyclePlans plans, AnyKAlgorithm algorithm, JoinStats* stats) {
  std::vector<std::shared_ptr<const PreprocessingArtifact>> cases;
  cases.reserve(plans.cases.size());
  for (DecomposedQuery& dq : plans.cases) {
    cases.push_back(MakeArtifact<CM>(algorithm, stats, std::move(dq)));
    if (cases.back() == nullptr) return nullptr;
  }
  return std::make_shared<UnionArtifact>(std::move(cases));
}

}  // namespace

std::shared_ptr<const PreprocessingArtifact> MakeFourCycleArtifact(
    const Database& db, const ConjunctiveQuery& query,
    AnyKAlgorithm algorithm, JoinStats* stats, CostModelKind model,
    size_t threshold) {
  FourCyclePlans plans = BuildFourCyclePlans(db, query, stats, threshold);
  return WithCostModel(model, [&]<typename CM>() {
    return MakeCaseUnionArtifact<CM>(std::move(plans), algorithm, stats);
  });
}

std::unique_ptr<RankedIterator> MakeFourCycleAnyK(
    const Database& db, const ConjunctiveQuery& query,
    AnyKAlgorithm algorithm, JoinStats* stats, CostModelKind model,
    size_t threshold) {
  return MakeFourCycleArtifact(db, query, algorithm, stats, model, threshold)
      ->NewStream();
}

bool FourCycleBoolean(const Database& db, const ConjunctiveQuery& query,
                      JoinStats* stats) {
  const FourCyclePlans plans = BuildFourCyclePlans(db, query, stats);
  for (const DecomposedQuery& dq : plans.cases) {
    if (YannakakisBoolean(dq.db, dq.query, stats)) return true;
  }
  return false;
}

int64_t CountFourCycles(const Database& db, const ConjunctiveQuery& query,
                        JoinStats* stats) {
  const FourCyclePlans plans = BuildFourCyclePlans(db, query, stats);
  int64_t total = 0;
  for (const DecomposedQuery& dq : plans.cases) {
    total += CountAcyclic(dq.db, dq.query, stats);
  }
  return total;
}

DecomposedQuery FourCycleFhw2(const Database& db,
                              const ConjunctiveQuery& query,
                              JoinStats* stats) {
  TOPKJOIN_CHECK(IsFourCycleShaped(query));
  AtomGrouping grouping;
  grouping.groups = {{0, 1}, {2, 3}};
  return MaterializeGrouping(db, query, grouping, stats);
}

}  // namespace topkjoin
