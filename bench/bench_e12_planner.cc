// E12: planner quality and plan-cache latency.
//
// Two readouts, both tied to the sampling cardinality estimator
// (src/stats/) and the serving-layer plan cache:
//
//   1. Plan quality on a Zipf-skewed workload where the AGM bound is
//      off by >= 10x (typically ~1000x): how close the sampling
//      estimator gets to the true cardinality, and how many
//      intermediate tuples the cost-aware bag grouping saves over the
//      blind shared-variable greedy on a skewed cyclic query.
//   2. OpenCursor latency on the serving path with the plan cache cold
//      vs warm, plus the cache counters. The "no cache" figure is a warm
//      open plus a directly timed PlanQuery over a prebuilt estimator:
//      what a warm open would cost if it had to re-plan.
//
// Plain executable (no Google Benchmark dependency) so CI always builds
// and runs it; emits BENCH_e12.json next to the binary.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/join/nested_loop.h"
#include "src/query/agm.h"
#include "src/query/decomposition.h"
#include "src/serving/serving_engine.h"
#include "src/stats/cardinality_estimator.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace topkjoin {
namespace {

struct Workload {
  Database db;
  ConjunctiveQuery query;
};

// Binary join whose columns are Zipf-skewed: the AGM bound (|R| * |S|)
// ignores the value distribution entirely and lands orders of magnitude
// above the true size.
Workload ZipfPath(size_t tuples, Value domain, double theta, uint64_t seed) {
  Workload w;
  Rng rng(seed);
  const RelationId r =
      w.db.Add(SkewedBinaryRelation("R", tuples, domain, theta, rng));
  const RelationId s =
      w.db.Add(SkewedBinaryRelation("S", tuples, domain, theta, rng));
  w.query.AddAtom(r, {0, 1});
  w.query.AddAtom(s, {1, 2});
  return w;
}

// Skewed triangle (one super-heavy join key between atoms 0 and 1):
// the blind grouping materializes an n^2 bag, the cost-aware one O(n).
Workload SkewedTriangle(Value n, uint64_t seed) {
  Workload w;
  Relation r("R", {"a", "b"});
  Relation s("S", {"b", "c"});
  Relation t("T", {"c", "a"});
  Rng rng(seed);
  for (Value i = 0; i < n; ++i) {
    r.AddTuple({i, 0}, rng.NextDouble());
    s.AddTuple({0, i}, rng.NextDouble());
    t.AddTuple({i, i}, rng.NextDouble());
  }
  const RelationId rid = w.db.Add(std::move(r));
  const RelationId sid = w.db.Add(std::move(s));
  const RelationId tid = w.db.Add(std::move(t));
  w.query.AddAtom(rid, {0, 1});
  w.query.AddAtom(sid, {1, 2});
  w.query.AddAtom(tid, {2, 0});
  return w;
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Mean OpenCursor+CloseCursor latency over `iters` repetitions.
double MeanOpenCursorMicros(ServingEngine& serving, SessionId session,
                            const Workload& w, size_t iters) {
  double total = 0.0;
  for (size_t i = 0; i < iters; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto id = serving.OpenCursor(session, w.db, w.query);
    total += MicrosSince(start);
    if (!id.ok()) return -1.0;
    (void)serving.CloseCursor(id.value());
  }
  return total / static_cast<double>(iters);
}

struct LatencyReadout {
  double cold_us = 0.0;
  double warm_us = 0.0;
  double nocache_us = 0.0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t plans_computed = 0;
};

// Mean PlanQuery latency over `iters` repetitions, with one prebuilt
// estimator -- the planning a plan-cache hit skips.
double MeanPlanQueryMicros(const Workload& w, size_t iters) {
  const CardinalityEstimator estimator(w.db);
  double total = 0.0;
  for (size_t i = 0; i < iters; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto plan = PlanQuery(w.db, w.query, {}, {}, &estimator);
    total += MicrosSince(start);
    if (!plan.ok()) return -1.0;
  }
  return total / static_cast<double>(iters);
}

// Cold (first request plans), warm (plan cache hot), and re-planning
// OpenCursor latency for one workload.
LatencyReadout MeasureOpenCursor(const Workload& w, size_t warm_iters) {
  LatencyReadout out;
  ServingOptions cached_options;
  cached_options.num_workers = 0;
  ServingEngine serving(cached_options);
  const SessionId session = serving.OpenSession();
  const auto cold_start = std::chrono::steady_clock::now();
  auto cold_cursor = serving.OpenCursor(session, w.db, w.query);
  out.cold_us = MicrosSince(cold_start);
  if (cold_cursor.ok()) (void)serving.CloseCursor(cold_cursor.value());
  out.warm_us = MeanOpenCursorMicros(serving, session, w, warm_iters);
  const PlanCacheStats cache = serving.GetPlanCacheStats();
  out.hits = cache.hits;
  out.misses = cache.misses;
  out.plans_computed = serving.NumPlansComputed();
  const double plan_us = MeanPlanQueryMicros(w, warm_iters);
  out.nocache_us = plan_us < 0.0 ? -1.0 : out.warm_us + plan_us;
  return out;
}

}  // namespace
}  // namespace topkjoin

int main() {
  using namespace topkjoin;
  constexpr size_t kWarmIters = 50;

  // ---- Readout 1: estimator vs AGM on skew.
  Workload zipf = ZipfPath(3000, 1000, 1.1, 42);
  const double truth =
      static_cast<double>(NestedLoopJoin(zipf.db, zipf.query).NumTuples());
  const double agm = AgmBound(zipf.query, zipf.db).value();
  EstimatorOptions est_options;
  est_options.sample_size = 512;
  const CardinalityEstimator estimator(zipf.db, est_options);
  const double estimate = estimator.EstimateOutput(zipf.query);
  const double agm_error = truth > 0 ? agm / truth : 0.0;
  const double est_error =
      truth > 0 && estimate > 0
          ? (estimate > truth ? estimate / truth : truth / estimate)
          : 0.0;

  // ---- Readout 2: blind vs cost-aware grouping on the skewed triangle.
  Workload tri = SkewedTriangle(400, 17);
  JoinStats blind_stats;
  MaterializeGrouping(tri.db, tri.query, *FindAcyclicGrouping(tri.query),
                      &blind_stats);
  Engine engine;
  auto cost_aware = engine.Execute(tri.db, tri.query, {}, {});
  const int64_t blind_intermediate = blind_stats.intermediate_tuples;
  const int64_t aware_intermediate =
      cost_aware.ok() ? cost_aware.value().preprocessing.intermediate_tuples
                      : -1;

  // ---- Readout 3: OpenCursor latency, cache cold vs warm vs re-planning.
  // Two regimes: the zipf path is compile-heavy (the full reducer over
  // 3000-tuple relations dominates, so caching shaves only the planning
  // slice), the skewed triangle is planning-heavy (grouping search +
  // sample joins dominate; its bags are tiny), which is where the cache
  // pays off most.
  const LatencyReadout zipf_lat = MeasureOpenCursor(zipf, kWarmIters);
  const LatencyReadout tri_lat = MeasureOpenCursor(tri, kWarmIters);

  std::printf("BENCH e12 planner quality + plan cache\n");
  std::printf("  zipf path: truth=%.0f agm=%.3g (off %.0fx) estimate=%.3g "
              "(off %.1fx)\n",
              truth, agm, agm_error, estimate, est_error);
  std::printf("  skewed triangle bags: blind=%lld tuples, cost-aware=%lld "
              "tuples (%.0fx fewer)\n",
              static_cast<long long>(blind_intermediate),
              static_cast<long long>(aware_intermediate),
              aware_intermediate > 0 ? static_cast<double>(blind_intermediate) /
                                           static_cast<double>(aware_intermediate)
                                     : 0.0);
  const auto print_latency = [](const char* name, const LatencyReadout& l) {
    std::printf("  OpenCursor[%s]: cold=%.1fus warm=%.1fus (cache) vs "
                "%.1fus (no cache); hits=%llu misses=%llu "
                "plans_computed=%llu\n",
                name, l.cold_us, l.warm_us, l.nocache_us,
                static_cast<unsigned long long>(l.hits),
                static_cast<unsigned long long>(l.misses),
                static_cast<unsigned long long>(l.plans_computed));
  };
  print_latency("zipf-path", zipf_lat);
  print_latency("skew-triangle", tri_lat);

  std::ofstream json("BENCH_e12.json");
  const auto latency_json = [&json](const char* name,
                                    const LatencyReadout& l) {
    json << "  \"" << name << "\": {\n"
         << "    \"opencursor_cold_us\": " << l.cold_us << ",\n"
         << "    \"opencursor_warm_us\": " << l.warm_us << ",\n"
         << "    \"opencursor_nocache_us\": " << l.nocache_us << ",\n"
         << "    \"plan_cache_hits\": " << l.hits << ",\n"
         << "    \"plan_cache_misses\": " << l.misses << ",\n"
         << "    \"plans_computed\": " << l.plans_computed << "\n"
         << "  }";
  };
  json << "{\n"
       << "  \"bench\": \"e12_planner\",\n"
       << "  \"zipf_true_output\": " << truth << ",\n"
       << "  \"agm_bound\": " << agm << ",\n"
       << "  \"agm_error_factor\": " << agm_error << ",\n"
       << "  \"estimator_output\": " << estimate << ",\n"
       << "  \"estimator_error_factor\": " << est_error << ",\n"
       << "  \"blind_grouping_intermediate_tuples\": " << blind_intermediate
       << ",\n"
       << "  \"cost_aware_intermediate_tuples\": " << aware_intermediate
       << ",\n";
  latency_json("zipf_path", zipf_lat);
  json << ",\n";
  latency_json("skew_triangle", tri_lat);
  json << "\n}\n";
  return 0;
}
