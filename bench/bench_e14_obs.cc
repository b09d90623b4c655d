// E14: metric-recording overhead on the any-k hot loop.
//
// Drains ranked prefixes of the path4/SUM workload through the Take2
// pooled engine two ways: the raw pipeline, and the same pipeline
// wrapped in InstrumentedIterator (exactly what NewEnumeration installs
// in metrics-on builds). The difference is the wrapper's marginal
// cost, which tools/check_bench_e14.py gates at < 5%.
//
// Measurement discipline -- this box is multi-tenant and noisy, so the
// naive "time each mode once" readout swings +/-15%:
//
//  * The raw baseline is built by a noinline factory returning
//    unique_ptr<RankedIterator>, so both modes are drained through an
//    opaque RankedIterator* -- the deployment shape (Cursor::Next
//    always dispatches virtually). A stack-local concrete iterator
//    would let the compiler devirtualize and inline the raw loop,
//    overstating the wrapper's relative cost.
//  * CLOCK_THREAD_CPUTIME_ID instead of wall time: descheduling while
//    a neighbour runs does not bill us (frequency drift still does).
//  * Reps alternate which mode goes first: sustained load downclocks
//    the machine over the run, which would otherwise bias against
//    whichever mode always ran second.
//  * Two estimators of the true overhead, gated on their minimum:
//    (a) floor: min-over-reps per mode, then the ratio of floors --
//        interference is strictly additive, so per-mode minima
//        converge to the clean-window cost; fails high when one mode
//        never lands a clean window;
//    (b) pair-median: the median of per-rep wrapped/raw ratios --
//        adjacent drains share a noise regime, so each ratio is
//        roughly unbiased; fails high when pairs straddle regime
//        shifts. The failure modes are disjoint, so min(a, b) is a
//        robust (still upward-leaning) estimate of the structural
//        overhead.
//
// Plain executable (no Google Benchmark dependency); emits
// BENCH_e14.json next to the binary. CI's bench-smoke step feeds the
// JSON to tools/check_bench_e14.py, which fails the build if the
// wrapper costs more than 5% on the hot loop or recorded no ordered
// delay percentiles.
#include <ctime>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/anyk/anyk_part.h"
#include "src/anyk/tdp.h"
#include "src/data/generators.h"
#include "src/obs/instrumented_iterator.h"
#include "src/obs/metrics.h"
#include "src/ranking/cost_model.h"
#include "src/util/rng.h"

namespace topkjoin {
namespace {

struct Workload {
  Database db;
  ConjunctiveQuery query;
};

// Same path4 sizing as bench_e13: ~1.5e8 results total, so k = 5*10^5
// is a genuine ranked prefix and the loop stays hot for ~250 ms. The
// deeper prefix also raises the per-result cost (bigger frontier
// heaps), which is the honest denominator for the wrapper's constant
// per-pull cost.
Workload PathWorkload(size_t len, size_t tuples, Value domain,
                      uint64_t seed) {
  Workload w;
  Rng rng(seed);
  for (size_t i = 0; i < len; ++i) {
    const RelationId id = w.db.Add(
        UniformBinaryRelation("R" + std::to_string(i), tuples, domain, rng));
    w.query.AddAtom(id, {static_cast<VarId>(i), static_cast<VarId>(i + 1)});
  }
  return w;
}

double CpuMillis() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

// noinline: the raw baseline must reach Drain as an opaque
// RankedIterator*, the same dispatch shape deployed cursors use.
#if defined(__GNUC__)
__attribute__((noinline))
#endif
std::unique_ptr<RankedIterator> MakeRaw(Tdp<SumCost>* tdp) {
  return std::make_unique<AnyKPart<SumCost, PartStrategy::kTake2>>(tdp);
}

// Drains up to max_k results; returns thread-CPU millis. The checksum
// foils dead-code elimination of the loop.
#if defined(__GNUC__)
__attribute__((noinline))
#endif
double Drain(RankedIterator* it, size_t max_k, double* checksum) {
  const double start = CpuMillis();
  size_t n = 0;
  while (n < max_k) {
    auto result = it->Next();
    if (!result.has_value()) break;
    *checksum += result->cost;
    ++n;
  }
  return CpuMillis() - start;
}

}  // namespace
}  // namespace topkjoin

int main() {
  using namespace topkjoin;

  constexpr size_t kMaxK = 500000;
  constexpr int kPairs = 20;

  const Workload w = PathWorkload(4, 4000, 120, 41);
  Tdp<SumCost> tdp(w.db, w.query, SortMode::kLazy, nullptr);

  std::printf("BENCH e14 observability overhead\n");

  double checksum = 0.0;
  // Warm both code paths and the relation-level caches once before
  // anything is timed.
  {
    auto raw = MakeRaw(&tdp);
    Drain(raw.get(), kMaxK, &checksum);
  }
  {
    InstrumentedIterator wrapped(MakeRaw(&tdp));
    Drain(&wrapped, kMaxK, &checksum);
  }

  double raw_min_ms = 1e300, wrapped_min_ms = 1e300;
  std::vector<double> pair_ratios;
  for (int rep = 0; rep < kPairs; ++rep) {
    double raw_ms = 0.0, wrapped_ms = 0.0;
    const auto run_raw = [&] {
      auto raw = MakeRaw(&tdp);
      raw_ms = Drain(raw.get(), kMaxK, &checksum);
    };
    const auto run_wrapped = [&] {
      InstrumentedIterator wrapped(MakeRaw(&tdp));
      wrapped_ms = Drain(&wrapped, kMaxK, &checksum);
    };
    if (rep % 2 == 0) {
      run_raw();
      run_wrapped();
    } else {
      run_wrapped();
      run_raw();
    }
    raw_min_ms = std::min(raw_min_ms, raw_ms);
    wrapped_min_ms = std::min(wrapped_min_ms, wrapped_ms);
    pair_ratios.push_back(wrapped_ms / raw_ms);
    std::printf("  pair %2d: raw %7.2f ms  wrapped %7.2f ms  (%+.2f%%)\n",
                rep, raw_ms, wrapped_ms, (wrapped_ms / raw_ms - 1.0) * 100.0);
  }

  std::sort(pair_ratios.begin(), pair_ratios.end());
  const size_t m = pair_ratios.size();
  const double median_ratio = (m % 2 != 0)
                                  ? pair_ratios[m / 2]
                                  : (pair_ratios[m / 2 - 1] +
                                     pair_ratios[m / 2]) /
                                        2.0;
  const double floor_pct = (wrapped_min_ms / raw_min_ms - 1.0) * 100.0;
  const double pair_median_pct = (median_ratio - 1.0) * 100.0;
  const double overhead_pct = std::min(floor_pct, pair_median_pct);
  std::printf("  floor %.2f%%  pair-median %.2f%%  ->  overhead %.2f%% "
              "(checksum %.1f)\n",
              floor_pct, pair_median_pct, overhead_pct, checksum);

  // The wrapped drains above populated the global registry; the per-Next
  // delay percentiles below are the acceptance-criteria readout.
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const HistogramSnapshot& delay = snap.histograms.at("anyk.next_delay_ns");
  std::printf("  next_delay_ns: count=%llu p50=%llu p99=%llu p999=%llu "
              "max=%llu\n",
              static_cast<unsigned long long>(delay.count),
              static_cast<unsigned long long>(delay.Percentile(0.50)),
              static_cast<unsigned long long>(delay.Percentile(0.99)),
              static_cast<unsigned long long>(delay.Percentile(0.999)),
              static_cast<unsigned long long>(delay.max));

  std::ofstream json("BENCH_e14.json");
  json << "{\n  \"bench\": \"e14_obs\",\n"
       << "  \"workload\": \"path4-sum\",\n"
       << "  \"k\": " << kMaxK << ",\n"
       << "  \"pairs\": " << kPairs << ",\n"
       << "  \"raw_min_ms\": " << raw_min_ms << ",\n"
       << "  \"wrapped_min_ms\": " << wrapped_min_ms << ",\n"
       << "  \"floor_overhead_pct\": " << floor_pct << ",\n"
       << "  \"pair_median_overhead_pct\": " << pair_median_pct << ",\n"
       << "  \"overhead_pct\": " << overhead_pct << ",\n"
       << "  \"delay_count\": " << delay.count << ",\n"
       << "  \"delay_p50_ns\": " << delay.Percentile(0.50) << ",\n"
       << "  \"delay_p99_ns\": " << delay.Percentile(0.99) << ",\n"
       << "  \"delay_p999_ns\": " << delay.Percentile(0.999) << ",\n"
       << "  \"delay_max_ns\": " << delay.max << "\n"
       << "}\n";
  return 0;
}
