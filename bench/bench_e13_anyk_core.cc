// E13: the rebuilt any-k enumeration core, variant by variant.
//
// Measures, on path / star / cyclic workloads and for every ANYK-PART
// successor variant of the pooled engine (eager, lazy, take2, memoized)
// plus ANYK-REC:
//
//   * TTL(k): wall time to the k-th ranked result, k in {1, 10^3, 10^6}
//     (one pass, checkpointed);
//   * per-Next delay: the worst RAM-model work delta (WorkUnits)
//     between consecutive results;
//   * frontier pushes per result and exact peak candidate bytes (direct
//     T-DP workloads, where the engines expose their counters).
//
// Plain executable (no Google Benchmark dependency) so CI always builds
// and runs it; emits BENCH_e13.json next to the binary. CI's
// bench-smoke step feeds the JSON to tools/check_bench_e13.py, which
// fails the build if Take2 pushes more than 2.5 candidates per result
// or more than the pooled Lawler expansion (the `lazy` row) on any
// workload.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/anyk/anyk.h"
#include "src/anyk/anyk_part.h"
#include "src/anyk/anyk_rec.h"
#include "src/anyk/tdp.h"
#include "src/cycles/fourcycle.h"
#include "src/data/generators.h"
#include "src/ranking/cost_model.h"
#include "src/util/rng.h"

namespace topkjoin {
namespace {

struct Workload {
  Database db;
  ConjunctiveQuery query;
};

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

Workload StarWorkload(size_t tuples, Value domain, uint64_t seed) {
  Workload w;
  Rng rng(seed);
  for (int i = 0; i < 3; ++i) {
    const RelationId id = w.db.Add(
        UniformBinaryRelation("S" + std::to_string(i), tuples, domain, rng));
    w.query.AddAtom(id, {0, i + 1});
  }
  return w;
}

Workload FourCycleWorkload(size_t edges, Value domain, uint64_t seed) {
  Workload w;
  Rng rng(seed);
  const RelationId e =
      w.db.Add(UniformBinaryRelation("E", edges, domain, rng));
  w.query = FourCycleQuery(e);
  return w;
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct VariantReadout {
  double preprocess_us = 0.0;
  std::map<size_t, double> ttl_us;  // checkpoint k -> wall time
  size_t results = 0;
  int64_t max_work_delta = 0;
  // Negative = the engine does not expose the counter (union pipelines).
  double pushes_per_result = -1.0;
  long long peak_candidate_bytes = -1;
};

// Drains up to max_k results from `it`, checkpointing wall time at each
// k in `checkpoints` (ascending).
VariantReadout DrainWithCheckpoints(RankedIterator* it,
                                    const std::vector<size_t>& checkpoints,
                                    double preprocess_us) {
  VariantReadout out;
  out.preprocess_us = preprocess_us;
  const size_t max_k = checkpoints.back();
  const auto start = std::chrono::steady_clock::now();
  size_t next_checkpoint = 0;
  int64_t last_work = it->WorkUnits();
  while (out.results < max_k) {
    if (!it->Next().has_value()) break;
    ++out.results;
    const int64_t work = it->WorkUnits();
    out.max_work_delta = std::max(out.max_work_delta, work - last_work);
    last_work = work;
    if (next_checkpoint < checkpoints.size() &&
        out.results == checkpoints[next_checkpoint]) {
      out.ttl_us[checkpoints[next_checkpoint]] = MicrosSince(start);
      ++next_checkpoint;
    }
  }
  // Record exhausted-early checkpoints at the drain time.
  for (; next_checkpoint < checkpoints.size(); ++next_checkpoint) {
    out.ttl_us[checkpoints[next_checkpoint]] = MicrosSince(start);
  }
  return out;
}

template <typename Algo>
size_t PeakBytes(const Algo& algo) {
  return algo.peak_candidate_bytes();
}
template <typename CM>
size_t PeakBytes(const AnyKRec<CM>&) {
  return 0;  // REC's stream state is not candidate-shaped; not compared
}

// One direct-T-DP variant run: builds a fresh T-DP (its construction is
// the preprocessing time) and the chosen engine over it.
template <typename CM, typename MakeAlgo>
VariantReadout RunDirect(const Workload& w, SortMode mode,
                         const std::vector<size_t>& checkpoints,
                         MakeAlgo&& make_algo) {
  const auto start = std::chrono::steady_clock::now();
  Tdp<CM> tdp(w.db, w.query, mode, nullptr);
  const double preprocess_us = MicrosSince(start);
  auto algo = make_algo(&tdp);
  VariantReadout out =
      DrainWithCheckpoints(&*algo, checkpoints, preprocess_us);
  if (out.results > 0) {
    out.pushes_per_result = static_cast<double>(algo->pq_pushes()) /
                            static_cast<double>(out.results);
  }
  out.peak_candidate_bytes =
      static_cast<long long>(PeakBytes(*algo));
  return out;
}

using Readouts = std::map<std::string, VariantReadout>;

template <typename CM>
Readouts RunDirectWorkload(const Workload& w,
                           const std::vector<size_t>& checkpoints) {
  Readouts out;
  out["eager"] = RunDirect<CM>(w, SortMode::kEager, checkpoints, [](auto* tdp) {
    return std::make_unique<AnyKPart<CM, PartStrategy::kLawler>>(tdp);
  });
  out["lazy"] = RunDirect<CM>(w, SortMode::kLazy, checkpoints, [](auto* tdp) {
    return std::make_unique<AnyKPart<CM, PartStrategy::kLawler>>(tdp);
  });
  out["take2"] = RunDirect<CM>(w, SortMode::kLazy, checkpoints, [](auto* tdp) {
    return std::make_unique<AnyKPart<CM, PartStrategy::kTake2>>(tdp);
  });
  out["memoized"] =
      RunDirect<CM>(w, SortMode::kQuickselect, checkpoints, [](auto* tdp) {
        return std::make_unique<AnyKPart<CM, PartStrategy::kTake2>>(tdp);
      });
  out["rec"] = RunDirect<CM>(w, SortMode::kLazy, checkpoints, [](auto* tdp) {
    return std::make_unique<AnyKRec<CM>>(tdp);
  });
  return out;
}

// Cyclic workload: the heavy/light union pipeline per variant. Bag
// materialization is the preprocessing; the per-case engines sit behind
// the union merge, so only TTL/delay are observable.
Readouts RunFourCycleWorkload(const Workload& w,
                              const std::vector<size_t>& checkpoints) {
  Readouts out;
  const std::pair<const char*, AnyKAlgorithm> variants[] = {
      {"eager", AnyKAlgorithm::kPartEager},
      {"lazy", AnyKAlgorithm::kPartLazy},
      {"take2", AnyKAlgorithm::kPartTake2},
      {"memoized", AnyKAlgorithm::kPartMemoized},
      {"rec", AnyKAlgorithm::kRec},
  };
  for (const auto& [name, algorithm] : variants) {
    const auto start = std::chrono::steady_clock::now();
    auto it = MakeFourCycleAnyK(w.db, w.query, algorithm, nullptr);
    const double preprocess_us = MicrosSince(start);
    out[name] = DrainWithCheckpoints(it.get(), checkpoints, preprocess_us);
  }
  return out;
}

void PrintReadouts(const char* workload, const Readouts& readouts) {
  std::printf("  %s:\n", workload);
  for (const auto& [name, r] : readouts) {
    std::string ttl;
    for (const auto& [k, us] : r.ttl_us) {
      ttl += " ttl(" + std::to_string(k) + ")=" +
             std::to_string(static_cast<long long>(us)) + "us";
    }
    std::printf("    %-12s prep=%-9.0fus%s results=%zu", name.c_str(),
                r.preprocess_us, ttl.c_str(), r.results);
    if (r.pushes_per_result >= 0.0) {
      std::printf(" pushes/result=%.2f peak_bytes=%lld", r.pushes_per_result,
                  r.peak_candidate_bytes);
    }
    std::printf(" max_delay=%lld\n",
                static_cast<long long>(r.max_work_delta));
  }
}

void WriteJson(std::ofstream& json, const char* workload,
               const Readouts& readouts, bool last) {
  json << "    \"" << workload << "\": {\n";
  size_t i = 0;
  for (const auto& [name, r] : readouts) {
    json << "      \"" << name << "\": {\n"
         << "        \"preprocess_us\": " << r.preprocess_us << ",\n"
         << "        \"results\": " << r.results << ",\n"
         << "        \"max_work_delta\": " << r.max_work_delta << ",\n"
         << "        \"pushes_per_result\": " << r.pushes_per_result << ",\n"
         << "        \"peak_candidate_bytes\": " << r.peak_candidate_bytes
         << ",\n"
         << "        \"ttl_us\": {";
    size_t j = 0;
    for (const auto& [k, us] : r.ttl_us) {
      json << "\"" << k << "\": " << us;
      if (++j < r.ttl_us.size()) json << ", ";
    }
    json << "}\n      }";
    if (++i < readouts.size()) json << ",";
    json << "\n";
  }
  json << "    }";
  if (!last) json << ",";
  json << "\n";
}

}  // namespace
}  // namespace topkjoin

int main() {
  using namespace topkjoin;

  // Sized so the 4-atom path holds ~1.5e8 results and the star ~2e6 --
  // k = 10^6 stays a genuine top-k prefix on the path (the point of the
  // Take2-vs-Lawler TTL comparison) -- while the preprocessing stays
  // input-linear. The path runs under SUM and under
  // MAX (the paper's bottleneck ranking): MAX's dense cost ties are
  // where the monotone radix frontier shines brightest.
  Workload path = PathWorkload(4, 4000, 120, 41);
  Workload star = StarWorkload(2000, 60, 42);
  Workload cycle = FourCycleWorkload(2000, 60, 43);

  const std::vector<size_t> direct_ks = {1, 1000, 1000000};
  const std::vector<size_t> cyclic_ks = {1, 1000, 100000};

  std::printf("BENCH e13 any-k enumeration core\n");
  const Readouts path_sum = RunDirectWorkload<SumCost>(path, direct_ks);
  PrintReadouts("path4-sum", path_sum);
  const Readouts path_max = RunDirectWorkload<MaxCost>(path, direct_ks);
  PrintReadouts("path4-max", path_max);
  const Readouts star_sum = RunDirectWorkload<SumCost>(star, direct_ks);
  PrintReadouts("star3-sum", star_sum);
  const Readouts cycle_r = RunFourCycleWorkload(cycle, cyclic_ks);
  PrintReadouts("cycle4-sum", cycle_r);

  std::ofstream json("BENCH_e13.json");
  json << "{\n  \"bench\": \"e13_anyk_core\",\n  \"workloads\": {\n";
  WriteJson(json, "path4-sum", path_sum, false);
  WriteJson(json, "path4-max", path_max, false);
  WriteJson(json, "star3-sum", star_sum, false);
  WriteJson(json, "cycle4-sum", cycle_r, true);
  json << "  }\n}\n";
  return 0;
}
