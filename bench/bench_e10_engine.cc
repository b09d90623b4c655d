// E10 -- engine planning overhead: Engine::Execute (plan + compile +
// stream) vs hand-wired MakeAnyK on the E6 any-k path workload. The
// engine adds acyclicity detection, the AGM-bound LP, the sampling
// cardinality estimator (relation reservoirs + a budgeted sample
// join), and one virtual dispatch layer; target overhead is < 25% at
// bench sizes for a one-shot Execute. Repeat requests through
// ServingEngine skip the planning slice entirely via the plan cache
// (perfbench's open_ms.p50 and planner.plan_us measure that delta).
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/anyk/anyk.h"
#include "src/engine/engine.h"

namespace topkjoin::bench {
namespace {

constexpr size_t kStages = 4;
constexpr size_t kFanout = 3;

void BM_DirectAnyK(benchmark::State& state) {
  const auto domain = static_cast<Value>(state.range(0));
  const auto k = static_cast<size_t>(state.range(1));
  Instance t = LayeredPath(kStages, domain, kFanout, 21);
  int64_t produced = 0;
  for (auto _ : state) {
    auto it = MakeAnyK(t.db, t.query, AnyKAlgorithm::kRec);
    produced = 0;
    while (static_cast<size_t>(produced) < k && it->Next().has_value()) {
      ++produced;
    }
  }
  state.counters["k_produced"] = static_cast<double>(produced);
}

void BM_EngineExecute(benchmark::State& state) {
  const auto domain = static_cast<Value>(state.range(0));
  const auto k = static_cast<size_t>(state.range(1));
  Instance t = LayeredPath(kStages, domain, kFanout, 21);
  Engine engine;
  ExecutionOptions opts;
  opts.force_algorithm = AnyKAlgorithm::kRec;  // same algorithm both sides
  int64_t produced = 0;
  for (auto _ : state) {
    auto result = engine.Execute(t.db, t.query, {}, opts);
    if (!result.ok()) {
      state.SkipWithError(result.status().message().c_str());
      break;
    }
    produced = 0;
    while (static_cast<size_t>(produced) < k &&
           result.value().stream->Next().has_value()) {
      ++produced;
    }
  }
  state.counters["k_produced"] = static_cast<double>(produced);
}

void BM_EngineCursorFetch(benchmark::State& state) {
  const auto domain = static_cast<Value>(state.range(0));
  const auto k = static_cast<size_t>(state.range(1));
  Instance t = LayeredPath(kStages, domain, kFanout, 21);
  Engine engine;
  ExecutionOptions opts;
  opts.force_algorithm = AnyKAlgorithm::kRec;
  opts.k = k;
  size_t produced = 0;
  for (auto _ : state) {
    auto cursor = engine.OpenCursor(t.db, t.query, {}, opts);
    if (!cursor.ok()) {
      state.SkipWithError(cursor.status().message().c_str());
      break;
    }
    produced = cursor.value()->Fetch(k).size();
  }
  state.counters["k_produced"] = static_cast<double>(produced);
}

#define ARGS \
  ->Args({500, 10})->Args({2000, 10})->Args({2000, 1000})->Args({8000, 10}) \
  ->Unit(benchmark::kMillisecond)

BENCHMARK(BM_DirectAnyK) ARGS;
BENCHMARK(BM_EngineExecute) ARGS;
BENCHMARK(BM_EngineCursorFetch) ARGS;

}  // namespace
}  // namespace topkjoin::bench

BENCHMARK_MAIN();
