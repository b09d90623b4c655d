// E11 -- concurrent serving throughput: ServingEngine's worker pool
// (DrainAll) at 1/2/4/8 workers vs the inline DrainAll/0 baseline (all
// slices on the calling thread), over a mixed workload of path + star +
// 4-cycle cursors interleaved. Reported as items/sec of ranked results
// delivered; cursor opening (plan + compile + preprocessing) is untimed,
// so the numbers isolate the enumeration/scheduling path that concurrent
// serving actually parallelizes. Scaling requires hardware cores: on a
// single-CPU host every configuration collapses to the baseline minus
// scheduling overhead.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/cycles/fourcycle.h"
#include "src/serving/serving_engine.h"

namespace topkjoin::bench {
namespace {

constexpr size_t kSlice = 16;

// The mixed serving workload: several cursors of each structural family
// the planner routes differently (acyclic T-DP, star, cyclic 4-cycle).
std::vector<Instance> MixedWorkload() {
  std::vector<Instance> instances;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    // ~domain * fanout^3 results per path cursor.
    instances.push_back(LayeredPath(3, /*domain=*/150, /*fanout=*/3,
                                    100 + seed));
  }
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Instance t;
    Rng rng(200 + seed);
    for (int i = 0; i < 3; ++i) {
      const RelationId id = t.db.Add(UniformBinaryRelation(
          "S" + std::to_string(i), /*num_tuples=*/250, /*domain=*/50, rng));
      t.query.AddAtom(id, {0, i + 1});
    }
    instances.push_back(std::move(t));
  }
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Instance t;
    Rng rng(300 + seed);
    const RelationId e = t.db.Add(
        UniformBinaryRelation("E", /*num_tuples=*/150, /*domain=*/25, rng));
    t.query = FourCycleQuery(e);
    instances.push_back(std::move(t));
  }
  return instances;
}

void BM_ServingDrainAll(benchmark::State& state) {
  const std::vector<Instance> instances = MixedWorkload();
  ServingOptions options;
  options.num_workers = static_cast<size_t>(state.range(0));
  int64_t produced = 0;
  for (auto _ : state) {
    state.PauseTiming();  // cursor opening (plan/compile/preprocess)
    auto serving = std::make_unique<ServingEngine>(options);
    const SessionId session = serving->OpenSession();
    for (const Instance& t : instances) {
      auto id = serving->OpenCursor(session, t.db, t.query);
      if (!id.ok()) {
        state.SkipWithError(id.status().message().c_str());
        return;
      }
    }
    state.ResumeTiming();
    const auto streams = serving->DrainAll(kSlice);
    for (const auto& [id, results] : streams) {
      produced += static_cast<int64_t>(results.size());
    }
    state.PauseTiming();  // pool shutdown/joins outside the timed region
    serving.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(produced);
}

BENCHMARK(BM_ServingDrainAll)
    ->Arg(0)  // inline: scheduling overhead without threads
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace topkjoin::bench

BENCHMARK_MAIN();
