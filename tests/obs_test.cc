// Tests for the observability layer (src/obs/): log-bucket histogram
// accuracy and merge algebra, registry behavior, trace milestones,
// TSAN-visible concurrent snapshot-while-recording, and the T-DP build
// metrics every preprocessing artifact records.
//
// The registry is process-global and tests share one process, so every
// test uses metric names namespaced under "test." and asserts on
// deltas or on metrics it exclusively owns.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/anyk/anyk.h"
#include "src/anyk/artifact.h"
#include "src/cycles/fourcycle.h"
#include "src/obs/instrumented_iterator.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/query/decomposition.h"
#include "src/ranking/cost_model.h"
#include "tests/test_instances.h"

namespace topkjoin {
namespace {

using testing_fixtures::Instance;
using testing_fixtures::MakeFourCycleInstance;
using testing_fixtures::MakePathInstance;
using testing_fixtures::MakeTriangleInstance;

// ------------------------------------------------------------ buckets

TEST(HistogramBucketsTest, SmallValuesGetExactBuckets) {
  for (uint64_t v = 0; v < HistogramBuckets::kSubBucketCount; ++v) {
    EXPECT_EQ(HistogramBuckets::Index(v), v);
    EXPECT_EQ(HistogramBuckets::LowerBound(HistogramBuckets::Index(v)), v);
    EXPECT_EQ(HistogramBuckets::Representative(HistogramBuckets::Index(v)),
              v);
  }
}

TEST(HistogramBucketsTest, IndexIsMonotoneAndInRange) {
  uint32_t prev = 0;
  for (uint64_t v = 0; v < (1u << 20); v += 13) {
    const uint32_t index = HistogramBuckets::Index(v);
    EXPECT_LT(index, HistogramBuckets::kNumBuckets);
    EXPECT_GE(index, prev);
    prev = index;
  }
  // The extremes stay in range.
  EXPECT_LT(HistogramBuckets::Index(~uint64_t{0}),
            HistogramBuckets::kNumBuckets);
}

TEST(HistogramBucketsTest, BucketContainsItsValues) {
  std::mt19937_64 rng(42);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform draw so every magnitude is exercised.
    const int bits = static_cast<int>(rng() % 63) + 1;
    const uint64_t v = rng() & ((uint64_t{1} << bits) - 1);
    const uint32_t index = HistogramBuckets::Index(v);
    EXPECT_LE(HistogramBuckets::LowerBound(index), v);
    EXPECT_LT(v, HistogramBuckets::LowerBound(index) +
                     HistogramBuckets::Width(index));
  }
}

TEST(HistogramBucketsTest, RepresentativeRelativeErrorBound) {
  // The log-bucket contract: for any value, the bucket representative
  // is within 2^-kSubBucketBits relative error.
  const double bound = 1.0 / (1 << HistogramBuckets::kSubBucketBits);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    const int bits = static_cast<int>(rng() % 50) + 1;
    const uint64_t v = (rng() & ((uint64_t{1} << bits) - 1)) + 1;
    const uint64_t rep =
        HistogramBuckets::Representative(HistogramBuckets::Index(v));
    const double err =
        std::abs(static_cast<double>(rep) - static_cast<double>(v)) /
        static_cast<double>(v);
    EXPECT_LE(err, bound) << "v=" << v << " rep=" << rep;
  }
}

// ---------------------------------------------------------- histogram

TEST(HistogramTest, PercentilesOfKnownDistribution) {
  Histogram hist;
  // 1..1000 uniformly: p50 ~ 500, p99 ~ 990.
  for (uint64_t v = 1; v <= 1000; ++v) hist.Record(v);
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, 1000u * 1001u / 2);
  EXPECT_EQ(snap.max, 1000u);
  const double tolerance = 1.0 / (1 << HistogramBuckets::kSubBucketBits);
  EXPECT_NEAR(static_cast<double>(snap.Percentile(0.50)), 500.0,
              500.0 * tolerance + 1.0);
  EXPECT_NEAR(static_cast<double>(snap.Percentile(0.99)), 990.0,
              990.0 * tolerance + 1.0);
  EXPECT_LE(snap.Percentile(1.0), snap.max);
}

TEST(HistogramTest, PercentileIsMonotoneInQ) {
  Histogram hist;
  std::mt19937_64 rng(11);
  for (int i = 0; i < 5000; ++i) hist.Record(rng() % 1'000'000);
  const HistogramSnapshot snap = hist.Snapshot();
  uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const uint64_t p = snap.Percentile(q);
    EXPECT_GE(p, prev) << "q=" << q;
    prev = p;
  }
}

TEST(HistogramTest, MergeIsAssociativeAndCommutative) {
  std::mt19937_64 rng(5);
  auto make = [&rng]() {
    LocalHistogram h;
    for (int i = 0; i < 1000; ++i) h.Record(rng() % (uint64_t{1} << 40));
    return h.Snapshot();
  };
  const HistogramSnapshot a = make(), b = make(), c = make();

  HistogramSnapshot ab_c = a;
  ab_c.Merge(b);
  ab_c.Merge(c);
  HistogramSnapshot bc = b;
  bc.Merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.Merge(bc);
  EXPECT_EQ(ab_c.count, a_bc.count);
  EXPECT_EQ(ab_c.sum, a_bc.sum);
  EXPECT_EQ(ab_c.max, a_bc.max);
  EXPECT_EQ(ab_c.buckets, a_bc.buckets);

  HistogramSnapshot ba = b;
  ba.Merge(a);
  HistogramSnapshot ab = a;
  ab.Merge(b);
  EXPECT_EQ(ab.buckets, ba.buckets);
  EXPECT_EQ(ab.sum, ba.sum);
}

TEST(HistogramTest, LocalDrainMovesEverythingOnce) {
  Histogram global;
  LocalHistogram local;
  for (uint64_t v = 0; v < 100; ++v) local.Record(v);
  local.DrainInto(global);
  EXPECT_EQ(global.Snapshot().count, 100u);
  // Drained: a second drain adds nothing.
  local.DrainInto(global);
  EXPECT_EQ(global.Snapshot().count, 100u);
  EXPECT_EQ(global.Snapshot().max, 99u);
}

// ----------------------------------------------------------- registry

TEST(MetricsRegistryTest, InterningReturnsStablePointers) {
  auto& registry = MetricsRegistry::Global();
  Counter* c1 = registry.GetCounter("test.registry.counter");
  Counter* c2 = registry.GetCounter("test.registry.counter");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(registry.GetCounter("test.registry.other"), c1);
  EXPECT_EQ(registry.GetGauge("test.registry.gauge"),
            registry.GetGauge("test.registry.gauge"));
  EXPECT_EQ(registry.GetHistogram("test.registry.hist"),
            registry.GetHistogram("test.registry.hist"));
}

TEST(MetricsRegistryTest, SnapshotSeesRecordedValues) {
  auto& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test.snapshot.counter");
  Gauge* gauge = registry.GetGauge("test.snapshot.gauge");
  Histogram* hist = registry.GetHistogram("test.snapshot.hist");
  const int64_t counter_before = counter->value();
  counter->Add(3);
  gauge->Set(42);
  gauge->SetMax(17);  // must not lower it
  hist->Record(1000);

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("test.snapshot.counter"), counter_before + 3);
  EXPECT_EQ(snap.gauges.at("test.snapshot.gauge"), 42);
  EXPECT_GE(snap.histograms.at("test.snapshot.hist").count, 1u);
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"test.snapshot.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, ScopedTimerRecordsOneSample) {
  auto& registry = MetricsRegistry::Global();
  Histogram* hist = registry.GetHistogram("test.scoped_timer.hist");
  const uint64_t before = hist->Snapshot().count;
  { ScopedTimer timer(hist); }
  { ScopedTimer inert(nullptr); }  // must not crash
  EXPECT_EQ(hist->Snapshot().count, before + 1);
}

// ------------------------------------------------------- concurrency

// A stats thread snapshots while 8 recorders hammer the same metrics;
// run under TSAN (CI) this proves scrape-during-record is race-free.
// The final snapshot must account for every recorded event.
TEST(MetricsConcurrencyTest, SnapshotWhileRecordingIsCleanAndComplete) {
  auto& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test.concurrent.counter");
  Histogram* hist = registry.GetHistogram("test.concurrent.hist");
  const int64_t counter_before = counter->value();
  const uint64_t hist_before = hist->Snapshot().count;

  constexpr int kRecorders = 8;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    uint64_t last_count = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsSnapshot snap = registry.Snapshot();
      const auto& h = snap.histograms.at("test.concurrent.hist");
      // Monotone progress, internally consistent buckets.
      EXPECT_GE(h.count, last_count);
      last_count = h.count;
      uint64_t bucket_total = 0;
      for (uint64_t b : h.buckets) bucket_total += b;
      EXPECT_EQ(bucket_total, h.count);
      (void)snap.ToJson();
    }
  });
  std::vector<std::thread> recorders;
  for (int t = 0; t < kRecorders; ++t) {
    recorders.emplace_back([&, t] {
      std::mt19937_64 rng(t);
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        hist->Record(rng() % 100000);
      }
    });
  }
  for (auto& thread : recorders) thread.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();

  EXPECT_EQ(counter->value(), counter_before + kRecorders * kPerThread);
  EXPECT_EQ(hist->Snapshot().count,
            hist_before + uint64_t{kRecorders} * kPerThread);
}

// -------------------------------------------------------------- trace

TEST(QueryTraceTest, MilestoneSeriesIs125) {
  EXPECT_EQ(QueryTrace::NextMilestone(0), 1u);
  EXPECT_EQ(QueryTrace::NextMilestone(1), 2u);
  EXPECT_EQ(QueryTrace::NextMilestone(2), 5u);
  EXPECT_EQ(QueryTrace::NextMilestone(5), 10u);
  EXPECT_EQ(QueryTrace::NextMilestone(10), 20u);
  EXPECT_EQ(QueryTrace::NextMilestone(20), 50u);
  EXPECT_EQ(QueryTrace::NextMilestone(50), 100u);
  EXPECT_EQ(QueryTrace::NextMilestone(100), 200u);
  EXPECT_EQ(QueryTrace::NextMilestone(999), 1000u);
  EXPECT_EQ(QueryTrace::NextMilestone(1000), 2000u);
}

TEST(QueryTraceTest, JsonAndDebugRenderings) {
  QueryTrace trace;
  trace.strategy = "anyk-direct/part-take2";
  trace.plan_cache_hit = true;
  trace.AddPhase("plan", 1500);
  trace.AddPhase("compile+preprocess", 2500);
  trace.ttl.push_back({1, 100});
  trace.ttl.push_back({2, 180});
  trace.results = 2;
  trace.work_units = 17;
  trace.enumeration_nanos = 200;
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"plan_cache_hit\":true"), std::string::npos);
  EXPECT_NE(json.find("\"plan\":1500"), std::string::npos);
  EXPECT_NE(json.find("\"1\":100"), std::string::npos);
  EXPECT_NE(json.find("anyk-direct/part-take2"), std::string::npos);
  const std::string debug = trace.DebugString();
  EXPECT_NE(debug.find("TTL(1)"), std::string::npos);
  EXPECT_NE(debug.find("plan_cache_hit"), std::string::npos);
}

// A fake pipeline with deterministic counters, to pin the wrapper's
// flush/delta logic without a real T-DP.
class FakePipeline : public RankedIterator {
 public:
  explicit FakePipeline(int total) : remaining_(total) {}
  std::optional<RankedResult> Next() override {
    if (remaining_ == 0) return std::nullopt;
    --remaining_;
    work_ += 3;
    RankedResult r;
    r.cost = static_cast<double>(work_);
    return r;
  }
  int64_t WorkUnits() const override { return work_; }
  PipelineCounters Counters() const override {
    return {work_ / 3 * 2, work_ / 3, 4096};
  }

 private:
  int remaining_;
  int64_t work_ = 0;
};

TEST(InstrumentedIteratorTest, CountsResultsAndFlushesCounters) {
  auto& registry = MetricsRegistry::Global();
  const int64_t results_before =
      registry.GetCounter("anyk.results")->value();
  const int64_t pushes_before =
      registry.GetCounter("anyk.frontier_pushes")->value();
  const uint64_t delays_before =
      registry.GetHistogram("anyk.next_delay_ns")->Snapshot().count;

  auto trace = std::make_shared<QueryTrace>();
  {
    InstrumentedIterator it(std::make_unique<FakePipeline>(10000), trace);
    while (it.Next().has_value()) {
    }
    EXPECT_EQ(it.WorkUnits(), 30000);
    EXPECT_EQ(it.Counters().frontier_pushes, 20000);
  }
  EXPECT_EQ(registry.GetCounter("anyk.results")->value(),
            results_before + 10000);
  EXPECT_EQ(registry.GetCounter("anyk.frontier_pushes")->value(),
            pushes_before + 20000);
  EXPECT_GE(registry.GetHistogram("anyk.next_delay_ns")->Snapshot().count,
            delays_before + 10000 / InstrumentedIterator::kDelaySamplePeriod);
  EXPECT_GE(registry.GetGauge("anyk.candidate_pool_peak_bytes")->value(),
            4096);

  // The trace finalized: milestones 1,2,5,...,10000 and exact totals.
  EXPECT_EQ(trace->results, 10000u);
  EXPECT_EQ(trace->work_units, 30000);
  ASSERT_FALSE(trace->ttl.empty());
  EXPECT_EQ(trace->ttl.front().k, 1u);
  EXPECT_EQ(trace->ttl.back().k, 10000u);
  uint64_t prev_nanos = 0;
  for (const auto& milestone : trace->ttl) {
    EXPECT_GE(milestone.nanos, prev_nanos);
    prev_nanos = milestone.nanos;
  }
}

TEST(InstrumentedIteratorTest, TraceRecordsEarlyMilestones) {
  auto trace = std::make_shared<QueryTrace>();
  {
    InstrumentedIterator it(std::make_unique<FakePipeline>(7), trace);
    while (it.Next().has_value()) {
    }
  }
  EXPECT_EQ(trace->results, 7u);
  ASSERT_GE(trace->ttl.size(), 3u);  // k = 1, 2, 5
  EXPECT_EQ(trace->ttl[0].k, 1u);
  EXPECT_EQ(trace->ttl[1].k, 2u);
  EXPECT_EQ(trace->ttl[2].k, 5u);
}

// ---------------------------------------------------- artifact builds

// tdp.* build metrics have one home (RecordTdpBuild, anyk/artifact.h):
// every artifact kind -- tree, bag, batch, 4-cycle union -- advances
// tdp.builds and anyk.preprocessing_builds by exactly the number of
// T-DPs it built, and a one-shot MakeAnyK is one artifact build.
TEST(ArtifactMetricsTest, BuildCountersAdvanceOncePerTdp) {
  auto& registry = MetricsRegistry::Global();
  Counter* tdp_builds = registry.GetCounter("tdp.builds");
  Counter* preprocessing_builds =
      registry.GetCounter("anyk.preprocessing_builds");
  Histogram* build_ns = registry.GetHistogram("tdp.build_ns");
  const auto expect_builds = [&](int64_t n, const auto& build,
                                 const char* what) {
    const int64_t tdp_before = tdp_builds->value();
    const int64_t pre_before = preprocessing_builds->value();
    const uint64_t ns_before = build_ns->Snapshot().count;
    build();
    EXPECT_EQ(tdp_builds->value() - tdp_before, n) << what;
    EXPECT_EQ(preprocessing_builds->value() - pre_before, n) << what;
    EXPECT_EQ(build_ns->Snapshot().count - ns_before,
              static_cast<uint64_t>(n))
        << what;
  };

  const Instance path = MakePathInstance(3, 30, 4, 5);
  expect_builds(1, [&] {
    ASSERT_NE(MakeTreeArtifact<SumCost>(path.db, path.query,
                                        AnyKAlgorithm::kPartTake2, nullptr),
              nullptr);
  }, "tree");
  expect_builds(1, [&] {
    ASSERT_NE(MakeTreeArtifact<MaxCost>(path.db, path.query,
                                        AnyKAlgorithm::kBatch, nullptr),
              nullptr);
  }, "batch");
  expect_builds(1, [&] {
    ASSERT_NE(MakeAnyK(path.db, path.query, AnyKAlgorithm::kRec), nullptr);
  }, "MakeAnyK");

  const Instance tri = MakeTriangleInstance(20, 5, 2);
  const auto grouping = FindAcyclicGrouping(tri.query);
  ASSERT_TRUE(grouping.has_value());
  expect_builds(1, [&] {
    ASSERT_NE(MakeArtifact<LexCost>(
                  AnyKAlgorithm::kRec, nullptr,
                  MaterializeGrouping(tri.db, tri.query, *grouping, nullptr)),
              nullptr);
  }, "bag");

  const Instance four = MakeFourCycleInstance(60, 8, 3);
  const int64_t cases = static_cast<int64_t>(
      BuildFourCyclePlans(four.db, four.query, nullptr).cases.size());
  ASSERT_GE(cases, 2);
  expect_builds(cases, [&] {
    ASSERT_NE(MakeFourCycleArtifact(four.db, four.query,
                                    AnyKAlgorithm::kPartLazy, nullptr),
              nullptr);
  }, "union");
}

}  // namespace
}  // namespace topkjoin
