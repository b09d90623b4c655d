// Low-overhead metrics: process-wide named counters/gauges, HDR-style
// log-bucketed latency histograms, and scoped timers.
//
// Design constraints (ISSUE 6):
//   * O(1), allocation-free recording on the enumeration hot path. The
//     atomic Histogram::Record is a single relaxed fetch_add per bucket
//     plus sum/max updates; the non-atomic LocalHistogram used by
//     per-iterator accumulation is three plain stores. Metric objects
//     are interned once in the registry and cached as raw pointers --
//     no name lookups while recording.
//   * Mergeable snapshots: HistogramSnapshot::Merge is bucketwise
//     addition, so per-iterator local histograms, the global registry,
//     and cross-process aggregation all compose associatively.
//
// Bucket math: values < 2^kSubBucketBits get exact unit buckets; above
// that, each power-of-two range is split into 2^kSubBucketBits linear
// sub-buckets, so the representative value of any bucket is within
// 2^-(kSubBucketBits+1) relative error of every value it absorbs
// (kSubBucketBits=5 -> <= 1.6%). This is the HdrHistogram layout
// specialised to uint64 counts with a fixed footprint (1920 buckets,
// 15 KiB), which keeps Record branch-free except for the small-value
// fast path.
//
// Thread-safety: Counter/Gauge/Histogram are safe for concurrent
// Record and Snapshot (relaxed atomics; a snapshot taken during
// recording is a consistent-enough "recent past" view -- each bucket
// individually atomic, totals derived from buckets). LocalHistogram is
// single-writer by construction (owned by one iterator whose Next()
// calls are already serialized by the cursor lock) and must be merged
// into a shared Histogram to become visible.
#ifndef TOPKJOIN_OBS_METRICS_H_
#define TOPKJOIN_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace topkjoin {

/// Cheap monotonic clock for hot-path latency measurement: raw TSC on
/// x86-64, the generic counter on aarch64, steady_clock elsewhere.
/// Ticks are converted to nanoseconds through a once-calibrated scale
/// (NsPerTick); recording sites multiply at record time so histograms
/// always hold nanoseconds.
class FastClock {
 public:
  using Ticks = uint64_t;

  static Ticks Now() {
#if defined(__x86_64__)
    return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
    uint64_t v;
    asm volatile("mrs %0, cntvct_el0" : "=r"(v));
    return v;
#else
    return static_cast<Ticks>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
  }

  /// Nanoseconds per tick, calibrated against steady_clock on first
  /// use (one ~2ms spin per process). Thread-safe (magic static).
  static double NsPerTick();

  /// Elapsed nanoseconds between two Now() readings.
  static uint64_t TicksToNs(Ticks delta) {
    return static_cast<uint64_t>(static_cast<double>(delta) * NsPerTick());
  }
};

/// Monotone event counter.
class Counter {
 public:
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Instantaneous level (open cursors, outstanding debt, pool bytes).
/// Add may be negative; SetMax ratchets a high-water mark.
class Gauge {
 public:
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  /// Lock-free max ratchet (for high-water marks).
  void SetMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Shared log-bucket geometry for Histogram / LocalHistogram /
/// HistogramSnapshot. Covers the full uint64 range.
struct HistogramBuckets {
  /// Sub-bucket resolution: each power-of-two range splits into
  /// 2^kSubBucketBits linear buckets => relative error of a bucket
  /// representative <= 2^-(kSubBucketBits+1) ~= 1.6%.
  static constexpr int kSubBucketBits = 5;
  static constexpr uint32_t kSubBucketCount = 1u << kSubBucketBits;
  static constexpr uint32_t kNumBuckets =
      (64 - kSubBucketBits + 1) * kSubBucketCount;  // 1920

  static uint32_t Index(uint64_t v) {
    if (v < kSubBucketCount) return static_cast<uint32_t>(v);
    const int high = 63 - __builtin_clzll(v);
    const int shift = high - kSubBucketBits;
    return static_cast<uint32_t>(((shift + 1) << kSubBucketBits) +
                                 ((v >> shift) - kSubBucketCount));
  }

  /// Smallest value mapping to `index`.
  static uint64_t LowerBound(uint32_t index) {
    if (index < kSubBucketCount) return index;
    const uint32_t shift = (index >> kSubBucketBits) - 1;
    const uint64_t sub = index & (kSubBucketCount - 1);
    return (static_cast<uint64_t>(kSubBucketCount) + sub) << shift;
  }

  /// Bucket width (number of distinct values the bucket absorbs).
  static uint64_t Width(uint32_t index) {
    if (index < kSubBucketCount) return 1;
    return uint64_t{1} << ((index >> kSubBucketBits) - 1);
  }

  /// Midpoint representative used by Percentile/Mean reconstruction.
  static uint64_t Representative(uint32_t index) {
    return LowerBound(index) + (Width(index) - 1) / 2;
  }
};

/// Immutable copy of a histogram's state. Mergeable and queryable.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  /// Dense bucket counts (HistogramBuckets::kNumBuckets entries) or
  /// empty when nothing was ever recorded.
  std::vector<uint64_t> buckets;

  bool empty() const { return count == 0; }
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Value at quantile q in [0,1] (bucket-representative resolution,
  /// so within the log-bucket relative-error bound of the true
  /// quantile). Monotone in q. Returns 0 for an empty snapshot.
  uint64_t Percentile(double q) const;

  /// Bucketwise addition; associative and commutative.
  void Merge(const HistogramSnapshot& other);
};

/// Concurrent log-bucketed histogram of uint64 values (by convention:
/// nanoseconds for *_ns metrics, raw units otherwise).
class Histogram {
 public:
  void Record(uint64_t v) {
    buckets_[HistogramBuckets::Index(v)].fetch_add(1,
                                                   std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    uint64_t cur = max_.load(std::memory_order_relaxed);
    while (cur < v && !max_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  /// Records a FastClock tick delta converted to nanoseconds.
  void RecordTicksAsNs(FastClock::Ticks delta) {
    Record(FastClock::TicksToNs(delta));
  }

  HistogramSnapshot Snapshot() const;

  /// Folds a drained local histogram in (bucketwise atomic adds).
  void Merge(const class LocalHistogram& local);

 private:
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, HistogramBuckets::kNumBuckets> buckets_{};
};

/// Single-writer histogram for hot loops: plain stores, no atomics.
/// Periodically DrainInto a shared Histogram (which zeroes this one)
/// so concurrent scrapers observe a recent merged view.
class LocalHistogram {
 public:
  void Record(uint64_t v) {
    ++buckets_[HistogramBuckets::Index(v)];
    sum_ += v;
    if (v > max_) max_ = v;
  }
  void RecordTicksAsNs(FastClock::Ticks delta) {
    Record(FastClock::TicksToNs(delta));
  }

  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }

  /// Merges into `target` and resets this histogram to empty.
  void DrainInto(Histogram& target);

  HistogramSnapshot Snapshot() const;

 private:
  friend class Histogram;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
  std::array<uint64_t, HistogramBuckets::kNumBuckets> buckets_{};
};

/// Full registry state at a point in time. Serializable to JSON for
/// the serving snapshot endpoint (histograms export count/sum/max,
/// mean, and the p50/p90/p99/p999 quantiles plus non-empty buckets).
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  std::string ToJson() const;
};

/// Process-wide registry of named metrics. Get* interns on first use
/// and returns a stable pointer -- call once at setup, cache the
/// pointer, record lock-free forever after. Names are dotted paths
/// ("anyk.next_delay_ns"); see README "Observability" for the table.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name) EXCLUDES(mu_);
  Gauge* GetGauge(std::string_view name) EXCLUDES(mu_);
  Histogram* GetHistogram(std::string_view name) EXCLUDES(mu_);

  /// Copies every registered metric. Safe against concurrent
  /// recording (values are a recent-past view) and concurrent Get*.
  MetricsSnapshot Snapshot() const EXCLUDES(mu_);

 private:
  MetricsRegistry() = default;

  // The lock guards the interning maps only; the metric objects they
  // own are themselves concurrent (relaxed atomics) and are recorded
  // against lock-free through the stable pointers Get* hands out.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GUARDED_BY(mu_);
};

/// Records elapsed nanoseconds into a histogram at scope exit.
/// Null histogram => inert (lets call sites keep one code path).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist) : hist_(hist) {
    if (hist_ != nullptr) start_ = FastClock::Now();
  }
  ~ScopedTimer() {
    if (hist_ != nullptr) hist_->RecordTicksAsNs(FastClock::Now() - start_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  FastClock::Ticks start_ = 0;
};

}  // namespace topkjoin

#endif  // TOPKJOIN_OBS_METRICS_H_
