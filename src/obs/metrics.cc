#include "src/obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace topkjoin {
namespace {

// Measures FastClock ticks against steady_clock over a short spin.
// ~2ms keeps calibration error well under 1% while staying invisible
// at process startup; run once per process (magic static below).
double CalibrateNsPerTick() {
  using Clock = std::chrono::steady_clock;
  const auto wall_start = Clock::now();
  const FastClock::Ticks tick_start = FastClock::Now();
  for (;;) {
    const auto wall_now = Clock::now();
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wall_now -
                                                             wall_start)
            .count();
    if (elapsed >= 2'000'000) {
      const FastClock::Ticks tick_now = FastClock::Now();
      const uint64_t ticks = tick_now - tick_start;
      if (ticks == 0) return 1.0;  // degenerate counter; report raw ticks
      return static_cast<double>(elapsed) / static_cast<double>(ticks);
    }
  }
}

void AppendJsonString(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        out.push_back(c);
    }
  }
  out.push_back('"');
}

void AppendUint(std::string& out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void AppendInt(std::string& out, int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

}  // namespace

double FastClock::NsPerTick() {
  static const double kNsPerTick = CalibrateNsPerTick();
  return kNsPerTick;
}

uint64_t HistogramSnapshot::Percentile(double q) const {
  if (count == 0 || buckets.empty()) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation, 1-based; q=0 -> first, q=1 -> last.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(q * count + 0.5));
  uint64_t seen = 0;
  for (uint32_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      const uint64_t rep = HistogramBuckets::Representative(i);
      return rep < max ? rep : max;
    }
  }
  return max;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  if (other.max > max) max = other.max;
  if (other.buckets.empty()) return;
  if (buckets.empty()) {
    buckets = other.buckets;
    return;
  }
  for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.resize(HistogramBuckets::kNumBuckets, 0);
  uint64_t count = 0;
  for (uint32_t i = 0; i < HistogramBuckets::kNumBuckets; ++i) {
    const uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    snap.buckets[i] = c;
    count += c;
  }
  snap.count = count;
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  if (count == 0) snap.buckets.clear();
  return snap;
}

void Histogram::Merge(const LocalHistogram& local) {
  for (uint32_t i = 0; i < HistogramBuckets::kNumBuckets; ++i) {
    if (local.buckets_[i] != 0) {
      buckets_[i].fetch_add(local.buckets_[i], std::memory_order_relaxed);
    }
  }
  sum_.fetch_add(local.sum_, std::memory_order_relaxed);
  uint64_t cur = max_.load(std::memory_order_relaxed);
  while (cur < local.max_ && !max_.compare_exchange_weak(
                                 cur, local.max_, std::memory_order_relaxed)) {
  }
}

void LocalHistogram::DrainInto(Histogram& target) {
  target.Merge(*this);
  buckets_.fill(0);
  sum_ = 0;
  // max_ intentionally survives the drain: it is a lifetime high-water
  // mark, and Histogram::Merge's max ratchet makes re-merging it
  // idempotent.
}

HistogramSnapshot LocalHistogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.assign(buckets_.begin(), buckets_.end());
  uint64_t count = 0;
  for (uint64_t c : buckets_) count += c;
  snap.count = count;
  snap.sum = sum_;
  snap.max = max_;
  if (count == 0) snap.buckets.clear();
  return snap;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out;
  out.reserve(4096);
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(out, name);
    out.push_back(':');
    AppendInt(out, value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(out, name);
    out.push_back(':');
    AppendInt(out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(out, name);
    out += ":{\"count\":";
    AppendUint(out, hist.count);
    out += ",\"sum\":";
    AppendUint(out, hist.sum);
    out += ",\"max\":";
    AppendUint(out, hist.max);
    char buf[64];
    std::snprintf(buf, sizeof(buf), ",\"mean\":%.3f", hist.Mean());
    out += buf;
    out += ",\"p50\":";
    AppendUint(out, hist.Percentile(0.50));
    out += ",\"p90\":";
    AppendUint(out, hist.Percentile(0.90));
    out += ",\"p99\":";
    AppendUint(out, hist.Percentile(0.99));
    out += ",\"p999\":";
    AppendUint(out, hist.Percentile(0.999));
    // Sparse bucket dump: [[lower_bound, count], ...] for non-empty
    // buckets only, so big histograms stay a few hundred bytes.
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (uint32_t i = 0; i < hist.buckets.size(); ++i) {
      if (hist.buckets[i] == 0) continue;
      if (!first_bucket) out.push_back(',');
      first_bucket = false;
      out.push_back('[');
      AppendUint(out, HistogramBuckets::LowerBound(i));
      out.push_back(',');
      AppendUint(out, hist.buckets[i]);
      out.push_back(']');
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(&mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(&mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  MutexLock lock(&mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(&mu_);
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms[name] = hist->Snapshot();
  }
  return snap;
}

}  // namespace topkjoin
