// Shared pieces of the end-to-end benchmark: command-line options,
// timing, percentile summaries, the metric table printed as the result
// line, the operation tally behind `attempted`/`failed`, and the span
// recorder of the traced run.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/anyk/ranked_iterator.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".bench_build";
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A bag of measurements summarized by nearest-rank percentiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// q in [0, 1]; 0.0 when empty.
  double Percentile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = std::ceil(q * static_cast<double>(sorted.size()));
    const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
  }
  double Median() const { return Percentile(0.5); }

 private:
  std::vector<double> values_;
};

/// The metric table of one run, in insertion order of first Set.
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& entry : entries_) {
      if (entry.name == name) {
        entry.value = value;
        entry.unit = unit;
        return;
      }
    }
    entries_.push_back({name, value, unit});
  }
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Operations attempted and failed (opens, fetches, deltas, output
/// checks). Thread-safe. A failure is named on standard error.
struct Tally {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  void Attempt(bool ok, const char* what) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) {
      failed.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "failed: %s\n", what);
    }
  }
};

/// A cost as the stream reports it: the primary double plus the full
/// component vector (LEX), compared exactly as RankedCostLess orders.
struct Cost {
  double primary = 0.0;
  std::vector<double> vec;
};

inline Cost CostOf(const topkjoin::RankedResult& r) {
  return {r.cost, r.cost_vector};
}

/// Equality up to the last-ulp drift of differently associated
/// floating-point folds (batch vs any-k evaluate one cost through
/// different Combine orders).
inline bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a));
}

inline bool SameCost(const Cost& a, const Cost& b) {
  if (!NearlyEqual(a.primary, b.primary)) return false;
  if (a.vec.size() != b.vec.size()) return false;
  for (size_t i = 0; i < a.vec.size(); ++i) {
    if (!NearlyEqual(a.vec[i], b.vec[i])) return false;
  }
  return true;
}

inline bool SameCosts(const std::vector<Cost>& a, const std::vector<Cost>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameCost(a[i], b[i])) return false;
  }
  return true;
}

/// True when `next` does not rank strictly before `prev` in the order
/// of RankedCostLess: the first component that differs decides, and a
/// decrease within NearlyEqual's ulp drift is allowed. (Distinct weights
/// can lie closer than that drift, so a near tie must not fall through
/// to the later components.)
inline bool NotBefore(const Cost& prev, const Cost& next) {
  auto decides = [](double p, double n) {
    return n > p || NearlyEqual(p, n);
  };
  if (prev.primary != next.primary) return decides(prev.primary, next.primary);
  const size_t n = std::min(prev.vec.size(), next.vec.size());
  for (size_t i = 0; i < n; ++i) {
    if (prev.vec[i] != next.vec[i]) return decides(prev.vec[i], next.vec[i]);
  }
  return next.vec.size() >= prev.vec.size();
}

/// One traced interval: a call into a library layer, or a request.
/// `parent` is the span whose work this call is part of (0 = a request
/// root); spans of one request share `request`.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double duration_ns() const { return static_cast<double>(end_ns - start_ns); }
};

/// In-memory span store of one thread (each client thread owns one;
/// they are merged after the run, so recording takes no lock).
class SpanLog {
 public:
  explicit SpanLog(uint64_t id_base = 0) : next_id_(id_base + 1) {}

  uint64_t NewId() { return next_id_++; }

  /// Records a finished span; returns its id.
  uint64_t Record(std::string name, uint64_t request, uint64_t parent,
                  int64_t start_ns, int64_t end_ns, uint64_t id = 0) {
    if (id == 0) id = NewId();
    spans_.push_back({id, parent, request, std::move(name), start_ns, end_ns});
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }
  void Append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }

  /// Self time of every span: its duration minus the durations of its
  /// child spans. Children re-issue the inner call on the same inputs,
  /// so the subtraction keeps nested layers from double-counting.
  std::map<uint64_t, double> SelfTimes() const {
    std::map<uint64_t, double> self;
    for (const Span& s : spans_) self[s.id] += s.duration_ns();
    for (const Span& s : spans_) {
      if (s.parent != 0) self[s.parent] -= s.duration_ns();
    }
    return self;
  }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
