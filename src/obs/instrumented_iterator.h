// RankedIterator wrapper that records enumeration metrics and feeds
// the optional QueryTrace. NewEnumeration (engine/executor.h) wraps
// every stream with this, so Engine::Execute streams and serving
// cursors report identically.
//
// Overhead discipline: the per-Next cost must stay inside the <5%
// budget bench_e14 gates, so nothing on the Next path touches a
// shared atomic or allocates, and the delay clock is read only around
// every kDelaySamplePeriod-th pull (two reads bracketing the inner
// Next; the unsampled pulls pay one countdown decrement-and-test plus
// a counter increment).
// The sampled service times land in iterator-local plain storage
// (Next() calls are serialized by the owner -- the cursor lock in
// serving, single-threaded pulling otherwise) and are flushed into the
// global registry every kFlushPeriod results and at destruction. A
// concurrent snapshot therefore sees a merged view at most one flush
// period stale, which the serving snapshot docs call out.
#ifndef TOPKJOIN_OBS_INSTRUMENTED_ITERATOR_H_
#define TOPKJOIN_OBS_INSTRUMENTED_ITERATOR_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "src/anyk/ranked_iterator.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace topkjoin {

class InstrumentedIterator : public RankedIterator {
 public:
  /// One in kDelaySamplePeriod pulls has its service time recorded into
  /// anyk.next_delay_ns (power of two; deterministic stride). Full
  /// per-pull timing costs two clock reads per result -- measurably
  /// over the overhead budget on sub-microsecond hot loops -- and at
  /// 1/16 a million-result enumeration still leaves ~62k samples for
  /// the percentile readout.
  static constexpr uint64_t kDelaySamplePeriod = 16;

  /// `trace` may be null (metrics only). The metric pointers are
  /// interned once here, not per Next.
  explicit InstrumentedIterator(std::unique_ptr<RankedIterator> inner,
                                std::shared_ptr<QueryTrace> trace = nullptr)
      : inner_(std::move(inner)),
        trace_(std::move(trace)),
        delay_hist_(MetricsRegistry::Global().GetHistogram(
            "anyk.next_delay_ns")),
        results_counter_(MetricsRegistry::Global().GetCounter("anyk.results")),
        pushes_counter_(
            MetricsRegistry::Global().GetCounter("anyk.frontier_pushes")),
        extractions_counter_(
            MetricsRegistry::Global().GetCounter("anyk.heap_extractions")),
        pool_gauge_(MetricsRegistry::Global().GetGauge(
            "anyk.candidate_pool_peak_bytes")),
        // Cached so the sampled hot path multiplies by a member instead
        // of calling through NsPerTick's init guard every time.
        ns_per_tick_(FastClock::NsPerTick()),
        start_(FastClock::Now()) {
    if (trace_ != nullptr) next_milestone_ = 1;
    ResetCountdown();
  }

  ~InstrumentedIterator() override {
    Flush();
    if (trace_ != nullptr) UpdateTraceTotals(FastClock::Now());
  }

  // Every return here is a bare call expression and every helper has a
  // single `return result;`: mixing a named local with another return
  // statement in one function defeats GCC's named-return-value
  // optimization, and the resulting per-pull 64-byte
  // optional<RankedResult> copy is measurable against the <5% budget.
  //
  // The hot path folds every periodic duty (delay sample, trace
  // milestone, registry flush) into one countdown: EventPull computes
  // how many pulls remain until the next interesting result count and
  // the pulls in between pay only a decrement-and-test on top of the
  // inner call. Flush points (multiples of kFlushPeriod) are multiples
  // of the sample stride, so landing every event on a sampled pull
  // costs nothing extra; trace milestones add a few off-stride samples.
  std::optional<RankedResult> Next() override {
    if (--countdown_ == 0) [[unlikely]] return EventPull();
    return NextFast();
  }

  int64_t WorkUnits() const override { return inner_->WorkUnits(); }
  PipelineCounters Counters() const override { return inner_->Counters(); }

 private:
  // Power of two; 4096 results between global-registry touches keeps
  // the amortized atomic cost per Next far below a nanosecond.
  static constexpr uint64_t kFlushPeriod = 4096;

  std::optional<RankedResult> NextFast() {
    std::optional<RankedResult> result = inner_->Next();
    if (result.has_value()) {
      ++results_;
    } else if (!exhausted_) [[unlikely]] {
      OnExhausted();
    }
    return result;
  }

  // The slow paths are kept out of line so Next's hot frame
  // stays lean (inlining them makes GCC spill six callee-saved
  // registers on every pull, a measurable cost at sub-microsecond
  // per-result rates).
  // noinline but not cold: one pull in kDelaySamplePeriod lands here,
  // too often to banish to .text.unlikely.
#if defined(__GNUC__)
  __attribute__((noinline))
#endif
  std::optional<RankedResult> EventPull() {
    const FastClock::Ticks pull_start = FastClock::Now();
    std::optional<RankedResult> result = inner_->Next();
    if (result.has_value()) {
      ++results_;
      local_delay_.Record(static_cast<uint64_t>(
          static_cast<double>(FastClock::Now() - pull_start) * ns_per_tick_));
      if (results_ == next_milestone_) RecordMilestone(FastClock::Now());
      if ((results_ & (kFlushPeriod - 1)) == 0) Flush();
    } else if (!exhausted_) {
      OnExhausted();
    }
    ResetCountdown();
    return result;
  }

#if defined(__GNUC__)
  __attribute__((noinline, cold))
#endif
  void OnExhausted() {
    exhausted_ = true;
    Flush();
    if (trace_ != nullptr) UpdateTraceTotals(FastClock::Now());
  }

  // Pulls until the next sample-stride boundary or trace milestone,
  // whichever comes first. Called once per event, never on the hot path.
  void ResetCountdown() {
    uint64_t next = (results_ / kDelaySamplePeriod + 1) * kDelaySamplePeriod;
    if (next_milestone_ > results_) next = std::min(next, next_milestone_);
    countdown_ = next - results_;
  }

#if defined(__GNUC__)
  __attribute__((noinline, cold))
#endif
  void RecordMilestone(FastClock::Ticks now) {
    if (trace_->ttl.size() < trace_->ttl.capacity()) {
      trace_->ttl.push_back(
          QueryTrace::TtlMilestone{results_, FastClock::TicksToNs(now - start_)});
    }
    next_milestone_ = QueryTrace::NextMilestone(results_);
    // Keep the running totals fresh so a mid-enumeration trace read
    // (ServingEngine::GetQueryTrace under the cursor lock) sees recent
    // values, not just the final ones.
    UpdateTraceTotals(now);
  }

  void UpdateTraceTotals(FastClock::Ticks now) {
    trace_->results = results_;
    trace_->work_units = inner_->WorkUnits();
    trace_->enumeration_nanos = FastClock::TicksToNs(now - start_);
  }

#if defined(__GNUC__)
  __attribute__((noinline, cold))
#endif
  void Flush() {
    local_delay_.DrainInto(*delay_hist_);
    results_counter_->Add(static_cast<int64_t>(results_ - flushed_results_));
    flushed_results_ = results_;
    const PipelineCounters counters = inner_->Counters();
    pushes_counter_->Add(counters.frontier_pushes - flushed_.frontier_pushes);
    extractions_counter_->Add(counters.heap_extractions -
                              flushed_.heap_extractions);
    pool_gauge_->SetMax(counters.candidate_pool_bytes);
    flushed_ = counters;
  }

  std::unique_ptr<RankedIterator> inner_;
  std::shared_ptr<QueryTrace> trace_;
  Histogram* delay_hist_;
  Counter* results_counter_;
  Counter* pushes_counter_;
  Counter* extractions_counter_;
  Gauge* pool_gauge_;

  double ns_per_tick_;
  FastClock::Ticks start_;
  LocalHistogram local_delay_;
  uint64_t results_ = 0;
  uint64_t flushed_results_ = 0;
  uint64_t next_milestone_ = 0;  // 0 = no trace
  uint64_t countdown_ = 0;       // pulls until the next EventPull
  PipelineCounters flushed_;
  bool exhausted_ = false;
};

}  // namespace topkjoin

#endif  // TOPKJOIN_OBS_INSTRUMENTED_ITERATOR_H_
