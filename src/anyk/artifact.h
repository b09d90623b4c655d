// Preprocessing artifacts: the expensive, immutable half of a compiled
// ranked-enumeration pipeline, split from the cheap per-stream
// enumeration state so many concurrent enumerations (serving cursors)
// share one preprocessing pass.
//
// A PreprocessingArtifact owns the T-DP structure (full-reducer output,
// groups, best trees), materialized bag databases with their
// WeightMatrix provenance, and -- for the batch baseline -- the sorted
// full output. Artifacts are refcounted (shared_ptr) and handed out by
// Engine's artifact cache keyed on (plan fingerprint, db identity,
// snapshot epoch); NewStream() mints a fresh enumeration in
// O(per-stream state): a TdpCursor, a frontier seed, and scratch
// buffers. Every stream holds a shared_ptr back to its artifact, so
// in-flight cursors survive cache eviction and db-version invalidation.
//
// This file is the only build path for ranked enumeration: MakeArtifact
// holds the one (AnyKAlgorithm -> algorithm class x SortMode) table,
// for acyclic queries and decomposed (bag) queries alike, and
// RecordTdpBuild is the one place T-DP build metrics are recorded. The
// executor builds artifacts, and the one-shot paths (MakeAnyK,
// MakeFourCycleAnyK) are a build plus one NewStream().
#ifndef TOPKJOIN_ANYK_ARTIFACT_H_
#define TOPKJOIN_ANYK_ARTIFACT_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/anyk/anyk.h"
#include "src/anyk/anyk_part.h"
#include "src/anyk/anyk_rec.h"
#include "src/anyk/batch.h"
#include "src/anyk/ranked_iterator.h"
#include "src/anyk/tdp.h"
#include "src/anyk/union_anyk.h"
#include "src/data/database.h"
#include "src/join/join_stats.h"
#include "src/obs/metrics.h"
#include "src/query/cq.h"
#include "src/query/decomposition.h"
#include "src/util/cancellation.h"

namespace topkjoin {

/// The immutable, shareable half of a compiled pipeline. Thread-safe
/// for concurrent NewStream() calls: construction finishes before the
/// artifact is published (cached / handed out), and nothing mutates
/// afterwards.
class PreprocessingArtifact
    : public std::enable_shared_from_this<PreprocessingArtifact> {
 public:
  virtual ~PreprocessingArtifact() = default;

  /// Mints a fresh enumeration over the shared state. O(per-cursor
  /// state) -- no T-DP, reducer, or bag work. The returned iterator
  /// keeps the artifact alive (holds a shared_ptr to it).
  virtual std::unique_ptr<RankedIterator> NewStream() const = 0;

  /// Approximate resident bytes of the shared preprocessing state.
  virtual size_t ApproxBytes() const = 0;

  /// Live updates: a NEW artifact equal to this one caught up to
  /// `view` (a later snapshot of the same database) by consuming the
  /// append records in `deltas`, sharing/patching state instead of
  /// rebuilding. Returns nullptr when this artifact kind cannot patch
  /// (batch output, union cases, bag decompositions) or the delta is
  /// not a pure refold -- the caller then rebuilds from scratch. This
  /// artifact itself is never mutated; streams already minted keep
  /// enumerating the pre-delta snapshot.
  virtual std::shared_ptr<const PreprocessingArtifact> TryPatch(
      const Database& view, std::span<const AppendDelta> deltas) const {
    (void)view;
    (void)deltas;
    return nullptr;
  }

  /// Refold counters of the patch that produced this artifact; nullptr
  /// when it was built from scratch. Pins "refolded << total" in tests
  /// and bench_e16 without going through the metrics registry.
  virtual const TdpPatchStats* patch_stats() const { return nullptr; }

  /// Human-readable tag (the algorithm name) for traces and debugging.
  const std::string& label() const { return label_; }

 protected:
  std::string label_;
};

/// Records one T-DP build: tdp.build_ns (since `build_start`),
/// tdp.arena_bytes, tdp.groups, tdp.builds and
/// anyk.preprocessing_builds. The only home of these metrics: every
/// artifact that builds a T-DP calls it once per T-DP. It sits at
/// artifact level, not in Tdp's constructor, so code that constructs a
/// Tdp directly (reference replays, tests) is not counted as a build.
template <typename CM>
void RecordTdpBuild(const Tdp<CM>& tdp, FastClock::Ticks build_start) {
  auto& registry = MetricsRegistry::Global();
  registry.GetHistogram("tdp.build_ns")
      ->RecordTicksAsNs(FastClock::Now() - build_start);
  registry.GetHistogram("tdp.arena_bytes")->Record(tdp.ApproxBytes());
  registry.GetHistogram("tdp.groups")->Record(tdp.NumGroups());
  registry.GetCounter("tdp.builds")->Increment();
  registry.GetCounter("anyk.preprocessing_builds")->Increment();
}

/// One enumeration over a shared tree artifact: the algorithm (with its
/// private TdpCursor) plus the owning reference that keeps the T-DP
/// alive. This is the per-cursor "EnumerationState".
template <typename CM, typename Algo>
class TreeEnumeration : public RankedIterator {
 public:
  TreeEnumeration(std::shared_ptr<const PreprocessingArtifact> owner,
                  const Tdp<CM>* tdp)
      : owner_(std::move(owner)), algo_(tdp) {}

  std::optional<RankedResult> Next() override { return algo_.Next(); }

  int64_t WorkUnits() const override {
    return algo_.heap_extractions() + algo_.pq_pushes();
  }

  PipelineCounters Counters() const override {
    PipelineCounters counters;
    counters.frontier_pushes = algo_.pq_pushes();
    counters.heap_extractions = algo_.heap_extractions();
    if constexpr (requires(const Algo& a) { a.peak_candidate_bytes(); }) {
      counters.candidate_pool_bytes =
          static_cast<int64_t>(algo_.peak_candidate_bytes());
    }
    return counters;
  }

 private:
  std::shared_ptr<const PreprocessingArtifact> owner_;  // keeps tdp alive
  Algo algo_;
};

/// Tree-shaped artifact: a T-DP over an acyclic query, or over the
/// acyclic bag query of a decomposed cyclic query (the decomposition's
/// bag database and weight matrices ride along so the T-DP's reduced
/// relations stay backed).
template <typename CM, typename Algo>
class TreeArtifact final : public PreprocessingArtifact {
 public:
  /// Acyclic query over the caller's database (only read here).
  TreeArtifact(const Database& db, const ConjunctiveQuery& query,
               AnyKAlgorithm algorithm, SortMode mode, JoinStats* stats)
      : query_(query),
        build_start_(FastClock::Now()),
        tdp_(db, query_, mode, stats, nullptr) {
    Finish(algorithm);
  }

  /// Bag query: takes ownership of the decomposition (bag database +
  /// weight matrices) the T-DP is built over.
  TreeArtifact(DecomposedQuery dq, AnyKAlgorithm algorithm, SortMode mode,
               JoinStats* stats)
      : dq_(std::move(dq)),
        query_(dq_->query),
        build_start_(FastClock::Now()),
        tdp_(dq_->db, query_, mode, stats, &dq_->bag_weights) {
    Finish(algorithm);
  }

  /// Patch constructor (see TryPatch): a copy of `base` whose T-DP is
  /// delta-refolded over `view`. Sets *ok=false -- leaving the object
  /// unusable, caller must discard it -- when the refold is refused.
  TreeArtifact(const TreeArtifact& base, const Database& view,
               std::span<const AppendDelta> deltas, bool* ok)
      : query_(base.query_), build_start_(FastClock::Now()) {
    label_ = base.label_;
    auto patched =
        Tdp<CM>::Patched(base.tdp_, query_, view, deltas, &patch_stats_);
    *ok = patched.has_value();
    if (!*ok) return;
    tdp_ = std::move(*patched);
    patched_ = true;
    auto& registry = MetricsRegistry::Global();
    registry.GetHistogram("tdp.patch_ns")
        ->RecordTicksAsNs(FastClock::Now() - build_start_);
    registry.GetCounter("tdp.patches")->Increment();
  }

  std::unique_ptr<RankedIterator> NewStream() const override {
    return std::make_unique<TreeEnumeration<CM, Algo>>(shared_from_this(),
                                                       &tdp_);
  }

  size_t ApproxBytes() const override { return tdp_.ApproxBytes(); }

  std::shared_ptr<const PreprocessingArtifact> TryPatch(
      const Database& view,
      std::span<const AppendDelta> deltas) const override {
    // Bag artifacts own a decomposition whose bag database the delta
    // log does not describe; rebuild those.
    if (dq_.has_value()) return nullptr;
    bool ok = false;
    auto patched = std::make_shared<TreeArtifact>(*this, view, deltas, &ok);
    return ok ? patched : nullptr;
  }

  const TdpPatchStats* patch_stats() const override {
    return patched_ ? &patch_stats_ : nullptr;
  }

 private:
  void Finish(AnyKAlgorithm algorithm) {
    label_ = AnyKAlgorithmName(algorithm);
    RecordTdpBuild(tdp_, build_start_);
  }

  // Declaration order matters: dq_ (when present) backs query_, which
  // backs tdp_; build_start_ before tdp_ times its construction. The
  // patch constructor relies on query_ being initialized before tdp_ is
  // assigned (the patched Tdp points at this artifact's query copy).
  std::optional<DecomposedQuery> dq_;
  ConjunctiveQuery query_;
  FastClock::Ticks build_start_;
  Tdp<CM> tdp_;
  TdpPatchStats patch_stats_;
  bool patched_ = false;
};

/// Replays a batch artifact's pre-sorted results. WorkUnits stays 0:
/// all batch work happens at preprocessing time, matching the previous
/// per-cursor BatchSorted accounting.
class BatchReplayIterator : public RankedIterator {
 public:
  BatchReplayIterator(std::shared_ptr<const PreprocessingArtifact> owner,
                      const std::vector<RankedResult>* results)
      : owner_(std::move(owner)), results_(results) {}

  std::optional<RankedResult> Next() override {
    if (pos_ >= results_->size()) return std::nullopt;
    return (*results_)[pos_++];
  }

 private:
  std::shared_ptr<const PreprocessingArtifact> owner_;
  const std::vector<RankedResult>* results_;
  size_t pos_ = 0;
};

/// BATCH baseline artifact: enumerate + sort ONCE, share the sorted
/// output across all cursors. The T-DP is discarded after the drain.
/// Constructed like TreeArtifact, so MakeArtifact builds either.
template <typename CM>
class BatchArtifact final : public PreprocessingArtifact {
 public:
  BatchArtifact(const Database& db, const ConjunctiveQuery& query,
                AnyKAlgorithm algorithm, SortMode mode, JoinStats* stats) {
    Build(db, query, algorithm, mode, stats, nullptr);
  }

  BatchArtifact(DecomposedQuery dq, AnyKAlgorithm algorithm, SortMode mode,
                JoinStats* stats) {
    Build(dq.db, dq.query, algorithm, mode, stats, &dq.bag_weights);
  }

  std::unique_ptr<RankedIterator> NewStream() const override {
    return std::make_unique<BatchReplayIterator>(shared_from_this(),
                                                 &results_);
  }

  size_t ApproxBytes() const override { return approx_bytes_; }

 private:
  void Build(const Database& db, const ConjunctiveQuery& query,
             AnyKAlgorithm algorithm, SortMode mode, JoinStats* stats,
             const std::vector<WeightMatrix>* atom_weights) {
    label_ = AnyKAlgorithmName(algorithm);
    const FastClock::Ticks build_start = FastClock::Now();
    Tdp<CM> tdp(db, query, mode, stats, atom_weights);
    RecordTdpBuild(tdp, build_start);
    // Cooperative cancellation: a T-DP build that aborted mid-phase
    // must not be enumerated (its groups are partial). BatchSorted polls
    // per result while it collects the whole join output (and keeps
    // nothing once the poll fires), and the copy below polls per result
    // too. The aborted artifact is discarded by BuildArtifact.
    if (ExecContext::ShouldAbort()) return;
    BatchSorted<CM> batch(&tdp);
    while (auto r = batch.Next()) {
      if (ExecContext::ShouldAbort()) [[unlikely]] {
        return;
      }
      results_.push_back(std::move(*r));
    }
    approx_bytes_ = results_.capacity() * sizeof(RankedResult);
    for (const RankedResult& r : results_) {
      approx_bytes_ += r.assignment.capacity() * sizeof(Value) +
                       r.cost_vector.capacity() * sizeof(double);
    }
  }

  std::vector<RankedResult> results_;
  size_t approx_bytes_ = 0;
};

/// Union artifact (4-cycle heavy/light case plans): one shared artifact
/// per case; a stream is the cost-ordered merge of fresh per-case
/// streams. Cases partition the result space, so no deduplication.
/// Each case stream holds its own case artifact, and this object owns
/// nothing else a stream reads, so a merged stream needs no owner.
class UnionArtifact final : public PreprocessingArtifact {
 public:
  explicit UnionArtifact(
      std::vector<std::shared_ptr<const PreprocessingArtifact>> cases) {
    cases_ = std::move(cases);
    label_ = "union";
    if (!cases_.empty()) label_ += "/" + cases_[0]->label();
  }

  std::unique_ptr<RankedIterator> NewStream() const override {
    std::vector<std::unique_ptr<RankedIterator>> inputs;
    inputs.reserve(cases_.size());
    for (const auto& c : cases_) inputs.push_back(c->NewStream());
    return std::make_unique<UnionAnyK>(std::move(inputs));
  }

  size_t ApproxBytes() const override {
    size_t total = 0;
    for (const auto& c : cases_) total += c->ApproxBytes();
    return total;
  }

 private:
  std::vector<std::shared_ptr<const PreprocessingArtifact>> cases_;
};

/// The one (AnyKAlgorithm -> algorithm class x SortMode) table, for
/// both artifact sources: `source` is either (db, query) for an acyclic
/// query over the caller's database (only read here), or a
/// DecomposedQuery whose bag database and weight matrices the artifact
/// takes ownership of. kBatch yields a BatchArtifact, every other
/// algorithm a TreeArtifact. Returns nullptr for an unknown algorithm.
template <typename CM, typename... Source>
std::shared_ptr<const PreprocessingArtifact> MakeArtifact(
    AnyKAlgorithm algorithm, JoinStats* stats, Source&&... source) {
  const auto make = [&]<typename Algo>(SortMode mode)
      -> std::shared_ptr<const PreprocessingArtifact> {
    using Artifact =
        std::conditional_t<std::is_same_v<Algo, BatchSorted<CM>>,
                           BatchArtifact<CM>, TreeArtifact<CM, Algo>>;
    return std::make_shared<Artifact>(std::forward<Source>(source)...,
                                      algorithm, mode, stats);
  };
  switch (algorithm) {
    case AnyKAlgorithm::kRec:
      return make.template operator()<AnyKRec<CM>>(SortMode::kLazy);
    case AnyKAlgorithm::kPartEager:
      return make.template operator()<AnyKPart<CM, PartStrategy::kLawler>>(
          SortMode::kEager);
    case AnyKAlgorithm::kPartLazy:
      return make.template operator()<AnyKPart<CM, PartStrategy::kLawler>>(
          SortMode::kLazy);
    case AnyKAlgorithm::kPartTake2:
      return make.template operator()<AnyKPart<CM, PartStrategy::kTake2>>(
          SortMode::kLazy);
    case AnyKAlgorithm::kPartMemoized:
      return make.template operator()<AnyKPart<CM, PartStrategy::kTake2>>(
          SortMode::kQuickselect);
    case AnyKAlgorithm::kBatch:
      return make.template operator()<BatchSorted<CM>>(SortMode::kEager);
  }
  return nullptr;
}

/// MakeArtifact for an acyclic query over the caller's database.
template <typename CM>
std::shared_ptr<const PreprocessingArtifact> MakeTreeArtifact(
    const Database& db, const ConjunctiveQuery& query, AnyKAlgorithm algorithm,
    JoinStats* stats) {
  return MakeArtifact<CM>(algorithm, stats, db, query);
}

}  // namespace topkjoin

#endif  // TOPKJOIN_ANYK_ARTIFACT_H_
