// The traced decomposition of one OpenCursor: re-issues, on the same
// snapshot and query, each public call the serving engine makes inside
// it (estimator, PlanQuery, BuildArtifact and the reducer / bag / T-DP
// calls BuildArtifact makes, NewEnumeration, Next), each as a span under
// the caller's parent span, plus the exact counts the layers produce.
#ifndef PERFBENCH_SRC_REPLAY_H_
#define PERFBENCH_SRC_REPLAY_H_

#include <cstdint>
#include <map>
#include <memory>

#include "src/anyk/artifact.h"
#include "src/common.h"
#include "src/data.h"
#include "src/data/database.h"
#include "src/engine/planner.h"
#include "src/stats/cardinality_estimator.h"

namespace perfbench {

/// Enumeration counters of the replayed streams of one ranking.
struct EnumCounts {
  int64_t work = 0;
  int64_t pushes = 0;
  int64_t results = 0;
  int64_t candidate_peak_bytes = 0;
};

/// Per-layer observations that are not span durations.
struct LayerObs {
  std::map<CostModelKind, Samples> next_ns;
  std::map<CostModelKind, EnumCounts> enums;
  Samples qerror_output;
  Samples qerror_intermediate;
  int64_t reduced_tuples = 0;
  int64_t query_bag_tuples = 0;
  int64_t cycles_bag_tuples = 0;
  int64_t tdp_bytes = 0;
  int64_t groups_refolded = 0;
  int64_t groups_total = 0;
};

/// Where replay spans go: `log` may be null (count-only passes).
struct SpanTarget {
  SpanLog* log = nullptr;
  uint64_t request = 0;
  /// Parent of the open-time calls (estimator .. NewEnumeration).
  uint64_t open_parent = 0;
  /// Parent of the first Next (the span of the slice that returned the
  /// first result).
  uint64_t first_result_parent = 0;
};

/// The benchmark's own estimator per database, maintained across
/// snapshots the way the engine's cache maintains its own: built once,
/// then extended over appended rows.
class EstimatorBook {
 public:
  const topkjoin::CardinalityEstimator& For(
      const std::shared_ptr<const topkjoin::DatabaseSnapshot>& snap,
      const Database* live, const SpanTarget& target);

 private:
  struct Entry {
    std::shared_ptr<const topkjoin::DatabaseSnapshot> snap;
    std::unique_ptr<topkjoin::CardinalityEstimator> est;
  };
  std::map<const Database*, Entry> entries_;
};

struct ReplayResult {
  topkjoin::QueryPlan plan;
  std::shared_ptr<const topkjoin::PreprocessingArtifact> artifact;
  /// Wall time of the open-time calls plus the first Next: the replay's
  /// own time to first result.
  int64_t ttf_ns = 0;
  bool ok = false;
};

/// Replays the open of `spec` over `snap` and pulls up to `k` results,
/// timing every Next into obs->next_ns. Returns ok=false when a library
/// call fails.
ReplayResult ReplayOpen(EstimatorBook* book, const SpanTarget& target,
                        const std::shared_ptr<const topkjoin::DatabaseSnapshot>&
                            snap,
                        const QuerySpec& spec,
                        const topkjoin::ExecutionOptions& opts, size_t k,
                        LayerObs* obs);

/// What the replay of one request needs: the query, the snapshot its
/// cursor pinned and, after a delta to its database, the snapshot
/// before the delta (the epoch of the artifact the engine patches).
struct Replayable {
  const QuerySpec* spec = nullptr;
  std::shared_ptr<const topkjoin::DatabaseSnapshot> snap;
  std::shared_ptr<const topkjoin::DatabaseSnapshot> pre_delta;
};

/// ReplayOpen of `r`, plus -- when `r` followed a delta and planned a
/// patchable tree artifact -- the patch of this query's artifact from
/// the pre-delta snapshot (rebuilt there untimed) up to `r.snap`.
ReplayResult ReplayRequest(EstimatorBook* book, const SpanTarget& target,
                           const Replayable& r,
                           const topkjoin::ExecutionOptions& opts, size_t k,
                           LayerObs* obs);

/// Replays the incremental patch of `base` (built at `base_epoch` of
/// `live`) up to `snap`, as an anyk.tdp_patch span. Returns the patched
/// artifact, or null when the artifact kind cannot patch.
std::shared_ptr<const topkjoin::PreprocessingArtifact> ReplayPatch(
    const SpanTarget& target, const topkjoin::PreprocessingArtifact& base,
    uint64_t base_epoch, const Database& live,
    const std::shared_ptr<const topkjoin::DatabaseSnapshot>& snap,
    LayerObs* obs);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPLAY_H_
