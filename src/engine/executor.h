// Plan execution: compiles a QueryPlan into a pull-based RankedIterator
// pipeline -- the one streaming interface the engine serves from. The
// pipelines are built from the any-k operator family (direct trees,
// bag decompositions, the 4-cycle union). The top-k middleware and
// rank-join operators (src/topk/) are baselines with their own
// RankedSource interface, called directly rather than planned.
//
// Compilation is two calls. BuildArtifact pays the expensive, shareable
// half (full reducer, bag materialization, T-DP build) once and returns
// an immutable PreprocessingArtifact that owns whatever the pipeline
// needs to stay alive, materialized bag databases included.
// NewEnumeration then mints the cheap per-cursor stream over it. Engine
// calls both, caching the artifact in between. Every plan strategy is instantiated
// per cost-model policy, so MAX/PROD/LEX rankings run through the same
// pipelines as SUM.
#ifndef TOPKJOIN_ENGINE_EXECUTOR_H_
#define TOPKJOIN_ENGINE_EXECUTOR_H_

#include <memory>

#include "src/anyk/artifact.h"
#include "src/anyk/ranked_iterator.h"
#include "src/data/database.h"
#include "src/engine/planner.h"
#include "src/join/join_stats.h"
#include "src/obs/trace.h"
#include "src/query/cq.h"
#include "src/util/status.h"

namespace topkjoin {

/// Compiles the expensive, shareable half of `plan`: the full reducer /
/// bag materialization / T-DP build, as an immutable refcounted
/// PreprocessingArtifact. The artifact owns a copy of `query` (and any
/// materialized bag databases), so it does not retain `db`, `query`, or
/// `stats` -- it may outlive all three, and many concurrent
/// enumerations may share it (see anyk/artifact.h). Honors the caller's
/// ExecContext scope: a cancelled or past-deadline build is discarded
/// and reported as a typed error, never returned half-built. Build time
/// is recorded in the executor.compile_ns histogram.
StatusOr<std::shared_ptr<const PreprocessingArtifact>> BuildArtifact(
    const Database& db, const ConjunctiveQuery& query, const QueryPlan& plan,
    JoinStats* stats = nullptr);

/// Mints one enumeration stream over a (possibly cached) artifact: the
/// cheap per-cursor half. Increments executor.pipelines and wraps the
/// stream in an InstrumentedIterator that records the per-Next
/// delay histogram / frontier counters and feeds the trace's TTL
/// milestones; the wrapper also takes shared ownership of `trace`, so
/// it stays readable after the stream is destroyed. Does NOT add a
/// trace phase -- the caller times its own artifact-lookup-or-build +
/// stream step as "compile+preprocess".
std::unique_ptr<RankedIterator> NewEnumeration(
    const PreprocessingArtifact& artifact, const QueryPlan& plan,
    std::shared_ptr<QueryTrace> trace = nullptr);

}  // namespace topkjoin

#endif  // TOPKJOIN_ENGINE_EXECUTOR_H_
