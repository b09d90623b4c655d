// The any-k algorithm menu and the SUM-ranked one-shot factory MakeAnyK
// for an acyclic full CQ. MakeAnyK builds a preprocessing artifact
// (anyk/artifact.h) and returns its one stream; for other ranking
// dioids, or to share one preprocessing pass across many streams, use
// MakeTreeArtifact<CM> / MakeArtifact<CM> directly.
#ifndef TOPKJOIN_ANYK_ANYK_H_
#define TOPKJOIN_ANYK_ANYK_H_

#include <memory>
#include <string>

#include "src/anyk/ranked_iterator.h"
#include "src/data/database.h"
#include "src/join/join_stats.h"
#include "src/query/cq.h"

namespace topkjoin {

/// The ranked-enumeration algorithms the tutorial compares in Part 3.
/// The four kPart* values are the successor-taking variants of
/// ANYK-PART (see anyk_part.h): they emit identical ranked streams and
/// differ in constant factors -- candidate-list maintenance and
/// frontier pushes per result.
enum class AnyKAlgorithm {
  kRec,          // ANYK-REC (recursive enumeration, k-shortest-path lineage)
  kPartEager,    // ANYK-PART, candidate lists pre-sorted; ell pushes/result
  kPartLazy,     // ANYK-PART, lists sorted incrementally; ell pushes/result
  kPartTake2,    // ANYK-PART, lazy lists + <= 2 frontier pushes per result
  kPartMemoized, // ANYK-PART, Take2 over incremental-quickselect lists
  kBatch,        // full enumeration + sort (baseline)
};

const char* AnyKAlgorithmName(AnyKAlgorithm algorithm);

/// Builds the T-DP (full reducer + DP + candidate lists) and wraps the
/// chosen algorithm: MakeTreeArtifact<SumCost>(...)->NewStream(). The
/// query must be acyclic (CHECK-failed otherwise); preprocessing cost is
/// recorded in `stats` when provided.
std::unique_ptr<RankedIterator> MakeAnyK(const Database& db,
                                         const ConjunctiveQuery& query,
                                         AnyKAlgorithm algorithm,
                                         JoinStats* stats = nullptr);

}  // namespace topkjoin

#endif  // TOPKJOIN_ANYK_ANYK_H_
