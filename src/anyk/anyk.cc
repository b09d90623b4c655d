#include "src/anyk/anyk.h"

#include "src/anyk/artifact.h"
#include "src/ranking/cost_model.h"

namespace topkjoin {

const char* AnyKAlgorithmName(AnyKAlgorithm algorithm) {
  switch (algorithm) {
    case AnyKAlgorithm::kRec:
      return "anyk-rec";
    case AnyKAlgorithm::kPartEager:
      return "anyk-part-eager";
    case AnyKAlgorithm::kPartLazy:
      return "anyk-part-lazy";
    case AnyKAlgorithm::kPartTake2:
      return "anyk-part-take2";
    case AnyKAlgorithm::kPartMemoized:
      return "anyk-part-memoized";
    case AnyKAlgorithm::kBatch:
      return "batch-sort";
  }
  return "unknown";
}

std::unique_ptr<RankedIterator> MakeAnyK(const Database& db,
                                         const ConjunctiveQuery& query,
                                         AnyKAlgorithm algorithm,
                                         JoinStats* stats) {
  const auto artifact =
      MakeTreeArtifact<SumCost>(db, query, algorithm, stats);
  return artifact == nullptr ? nullptr : artifact->NewStream();
}

}  // namespace topkjoin
