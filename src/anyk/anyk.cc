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

const char* AnyKPartVariantName(AnyKPartVariant variant) {
  switch (variant) {
    case AnyKPartVariant::kEager:
      return "eager";
    case AnyKPartVariant::kLazy:
      return "lazy";
    case AnyKPartVariant::kTake2:
      return "take2";
    case AnyKPartVariant::kMemoized:
      return "memoized";
  }
  return "unknown";
}

AnyKAlgorithm AlgorithmForVariant(AnyKPartVariant variant) {
  switch (variant) {
    case AnyKPartVariant::kEager:
      return AnyKAlgorithm::kPartEager;
    case AnyKPartVariant::kLazy:
      return AnyKAlgorithm::kPartLazy;
    case AnyKPartVariant::kTake2:
      return AnyKAlgorithm::kPartTake2;
    case AnyKPartVariant::kMemoized:
      return AnyKAlgorithm::kPartMemoized;
  }
  return AnyKAlgorithm::kPartTake2;
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
