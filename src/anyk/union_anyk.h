// Merging ranked streams: the union step for queries decomposed into
// multiple (acyclic) plans -- e.g., the 4-cycle's union of heavy/light
// case plans (Section 3: submodular-width decompositions route "different
// subsets of the input to different plans"; Section 4 enumerates each
// plan's results in rank order and merges).
#ifndef TOPKJOIN_ANYK_UNION_ANYK_H_
#define TOPKJOIN_ANYK_UNION_ANYK_H_

#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "src/anyk/ranked_iterator.h"

namespace topkjoin {

/// K-way merge of ranked iterators by cost. The inputs must partition
/// the result space (as the 4-cycle case plans do): an assignment two
/// inputs both emit is emitted twice.
class UnionAnyK : public RankedIterator {
 public:
  explicit UnionAnyK(std::vector<std::unique_ptr<RankedIterator>> inputs);
  ~UnionAnyK() override;

  std::optional<RankedResult> Next() override;

  /// Sum of the inputs' work counters (the merge heap's own O(log
  /// #inputs) per result is a constant for a fixed decomposition).
  int64_t WorkUnits() const override;

  /// Fieldwise sum of the inputs' counters. The inputs are live at
  /// once, so the summed candidate_pool_bytes peaks bound the union's.
  PipelineCounters Counters() const override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace topkjoin

#endif  // TOPKJOIN_ANYK_UNION_ANYK_H_
