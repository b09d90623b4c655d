// Batch baselines for ranked enumeration, plus the unranked
// constant-delay enumerator the paper connects any-k to (Section 4:
// "constant-delay join enumeration algorithms ... produce all query
// results in quick succession after a short pre-processing phase, albeit
// in no particular order"). Batch-then-sort collects through that same
// unranked walk.
#ifndef TOPKJOIN_ANYK_BATCH_H_
#define TOPKJOIN_ANYK_BATCH_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "src/anyk/ranked_iterator.h"
#include "src/anyk/tdp.h"
#include "src/ranking/cost_model.h"
#include "src/util/cancellation.h"

namespace topkjoin {

/// Unranked enumeration over a T-DP: after the full-reducer
/// preprocessing, results stream with constant delay (an odometer over
/// per-node ranks in preorder, walking the dangling-free groups; no
/// result is ever discarded). Results arrive lexicographically in the
/// per-node ranks -- the one full-output walk, which BatchSorted
/// collects through.
template <typename CM>
class UnrankedEnumerator {
 public:
  explicit UnrankedEnumerator(const Tdp<CM>* tdp) : tdp_(tdp) {
    if (!tdp_.HasResults()) return;
    choice_.resize(tdp_.NumNodes());
    ranks_.resize(tdp_.NumNodes());
    groups_.resize(tdp_.NumNodes());
    groups_[0] = tdp_.RootGroup();
    done_ = !Descend(0);
  }

  /// The next result's tuple choice (one RowId per node, preorder), or
  /// nullptr when exhausted. Valid until the next call.
  const std::vector<RowId>* NextChoice() {
    if (started_ && !done_) Advance();
    started_ = true;
    return done_ ? nullptr : &choice_;
  }

  /// Next assignment (indexed by VarId), or nullopt when exhausted.
  /// Results arrive in no particular cost order.
  std::optional<std::vector<Value>> Next() {
    const std::vector<RowId>* choice = NextChoice();
    if (choice == nullptr) return std::nullopt;
    std::vector<Value> assignment;
    tdp_.AssignmentOf(*choice, &assignment);
    return assignment;
  }

 private:
  // Picks rank ranks_[i] of node i's group and selects its children's
  // groups; false when the group has no such rank.
  bool Choose(size_t i) {
    RowId row = 0;
    if (!tdp_.GroupTuple(i, groups_[i], ranks_[i], &row)) return false;
    choice_[i] = row;
    const auto& node = tdp_.node(i);
    for (size_t ci = 0; ci < node.children.size(); ++ci) {
      groups_[node.children[ci]] = node.child_group(row, ci);
    }
    return true;
  }

  // Restarts nodes [from, end) at rank 0 in the groups their (already
  // chosen) parents select. False only on an empty group, which full
  // reduction rules out.
  bool Descend(size_t from) {
    for (size_t i = from; i < tdp_.NumNodes(); ++i) {
      ranks_[i] = 0;
      if (!Choose(i)) return false;
    }
    return true;
  }

  // Odometer step (group sizes vary with the prefix): bumps the deepest
  // node that has a next rank and restarts every later node.
  void Advance() {
    for (size_t i = tdp_.NumNodes(); i-- > 0;) {
      ++ranks_[i];
      if (Choose(i)) {
        TOPKJOIN_CHECK(Descend(i + 1));
        return;
      }
    }
    done_ = true;
  }

  TdpCursor<CM> tdp_;
  std::vector<RowId> choice_;
  std::vector<uint32_t> ranks_;
  std::vector<GroupId> groups_;
  bool started_ = false;
  bool done_ = true;
};

/// BATCH: enumerate everything unranked, sort by cost, then iterate.
/// This is the paper's "full-output computation + sort" strawman that
/// any-k algorithms beat on time-to-first-result.
template <typename CM>
class BatchSorted : public RankedIterator {
 public:
  using CostT = typename CM::CostT;

  /// Collects every result through UnrankedEnumerator, then sorts by
  /// cost. Polls ExecContext once per result: a cancelled or
  /// past-deadline collection keeps nothing and skips the sort.
  explicit BatchSorted(const Tdp<CM>* tdp) : tdp_(tdp) {
    UnrankedEnumerator<CM> walk(tdp);
    while (const std::vector<RowId>* choice = walk.NextChoice()) {
      if (ExecContext::ShouldAbort()) [[unlikely]] {
        entries_.clear();
        return;
      }
      entries_.push_back({*choice, tdp->CostOf(*choice)});
    }
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) {
                return CM::Less(a.cost, b.cost);
              });
  }

  std::optional<RankedResult> Next() override {
    if (pos_ >= entries_.size()) return std::nullopt;
    RankedResult out;
    tdp_->AssignmentOf(entries_[pos_].choice, &out.assignment);
    out.cost = CM::ToDouble(entries_[pos_].cost);
    out.cost_vector = CM::Components(entries_[pos_].cost);
    ++pos_;
    return out;
  }

  size_t TotalResults() const { return entries_.size(); }

 private:
  struct Entry {
    std::vector<RowId> choice;
    CostT cost;
  };

  const Tdp<CM>* tdp_;
  std::vector<Entry> entries_;
  size_t pos_ = 0;
};

}  // namespace topkjoin

#endif  // TOPKJOIN_ANYK_BATCH_H_
