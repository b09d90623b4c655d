// Implicit sorted trie over a relation, with the open/up/next/seek
// iterator interface of Leapfrog Triejoin (Veldhuizen, ICDT'14) that also
// serves Generic-Join (Ngo-Re-Rudra, SIGMOD Rec. 2014).
//
// The trie is "implicit": tuples are sorted lexicographically under a
// column permutation, and a trie node at depth d is a contiguous range of
// sorted positions sharing the first d attribute values. seek() is a
// binary search within the current range, giving the O~(.) guarantees the
// WCO analyses assume.
#ifndef TOPKJOIN_DATA_TRIE_H_
#define TOPKJOIN_DATA_TRIE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/data/relation.h"

namespace topkjoin {

/// A relation sorted under a column permutation, exposing trie
/// navigation. The relation must outlive the trie.
class SortedTrie {
 public:
  /// `column_order` is a permutation of all columns of `relation`; the
  /// trie has one level per column, in this order.
  SortedTrie(const Relation& relation, std::vector<size_t> column_order);

  const Relation& relation() const { return relation_; }
  const std::vector<size_t>& column_order() const { return column_order_; }
  size_t depth() const { return column_order_.size(); }

  /// Sorted row ids (lexicographic under column_order).
  const std::vector<RowId>& sorted_rows() const { return sorted_rows_; }

  /// Value at sorted position `pos`, trie level `level`.
  Value ValueAt(size_t pos, size_t level) const {
    return relation_.At(sorted_rows_[pos], column_order_[level]);
  }

 private:
  const Relation& relation_;
  std::vector<size_t> column_order_;
  std::vector<RowId> sorted_rows_;
};

/// Mutable cursor over a SortedTrie. Follows the LFTJ interface:
///   Open()  - descend to the first child of the current node;
///   Up()    - return to the parent;
///   Next()  - advance to the next sibling key at the current level;
///   SeekGeq(v) - advance to the least sibling key >= v;
///   AtEnd() - no further sibling at this level;
///   Key()   - the key of the current position.
/// Also counts seeks/advances for RAM-model accounting.
class TrieIterator {
 public:
  explicit TrieIterator(const SortedTrie& trie);

  bool AtEnd() const;
  Value Key() const;

  void Open();
  void Up();
  void Next();
  void SeekGeq(Value v);

  /// Row id of the current full tuple; only valid when the cursor is at
  /// the deepest level and not AtEnd().
  RowId CurrentRow() const;

  /// Sorted positions [first, second) of the run of rows sharing the
  /// current key (use trie().sorted_rows() to map to row ids). Valid
  /// when not AtEnd(). At the deepest level this is the set of duplicate
  /// tuples matching the full assignment (bag semantics).
  std::pair<size_t, size_t> CurrentGroup() const;

  const SortedTrie& trie() const { return trie_; }

  int64_t num_seeks() const { return num_seeks_; }

 private:
  struct Frame {
    size_t begin;      // start of the parent range at this level
    size_t end;        // end of the parent range
    size_t pos;        // current position; key = ValueAt(pos, level)
    size_t group_end;  // end of the run of equal keys starting at pos
  };

  void FixGroupEnd(Frame& f, size_t level);

  const SortedTrie& trie_;
  std::vector<Frame> frames_;
  int64_t num_seeks_ = 0;
};

}  // namespace topkjoin

#endif  // TOPKJOIN_DATA_TRIE_H_
