#include "src/data/trie.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace topkjoin {

SortedTrie::SortedTrie(const Relation& relation,
                       std::vector<size_t> column_order)
    : relation_(relation), column_order_(std::move(column_order)) {
  TOPKJOIN_CHECK(column_order_.size() == relation.arity());
  sorted_rows_.resize(relation.NumTuples());
  std::iota(sorted_rows_.begin(), sorted_rows_.end(), 0);
  std::sort(sorted_rows_.begin(), sorted_rows_.end(),
            [&](RowId a, RowId b) {
              for (size_t c : column_order_) {
                const Value va = relation.At(a, c), vb = relation.At(b, c);
                if (va != vb) return va < vb;
              }
              return a < b;
            });
}

TrieIterator::TrieIterator(const SortedTrie& trie) : trie_(trie) {}

bool TrieIterator::AtEnd() const {
  TOPKJOIN_DCHECK(!frames_.empty());
  const Frame& f = frames_.back();
  return f.pos >= f.end;
}

Value TrieIterator::Key() const {
  TOPKJOIN_DCHECK(!frames_.empty() && !AtEnd());
  return trie_.ValueAt(frames_.back().pos, frames_.size() - 1);
}

void TrieIterator::FixGroupEnd(Frame& f, size_t level) {
  if (f.pos >= f.end) {
    f.group_end = f.end;
    return;
  }
  const Value key = trie_.ValueAt(f.pos, level);
  // Gallop to find the end of the run of `key`; runs are contiguous
  // because rows are sorted.
  size_t step = 1, lo = f.pos + 1;
  while (lo < f.end && trie_.ValueAt(lo, level) == key) {
    const size_t nxt = std::min(f.end, lo + step);
    if (trie_.ValueAt(nxt - 1, level) == key) {
      lo = nxt;
      step *= 2;
    } else {
      break;
    }
  }
  // Binary search within [pos, lo] ... simpler: binary search in
  // [f.pos, f.end) for first position with value > key.
  size_t a = f.pos, b = f.end;
  while (a < b) {
    const size_t mid = a + (b - a) / 2;
    if (trie_.ValueAt(mid, level) <= key) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  f.group_end = a;
}

void TrieIterator::Open() {
  size_t begin, end;
  if (frames_.empty()) {
    begin = 0;
    end = trie_.sorted_rows().size();
  } else {
    TOPKJOIN_DCHECK(!AtEnd());
    begin = frames_.back().pos;
    end = frames_.back().group_end;
  }
  TOPKJOIN_DCHECK(frames_.size() < trie_.depth());
  Frame f{begin, end, begin, begin};
  FixGroupEnd(f, frames_.size());
  frames_.push_back(f);
}

void TrieIterator::Up() {
  TOPKJOIN_DCHECK(!frames_.empty());
  frames_.pop_back();
}

void TrieIterator::Next() {
  TOPKJOIN_DCHECK(!frames_.empty() && !AtEnd());
  Frame& f = frames_.back();
  f.pos = f.group_end;
  FixGroupEnd(f, frames_.size() - 1);
}

void TrieIterator::SeekGeq(Value v) {
  TOPKJOIN_DCHECK(!frames_.empty());
  Frame& f = frames_.back();
  ++num_seeks_;
  const size_t level = frames_.size() - 1;
  // Binary search for the first position in [pos, end) with value >= v.
  size_t a = f.pos, b = f.end;
  while (a < b) {
    const size_t mid = a + (b - a) / 2;
    if (trie_.ValueAt(mid, level) < v) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  f.pos = a;
  FixGroupEnd(f, level);
}

std::pair<size_t, size_t> TrieIterator::CurrentGroup() const {
  TOPKJOIN_DCHECK(!frames_.empty() && !AtEnd());
  return {frames_.back().pos, frames_.back().group_end};
}

RowId TrieIterator::CurrentRow() const {
  TOPKJOIN_DCHECK(frames_.size() == trie_.depth() && !AtEnd());
  return trie_.sorted_rows()[frames_.back().pos];
}

}  // namespace topkjoin
