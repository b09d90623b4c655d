#include "src/join/result.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace topkjoin {

bool ResultsEqual(const Relation& a, const Relation& b, double weight_eps) {
  if (a.arity() != b.arity() || a.NumTuples() != b.NumTuples()) return false;
  Relation sa = a, sb = b;
  // Sort by values and then by weight so duplicate value-rows pair up by
  // weight as well.
  const size_t n = sa.NumTuples();
  auto sort_rel = [](Relation& r) {
    std::vector<size_t> cols(r.arity());
    std::iota(cols.begin(), cols.end(), 0);
    r.SortByColumns(cols);
  };
  sort_rel(sa);
  sort_rel(sb);
  for (RowId i = 0; i < n; ++i) {
    const auto ta = sa.Tuple(i), tb = sb.Tuple(i);
    if (!std::equal(ta.begin(), ta.end(), tb.begin())) return false;
  }
  // Compare multisets of weights per identical value-row by sorting the
  // weights within runs of equal tuples.
  size_t run_start = 0;
  std::vector<double> wa, wb;
  for (RowId i = 0; i <= n; ++i) {
    const bool run_ends =
        i == n || !std::equal(sa.Tuple(i).begin(), sa.Tuple(i).end(),
                              sa.Tuple(static_cast<RowId>(run_start)).begin());
    if (!run_ends) continue;
    wa.clear();
    wb.clear();
    for (size_t j = run_start; j < i; ++j) {
      wa.push_back(sa.TupleWeight(static_cast<RowId>(j)));
      wb.push_back(sb.TupleWeight(static_cast<RowId>(j)));
    }
    std::sort(wa.begin(), wa.end());
    std::sort(wb.begin(), wb.end());
    for (size_t j = 0; j < wa.size(); ++j) {
      if (std::fabs(wa[j] - wb[j]) > weight_eps) return false;
    }
    run_start = i;
  }
  return true;
}

}  // namespace topkjoin
