// Conventions for materialized join results.
//
// Every batch join algorithm in this library materializes the same
// output shape: one column per query variable in ascending VarId order
// (named x0, x1, ...), with the tuple weight equal to the SUM of the
// weights of the participating input tuples. This makes the algorithms
// directly comparable and differential-testable.
#ifndef TOPKJOIN_JOIN_RESULT_H_
#define TOPKJOIN_JOIN_RESULT_H_

#include <string>
#include <vector>

#include "src/data/relation.h"
#include "src/query/cq.h"

namespace topkjoin {

/// Creates an empty result relation with one column per variable of
/// `query` (x0..x{num_vars-1}).
inline Relation MakeResultRelation(const ConjunctiveQuery& query,
                                   std::string name = "result") {
  std::vector<std::string> attrs;
  attrs.reserve(static_cast<size_t>(query.num_vars()));
  for (VarId v = 0; v < query.num_vars(); ++v) {
    attrs.push_back("x" + std::to_string(v));
  }
  return Relation(std::move(name), std::move(attrs));
}

/// True when two result relations contain the same bag of (tuple, weight)
/// rows, up to order and a small weight tolerance.
bool ResultsEqual(const Relation& a, const Relation& b, double weight_eps);

}  // namespace topkjoin

#endif  // TOPKJOIN_JOIN_RESULT_H_
