// Leapfrog Triejoin (Veldhuizen, ICDT 2014): a worst-case optimal join
// over sorted trie iterators. At each variable, the iterators of the
// atoms containing it run a "leapfrog" intersection: repeatedly seek the
// smallest iterator to the largest current key until all agree.
#ifndef TOPKJOIN_JOIN_LEAPFROG_H_
#define TOPKJOIN_JOIN_LEAPFROG_H_

#include <vector>

#include "src/data/database.h"
#include "src/join/join_stats.h"
#include "src/query/cq.h"

namespace topkjoin {

struct LeapfrogOptions {
  std::vector<VarId> var_order;  // empty = ascending VarId order
  /// Stop after the first result and materialize nothing.
  bool boolean_mode = false;
};

struct LeapfrogResult {
  Relation output = Relation::WithArity("lftj", 0);
  bool found_any = false;
  int64_t seeks = 0;  // total trie seeks issued (RAM-model cost)
};

LeapfrogResult LeapfrogTriejoin(const Database& db,
                                const ConjunctiveQuery& query,
                                const LeapfrogOptions& options,
                                JoinStats* stats);

/// Convenience wrapper returning the standard result relation.
Relation LeapfrogJoinAll(const Database& db, const ConjunctiveQuery& query,
                         JoinStats* stats);

bool LeapfrogBoolean(const Database& db, const ConjunctiveQuery& query,
                     JoinStats* stats);

}  // namespace topkjoin

#endif  // TOPKJOIN_JOIN_LEAPFROG_H_
