// Leapfrog Triejoin (Veldhuizen, ICDT 2014): a worst-case optimal join
// over sorted trie iterators. At each variable, the iterators of the
// atoms containing it run a "leapfrog" intersection: repeatedly seek the
// smallest iterator to the largest current key until all agree. The
// variables are bound in ascending VarId order; the trie seeks are
// charged to JoinStats::comparisons.
#ifndef TOPKJOIN_JOIN_LEAPFROG_H_
#define TOPKJOIN_JOIN_LEAPFROG_H_

#include "src/data/database.h"
#include "src/join/join_stats.h"
#include "src/query/cq.h"

namespace topkjoin {

/// The full join, as the standard result relation (join/result.h).
Relation LeapfrogJoinAll(const Database& db, const ConjunctiveQuery& query,
                         JoinStats* stats);

/// Boolean query: any result at all?
bool LeapfrogBoolean(const Database& db, const ConjunctiveQuery& query,
                     JoinStats* stats);

}  // namespace topkjoin

#endif  // TOPKJOIN_JOIN_LEAPFROG_H_
