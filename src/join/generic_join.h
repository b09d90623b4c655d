// Generic-Join (Ngo, Re, Rudra; SIGMOD Record 2014): a worst-case
// optimal multiway join that proceeds one variable at a time, computing
// for each prefix the intersection of the candidate extensions across
// all atoms containing the variable. Runtime O~(AGM bound) for any
// global variable order (Section 3 of the paper).
//
// This implementation intersects via hashing: each atom carries hash
// indexes on every prefix of its (order-aligned) columns; the engine
// iterates the candidate list of the atom with the fewest extensions and
// probes the others.
#ifndef TOPKJOIN_JOIN_GENERIC_JOIN_H_
#define TOPKJOIN_JOIN_GENERIC_JOIN_H_

#include <vector>

#include "src/data/database.h"
#include "src/join/join_stats.h"
#include "src/query/cq.h"

namespace topkjoin {

/// Options for GenericJoin.
struct GenericJoinOptions {
  /// Global variable order. Empty = ascending VarId order.
  std::vector<VarId> var_order;
  /// When true, stop after the first result and materialize nothing
  /// (Boolean query: only `found_any` is meaningful).
  bool boolean_mode = false;
};

/// Result of a GenericJoin run.
struct GenericJoinResult {
  Relation output = Relation::WithArity("gj", 0);
  bool found_any = false;
};

GenericJoinResult GenericJoin(const Database& db,
                              const ConjunctiveQuery& query,
                              const GenericJoinOptions& options,
                              JoinStats* stats);

/// Convenience wrapper returning the standard result relation.
Relation GenericJoinAll(const Database& db, const ConjunctiveQuery& query,
                        JoinStats* stats);

/// Boolean query: any result at all?
bool GenericJoinBoolean(const Database& db, const ConjunctiveQuery& query,
                        JoinStats* stats);

}  // namespace topkjoin

#endif  // TOPKJOIN_JOIN_GENERIC_JOIN_H_
