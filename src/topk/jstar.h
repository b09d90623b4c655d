// J*-style multiway rank join (after Natsev et al., VLDB 2001):
// best-first (A*) search over partial join states in a fixed atom
// order, with an admissible remaining-cost bound built from each unbound
// atom's global minimum weight.
//
// The contrast with any-k (Section 4 of the paper) is the bound quality:
// J* uses loose per-relation minima and therefore keeps a large search
// frontier alive, while the any-k dynamic programs know each partial
// solution's EXACT optimal completion. Experiment E5/E6 territory.
#ifndef TOPKJOIN_TOPK_JSTAR_H_
#define TOPKJOIN_TOPK_JSTAR_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/data/database.h"
#include "src/query/cq.h"

namespace topkjoin {

/// Pull-based J* enumeration: results arrive in non-decreasing total
/// weight. Works for cyclic queries as well.
class JStar {
 public:
  JStar(const Database& db, const ConjunctiveQuery& query,
        const std::vector<size_t>& atom_order);
  ~JStar();

  /// Next result (assignment indexed by VarId, total weight).
  std::optional<std::pair<std::vector<Value>, double>> Next();

  /// Current priority-queue size (the live search frontier).
  int64_t FrontierSize() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace topkjoin

#endif  // TOPKJOIN_TOPK_JSTAR_H_
