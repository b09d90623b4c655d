#include "src/join/leapfrog.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "src/data/trie.h"
#include "src/join/result.h"
#include "src/util/common.h"

namespace topkjoin {

namespace {

struct AtomTrie {
  std::unique_ptr<SortedTrie> trie;
  std::unique_ptr<TrieIterator> iter;
  std::vector<VarId> local_vars;  // trie level -> variable
};

class Engine {
 public:
  Engine(const Database& db, const ConjunctiveQuery& query,
         const LeapfrogOptions& options, JoinStats* stats)
      : query_(query), options_(options), stats_(stats) {
    var_order_ = options.var_order;
    if (var_order_.empty()) {
      var_order_.resize(static_cast<size_t>(query.num_vars()));
      std::iota(var_order_.begin(), var_order_.end(), 0);
    }
    std::vector<size_t> position_of_var(var_order_.size());
    for (size_t i = 0; i < var_order_.size(); ++i) {
      position_of_var[static_cast<size_t>(var_order_[i])] = i;
    }
    atoms_.resize(query.NumAtoms());
    for (size_t i = 0; i < query.NumAtoms(); ++i) {
      const Atom& atom = query.atom(i);
      const Relation& rel = db.relation(atom.relation);
      // Column order sorted by global variable position.
      std::vector<size_t> cols(atom.vars.size());
      std::iota(cols.begin(), cols.end(), 0);
      std::sort(cols.begin(), cols.end(), [&](size_t a, size_t b) {
        return position_of_var[static_cast<size_t>(atom.vars[a])] <
               position_of_var[static_cast<size_t>(atom.vars[b])];
      });
      for (size_t c : cols) atoms_[i].local_vars.push_back(atom.vars[c]);
      atoms_[i].trie = std::make_unique<SortedTrie>(rel, cols);
      atoms_[i].iter = std::make_unique<TrieIterator>(*atoms_[i].trie);
    }
    // For each variable position, the atoms whose tries participate.
    participants_.resize(var_order_.size());
    for (size_t i = 0; i < atoms_.size(); ++i) {
      for (size_t d = 0; d < atoms_[i].local_vars.size(); ++d) {
        const VarId v = atoms_[i].local_vars[d];
        participants_[position_of_var[static_cast<size_t>(v)]].push_back(i);
      }
    }
  }

  LeapfrogResult Run() {
    LeapfrogResult result;
    result.output = MakeResultRelation(query_, "leapfrog_result");
    output_ = &result.output;
    assignment_.assign(var_order_.size(), 0);
    stop_ = false;
    found_any_ = false;
    Descend(0, 0.0);
    result.found_any = found_any_;
    for (const AtomTrie& a : atoms_) result.seeks += a.iter->num_seeks();
    if (stats_ != nullptr) stats_->comparisons += result.seeks;
    return result;
  }

 private:
  // Leapfrog intersection at variable position `pos`, then recurse.
  void Descend(size_t pos, Weight weight_so_far) {
    if (stop_) return;
    if (pos == var_order_.size()) {
      EmitLeaf(weight_so_far);
      return;
    }
    const auto& parts = participants_[pos];
    TOPKJOIN_CHECK(!parts.empty());
    // Open this level on every participating trie.
    for (size_t i : parts) atoms_[i].iter->Open();

    // Leapfrog search: order iterators by key; repeatedly seek the
    // smallest to the largest until all keys agree.
    bool at_end = false;
    for (size_t i : parts) at_end = at_end || atoms_[i].iter->AtEnd();
    while (!at_end) {
      Value max_key = atoms_[parts[0]].iter->Key();
      bool all_equal = true;
      for (size_t i : parts) {
        const Value k = atoms_[i].iter->Key();
        if (k != max_key) all_equal = false;
        max_key = std::max(max_key, k);
      }
      if (all_equal) {
        assignment_[static_cast<size_t>(var_order_[pos])] = max_key;
        Descend(pos + 1, weight_so_far);
        if (stop_) break;
        // Advance one iterator past the match to continue.
        atoms_[parts[0]].iter->Next();
        if (atoms_[parts[0]].iter->AtEnd()) at_end = true;
      } else {
        for (size_t i : parts) {
          if (atoms_[i].iter->Key() < max_key) {
            atoms_[i].iter->SeekGeq(max_key);
            if (atoms_[i].iter->AtEnd()) {
              at_end = true;
              break;
            }
          }
        }
      }
    }
    for (size_t i : parts) atoms_[i].iter->Up();
  }

  // All levels of all tries are positioned on the full assignment; emit
  // the cross product of duplicate rows (bag semantics).
  void EmitLeaf(Weight) {
    leaf_rows_.clear();
    for (const AtomTrie& a : atoms_) {
      const auto [begin, end] = a.iter->CurrentGroup();
      std::vector<RowId> rows;
      rows.reserve(end - begin);
      for (size_t p = begin; p < end; ++p) {
        rows.push_back(a.trie->sorted_rows()[p]);
      }
      leaf_rows_.push_back(std::move(rows));
    }
    EmitCross(0, 0.0);
  }

  void EmitCross(size_t atom_idx, Weight weight) {
    if (stop_) return;
    if (atom_idx == atoms_.size()) {
      found_any_ = true;
      if (stats_ != nullptr) ++stats_->output_tuples;
      if (options_.boolean_mode) {
        stop_ = true;
      } else {
        output_->AddTuple(assignment_, weight);
      }
      return;
    }
    const Relation& rel = atoms_[atom_idx].trie->relation();
    for (RowId r : leaf_rows_[atom_idx]) {
      EmitCross(atom_idx + 1, weight + rel.TupleWeight(r));
      if (stop_) return;
    }
  }

  const ConjunctiveQuery& query_;
  const LeapfrogOptions& options_;
  JoinStats* stats_;
  std::vector<VarId> var_order_;
  std::vector<AtomTrie> atoms_;
  std::vector<std::vector<size_t>> participants_;
  std::vector<Value> assignment_;
  std::vector<std::vector<RowId>> leaf_rows_;
  Relation* output_ = nullptr;
  bool stop_ = false;
  bool found_any_ = false;
};

}  // namespace

LeapfrogResult LeapfrogTriejoin(const Database& db,
                                const ConjunctiveQuery& query,
                                const LeapfrogOptions& options,
                                JoinStats* stats) {
  Engine engine(db, query, options, stats);
  return engine.Run();
}

Relation LeapfrogJoinAll(const Database& db, const ConjunctiveQuery& query,
                         JoinStats* stats) {
  LeapfrogOptions options;
  return LeapfrogTriejoin(db, query, options, stats).output;
}

bool LeapfrogBoolean(const Database& db, const ConjunctiveQuery& query,
                     JoinStats* stats) {
  LeapfrogOptions options;
  options.boolean_mode = true;
  return LeapfrogTriejoin(db, query, options, stats).found_any;
}

}  // namespace topkjoin
