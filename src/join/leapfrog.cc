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

// Binds variables in ascending VarId order. In boolean mode it stops
// at the first result and materializes nothing.
class Engine {
 public:
  Engine(const Database& db, const ConjunctiveQuery& query,
         bool boolean_mode, JoinStats* stats)
      : boolean_mode_(boolean_mode),
        stats_(stats),
        output_(MakeResultRelation(query, "leapfrog_result")),
        assignment_(static_cast<size_t>(query.num_vars()), 0) {
    atoms_.resize(query.NumAtoms());
    for (size_t i = 0; i < query.NumAtoms(); ++i) {
      const Atom& atom = query.atom(i);
      const Relation& rel = db.relation(atom.relation);
      // Column order: ascending VarId.
      std::vector<size_t> cols(atom.vars.size());
      std::iota(cols.begin(), cols.end(), 0);
      std::sort(cols.begin(), cols.end(), [&](size_t a, size_t b) {
        return atom.vars[a] < atom.vars[b];
      });
      for (size_t c : cols) atoms_[i].local_vars.push_back(atom.vars[c]);
      atoms_[i].trie = std::make_unique<SortedTrie>(rel, cols);
      atoms_[i].iter = std::make_unique<TrieIterator>(*atoms_[i].trie);
    }
    // For each variable, the atoms whose tries participate.
    participants_.resize(assignment_.size());
    for (size_t i = 0; i < atoms_.size(); ++i) {
      for (const VarId v : atoms_[i].local_vars) {
        participants_[static_cast<size_t>(v)].push_back(i);
      }
    }
  }

  /// Runs the join; true when it found any result.
  bool Run() {
    Descend(0, 0.0);
    if (stats_ != nullptr) {
      for (const AtomTrie& a : atoms_) {
        stats_->comparisons += a.iter->num_seeks();
      }
    }
    return found_any_;
  }

  Relation& output() { return output_; }

 private:
  // Leapfrog intersection at variable `pos`, then recurse.
  void Descend(size_t pos, Weight weight_so_far) {
    if (stop_) return;
    if (pos == assignment_.size()) {
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
        assignment_[pos] = max_key;
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
      if (boolean_mode_) {
        stop_ = true;
      } else {
        output_.AddTuple(assignment_, weight);
      }
      return;
    }
    const Relation& rel = atoms_[atom_idx].trie->relation();
    for (RowId r : leaf_rows_[atom_idx]) {
      EmitCross(atom_idx + 1, weight + rel.TupleWeight(r));
      if (stop_) return;
    }
  }

  const bool boolean_mode_;
  JoinStats* stats_;
  Relation output_;
  std::vector<Value> assignment_;  // indexed by VarId
  std::vector<AtomTrie> atoms_;
  std::vector<std::vector<size_t>> participants_;
  std::vector<std::vector<RowId>> leaf_rows_;
  bool stop_ = false;
  bool found_any_ = false;
};

}  // namespace

Relation LeapfrogJoinAll(const Database& db, const ConjunctiveQuery& query,
                         JoinStats* stats) {
  Engine engine(db, query, /*boolean_mode=*/false, stats);
  engine.Run();
  return std::move(engine.output());
}

bool LeapfrogBoolean(const Database& db, const ConjunctiveQuery& query,
                     JoinStats* stats) {
  return Engine(db, query, /*boolean_mode=*/true, stats).Run();
}

}  // namespace topkjoin
