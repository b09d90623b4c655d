#include "src/join/generic_join.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "src/data/hash_index.h"
#include "src/join/result.h"
#include "src/util/common.h"

namespace topkjoin {

namespace {

// Per-atom state: the atom's variables in ascending VarId order (the
// global variable order), plus hash indexes on every column prefix in
// that local order. Index 0 (empty prefix) is represented by the whole
// relation.
struct AtomState {
  const Relation* rel = nullptr;
  std::vector<VarId> local_vars;     // atom vars, ascending
  std::vector<size_t> local_cols;    // local_vars[i] lives in rel column
  std::vector<std::unique_ptr<HashIndex>> prefix_index;  // [1..arity]
};

// Binds variables in ascending VarId order. In boolean mode it stops
// at the first result and materializes nothing.
class Engine {
 public:
  Engine(const Database& db, const ConjunctiveQuery& query,
         bool boolean_mode, JoinStats* stats)
      : db_(db),
        query_(query),
        boolean_mode_(boolean_mode),
        stats_(stats),
        output_(MakeResultRelation(query, "generic_join_result")),
        assignment_(static_cast<size_t>(query.num_vars()), 0) {
    BuildAtomStates();
  }

  /// Runs the join; true when it found any result.
  bool Run() {
    Extend(0, 0.0);
    return found_any_;
  }

  Relation& output() { return output_; }

 private:
  void BuildAtomStates() {
    atoms_.resize(query_.NumAtoms());
    for (size_t i = 0; i < query_.NumAtoms(); ++i) {
      AtomState& st = atoms_[i];
      const Atom& atom = query_.atom(i);
      st.rel = &db_.relation(atom.relation);
      // Local order: atom variables in ascending VarId order.
      std::vector<size_t> cols(atom.vars.size());
      std::iota(cols.begin(), cols.end(), 0);
      std::sort(cols.begin(), cols.end(), [&](size_t a, size_t b) {
        return atom.vars[a] < atom.vars[b];
      });
      for (size_t c : cols) {
        st.local_vars.push_back(atom.vars[c]);
        st.local_cols.push_back(c);
      }
      // Prefix hash indexes for prefix lengths 1..arity.
      for (size_t len = 1; len <= st.local_cols.size(); ++len) {
        std::vector<size_t> key_cols(st.local_cols.begin(),
                                     st.local_cols.begin() +
                                         static_cast<ptrdiff_t>(len));
        st.prefix_index.push_back(
            std::make_unique<HashIndex>(*st.rel, std::move(key_cols)));
      }
    }
  }

  // Rows of atom `a` matching the currently bound prefix of its local
  // vars (the first `depth` of them).
  std::span<const RowId> MatchingRows(const AtomState& a, size_t depth) {
    if (depth == 0) {
      all_rows_buffer_.resize(a.rel->NumTuples());
      std::iota(all_rows_buffer_.begin(), all_rows_buffer_.end(), 0);
      return {all_rows_buffer_.data(), all_rows_buffer_.size()};
    }
    key_buffer_.clear();
    for (size_t i = 0; i < depth; ++i) {
      key_buffer_.push_back(
          assignment_[static_cast<size_t>(a.local_vars[i])]);
    }
    if (stats_ != nullptr) ++stats_->probes;
    return a.prefix_index[depth - 1]->Probe(key_buffer_);
  }

  // Number of this atom's local vars already bound when variable `v`
  // is next (the vars below v).
  static size_t BoundDepth(const AtomState& a, VarId v) {
    size_t d = 0;
    while (d < a.local_vars.size() && a.local_vars[d] < v) ++d;
    return d;
  }

  void Extend(VarId v, Weight weight_so_far) {
    if (stop_) return;
    if (v == query_.num_vars()) {
      EmitLeaf(weight_so_far);
      return;
    }

    // Atoms containing v, with their candidate row sets under the bound
    // prefix. Pick the atom with the fewest candidates to drive the
    // intersection -- the "smallest relation first" rule that makes
    // Generic-Join worst-case optimal.
    size_t driver = SIZE_MAX;
    size_t driver_count = SIZE_MAX;
    std::vector<size_t> checkers;
    for (size_t i = 0; i < atoms_.size(); ++i) {
      const AtomState& a = atoms_[i];
      const size_t d = BoundDepth(a, v);
      if (d >= a.local_vars.size() || a.local_vars[d] != v) continue;
      const size_t count = MatchingRows(a, d).size();
      if (count < driver_count) {
        if (driver != SIZE_MAX) checkers.push_back(driver);
        driver = i;
        driver_count = count;
      } else {
        checkers.push_back(i);
      }
    }
    if (driver == SIZE_MAX) {
      // No atom constrains v. For full CQs every variable occurs in some
      // atom, so this indicates a malformed query.
      TOPKJOIN_CHECK(false);
    }

    // Distinct candidate values of v from the driver.
    const AtomState& drv = atoms_[driver];
    const size_t drv_depth = BoundDepth(drv, v);
    const size_t v_col = drv.local_cols[drv_depth];
    candidate_values_.clear();
    for (RowId r : MatchingRows(drv, drv_depth)) {
      candidate_values_.push_back(drv.rel->At(r, v_col));
    }
    std::sort(candidate_values_.begin(), candidate_values_.end());
    candidate_values_.erase(
        std::unique(candidate_values_.begin(), candidate_values_.end()),
        candidate_values_.end());
    // candidate_values_ is reused across recursion levels; copy out.
    const std::vector<Value> values = candidate_values_;

    for (Value val : values) {
      assignment_[static_cast<size_t>(v)] = val;
      bool ok = true;
      for (size_t i : checkers) {
        const AtomState& a = atoms_[i];
        const size_t d = BoundDepth(a, v);
        TOPKJOIN_DCHECK(a.local_vars[d] == v);
        // Probe the (prefix + v) index for existence.
        key_buffer_.clear();
        for (size_t j = 0; j < d; ++j) {
          key_buffer_.push_back(
              assignment_[static_cast<size_t>(a.local_vars[j])]);
        }
        key_buffer_.push_back(val);
        if (stats_ != nullptr) ++stats_->probes;
        if (!a.prefix_index[d]->Contains(key_buffer_)) {
          ok = false;
          break;
        }
      }
      if (ok) Extend(v + 1, weight_so_far);
      if (stop_) return;
    }
  }

  // All variables bound: emit the cross product of each atom's duplicate
  // matches (bag semantics), summing weights.
  void EmitLeaf(Weight) {
    leaf_rows_.clear();
    for (const AtomState& a : atoms_) {
      key_buffer_.clear();
      for (size_t j = 0; j < a.local_vars.size(); ++j) {
        key_buffer_.push_back(
            assignment_[static_cast<size_t>(a.local_vars[j])]);
      }
      if (stats_ != nullptr) ++stats_->probes;
      const auto rows = a.prefix_index.back()->Probe(key_buffer_);
      TOPKJOIN_DCHECK(!rows.empty());
      leaf_rows_.emplace_back(rows.begin(), rows.end());
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
    for (RowId r : leaf_rows_[atom_idx]) {
      EmitCross(atom_idx + 1,
                weight + atoms_[atom_idx].rel->TupleWeight(r));
      if (stop_) return;
    }
  }

  const Database& db_;
  const ConjunctiveQuery& query_;
  const bool boolean_mode_;
  JoinStats* stats_;
  Relation output_;
  std::vector<AtomState> atoms_;
  std::vector<Value> assignment_;
  std::vector<Value> candidate_values_;
  std::vector<Value> key_buffer_;
  std::vector<RowId> all_rows_buffer_;
  std::vector<std::vector<RowId>> leaf_rows_;
  bool stop_ = false;
  bool found_any_ = false;
};

}  // namespace

Relation GenericJoinAll(const Database& db, const ConjunctiveQuery& query,
                        JoinStats* stats) {
  Engine engine(db, query, /*boolean_mode=*/false, stats);
  engine.Run();
  return std::move(engine.output());
}

bool GenericJoinBoolean(const Database& db, const ConjunctiveQuery& query,
                        JoinStats* stats) {
  return Engine(db, query, /*boolean_mode=*/true, stats).Run();
}

}  // namespace topkjoin
