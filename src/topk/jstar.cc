#include "src/topk/jstar.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_map>

#include "src/util/common.h"
#include "src/util/hash.h"

namespace topkjoin {

namespace {

// Per-atom access structure: buckets keyed by the join columns shared
// with earlier atoms; rows within a bucket sorted by weight ascending.
struct AtomAccess {
  const Relation* rel = nullptr;
  std::vector<VarId> vars;
  // Columns of this atom bound by earlier atoms, and the VarIds they
  // carry (the key the bucket lookup uses).
  std::vector<size_t> key_cols;
  std::vector<VarId> key_vars;
  std::unordered_map<ValueKey, std::vector<RowId>, ValueKeyHash> buckets;
  double min_weight = 0.0;
};

}  // namespace

struct JStar::Impl {
  const ConjunctiveQuery* query = nullptr;
  std::vector<AtomAccess> atoms;      // in search order
  std::vector<double> remaining_min;  // suffix sums of min_weight

  struct State {
    // Rows chosen for atoms[0..depth-1]; depth >= 1.
    std::vector<RowId> rows;
    // Position of rows.back() within its bucket (for sibling states).
    uint32_t pos = 0;
    double f = 0.0;       // cost so far + admissible remaining bound
    double g = 0.0;       // cost so far
    bool operator>(const State& o) const { return f > o.f; }
  };
  std::priority_queue<State, std::vector<State>, std::greater<State>> pq;

  // Bucket of atom `depth` for the prefix bound by `rows`.
  const std::vector<RowId>* BucketFor(size_t depth,
                                      const std::vector<RowId>& rows) {
    AtomAccess& a = atoms[depth];
    ValueKey key;
    key.values.reserve(a.key_vars.size());
    for (VarId v : a.key_vars) {
      // Find the value of v among bound atoms.
      bool found = false;
      for (size_t i = 0; i < depth && !found; ++i) {
        const auto& bvars = atoms[i].vars;
        for (size_t c = 0; c < bvars.size(); ++c) {
          if (bvars[c] == v) {
            key.values.push_back(atoms[i].rel->At(rows[i], c));
            found = true;
            break;
          }
        }
      }
      TOPKJOIN_CHECK(found);
    }
    const auto it = a.buckets.find(key);
    if (it == a.buckets.end()) return nullptr;
    return &it->second;
  }

  // Builds the state extending `prefix_rows` with the bucket row at
  // `pos` of atom `depth`; returns false when pos is out of range.
  bool MakeState(size_t depth, const std::vector<RowId>& prefix_rows,
                 double prefix_g, uint32_t pos, State* out) {
    const std::vector<RowId>* bucket =
        depth == 0 ? &all_rows0 : BucketFor(depth, prefix_rows);
    if (bucket == nullptr || pos >= bucket->size()) return false;
    const RowId r = (*bucket)[pos];
    out->rows = prefix_rows;
    out->rows.push_back(r);
    out->pos = pos;
    out->g = prefix_g + atoms[depth].rel->TupleWeight(r);
    out->f = out->g + remaining_min[depth + 1];
    return true;
  }

  std::vector<RowId> all_rows0;  // atom 0's rows sorted by weight
};

JStar::JStar(const Database& db, const ConjunctiveQuery& query,
             const std::vector<size_t>& atom_order)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.query = &query;
  TOPKJOIN_CHECK(atom_order.size() == query.NumAtoms());

  std::vector<bool> var_bound(static_cast<size_t>(query.num_vars()), false);
  for (size_t oi = 0; oi < atom_order.size(); ++oi) {
    const Atom& atom = query.atom(atom_order[oi]);
    AtomAccess a;
    a.rel = &db.relation(atom.relation);
    a.vars = atom.vars;
    for (size_t c = 0; c < atom.vars.size(); ++c) {
      if (var_bound[static_cast<size_t>(atom.vars[c])]) {
        a.key_cols.push_back(c);
        a.key_vars.push_back(atom.vars[c]);
      }
    }
    for (VarId v : atom.vars) var_bound[static_cast<size_t>(v)] = true;
    // Build buckets (atom 0 keeps a single global list instead).
    a.min_weight = std::numeric_limits<double>::infinity();
    for (RowId r = 0; r < a.rel->NumTuples(); ++r) {
      a.min_weight = std::min(a.min_weight, a.rel->TupleWeight(r));
      if (oi > 0) {
        ValueKey key;
        key.values.reserve(a.key_cols.size());
        for (size_t c : a.key_cols) key.values.push_back(a.rel->At(r, c));
        a.buckets[key].push_back(r);
      }
    }
    if (a.rel->Empty()) a.min_weight = 0.0;  // join is empty anyway
    im.atoms.push_back(std::move(a));
  }
  // Sort buckets by weight.
  for (AtomAccess& a : im.atoms) {
    for (auto& [key, rows] : a.buckets) {
      std::sort(rows.begin(), rows.end(), [&](RowId x, RowId y) {
        if (a.rel->TupleWeight(x) != a.rel->TupleWeight(y)) {
          return a.rel->TupleWeight(x) < a.rel->TupleWeight(y);
        }
        return x < y;
      });
    }
  }
  // Suffix minima for the admissible bound.
  im.remaining_min.assign(im.atoms.size() + 1, 0.0);
  for (size_t i = im.atoms.size(); i-- > 0;) {
    im.remaining_min[i] = im.remaining_min[i + 1] + im.atoms[i].min_weight;
  }
  // Atom 0's global sorted row list.
  im.all_rows0.resize(im.atoms[0].rel->NumTuples());
  for (RowId r = 0; r < im.atoms[0].rel->NumTuples(); ++r) {
    im.all_rows0[r] = r;
  }
  const Relation* rel0 = im.atoms[0].rel;
  std::sort(im.all_rows0.begin(), im.all_rows0.end(),
            [rel0](RowId x, RowId y) {
              if (rel0->TupleWeight(x) != rel0->TupleWeight(y)) {
                return rel0->TupleWeight(x) < rel0->TupleWeight(y);
              }
              return x < y;
            });
  // Seed.
  Impl::State seed;
  if (im.MakeState(0, {}, 0.0, 0, &seed)) im.pq.push(std::move(seed));
}

JStar::~JStar() = default;

std::optional<std::pair<std::vector<Value>, double>> JStar::Next() {
  Impl& im = *impl_;
  while (!im.pq.empty()) {
    Impl::State s = im.pq.top();
    im.pq.pop();
    const size_t depth = s.rows.size();
    // Sibling: next row in the same bucket of the last bound atom.
    {
      std::vector<RowId> prefix(s.rows.begin(), s.rows.end() - 1);
      const double prefix_g =
          s.g - im.atoms[depth - 1].rel->TupleWeight(s.rows.back());
      Impl::State sib;
      if (im.MakeState(depth - 1, prefix, prefix_g, s.pos + 1, &sib)) {
        im.pq.push(std::move(sib));
      }
    }
    if (depth == im.atoms.size()) {
      // Complete: f == g == true cost.
      std::vector<Value> assignment(
          static_cast<size_t>(im.query->num_vars()), 0);
      for (size_t i = 0; i < im.atoms.size(); ++i) {
        const auto& vars = im.atoms[i].vars;
        for (size_t c = 0; c < vars.size(); ++c) {
          assignment[static_cast<size_t>(vars[c])] =
              im.atoms[i].rel->At(s.rows[i], c);
        }
      }
      return std::make_pair(std::move(assignment), s.g);
    }
    // Child: first row of the next atom's bucket.
    Impl::State child;
    if (im.MakeState(depth, s.rows, s.g, 0, &child)) {
      im.pq.push(std::move(child));
    }
  }
  return std::nullopt;
}

int64_t JStar::FrontierSize() const {
  return static_cast<int64_t>(impl_->pq.size());
}

}  // namespace topkjoin
