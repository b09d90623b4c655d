// T-DP: the tree-shaped dynamic program underlying any-k ranked
// enumeration (Tziavelis et al., VLDB 2020 [90]; Section 4 of the
// paper).
//
// Construction:
//   1. GYO join tree over the acyclic full CQ.
//   2. Full-reducer pass => dangling-free relations (global consistency).
//   3. Tuples of each join-tree node are partitioned into groups by
//      their join key with the parent node; a solution picks one tuple
//      per node such that each child's tuple lies in the group selected
//      by its parent's tuple.
//   4. Bottom-up DP: best[t] = w(t) (+) best completions of all child
//      subtrees -- the "principle of optimality" view that connects
//      any-k to k-shortest-path algorithms.
//
// Group candidate lists can be maintained eagerly (fully sorted at
// preprocessing time), lazily via a binary heap, or lazily via
// incremental quickselect -- the distinction behind the
// Eager/Lazy/Memoized any-k variants of [90].
//
// Sharing: a Tdp is IMMUTABLE once constructed. The incremental sorting
// state of the lazy/quickselect modes (heap layouts, sorted-prefix
// watermarks, pivot stacks) lives in a per-enumeration TdpCursor, so
// one Tdp -- the expensive preprocessing artifact -- can back any
// number of concurrent enumerations (see anyk/artifact.h). Rank 0 of
// every group is precomputed (Group::min_pos), so GroupBest and optimal
// completions never touch cursor state.
//
// Construction is allocation-frugal by design: group keys are interned
// into a flat open-addressing (hash, offset) index built columnar-first,
// rows live in one contiguous arena per node, and per-tuple child-group
// ids go into one flat array -- BuildGroups/ComputeBest perform zero
// per-tuple heap allocations (pinned by tests/anyk_core_test.cc).
//
// Live updates (Patched) refold a copy of a built Tdp through the same
// per-row rules the build uses (FoldRow, RowBest, OrganizeGroup), so an
// appended or dirtied row is folded exactly as a rebuild folds it.
#ifndef TOPKJOIN_ANYK_TDP_H_
#define TOPKJOIN_ANYK_TDP_H_

#include <algorithm>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/data/database.h"
#include "src/data/delta.h"
#include "src/join/join_stats.h"
#include "src/join/semijoin.h"
#include "src/query/cq.h"
#include "src/query/hypergraph.h"
#include "src/ranking/cost_model.h"
#include "src/util/cancellation.h"
#include "src/util/hash.h"

namespace topkjoin {

/// Group index within a node.
using GroupId = uint32_t;

/// What a delta-scoped refold (Tdp::Patched) actually did -- the
/// counters behind the "refolded groups << total groups" pin for live
/// updates (kept per patch, independent of the metrics registry).
struct TdpPatchStats {
  size_t groups_total = 0;     // group lists across all nodes
  size_t groups_refolded = 0;  // groups re-sorted / re-minimized
  size_t rows_appended = 0;    // tuples appended across node relations
};

/// How group candidate lists are sorted.
enum class SortMode {
  kEager,        // sort every group fully during preprocessing
  kLazy,         // heapify on first deep access; pop incrementally on demand
  kQuickselect,  // incremental quickselect (IQS): partition on demand, so
                 // deep ranks cost amortized O(1) extra comparisons instead
                 // of a heap pop each -- the Memoized variant's substrate
};

/// Flat group-key interning: an open-addressing (hash -> GroupId) table
/// whose key values live in one contiguous arena (group id * width).
/// Replaces the per-node unordered_map<ValueKey, GroupId>: probing does
/// no allocation and key storage is one flat buffer, so interning n
/// tuples costs zero per-tuple heap allocations.
class GroupKeyIndex {
 public:
  static constexpr GroupId kNoGroup = static_cast<GroupId>(-1);

  /// Prepares for ~expected_keys insertions of `width`-value keys.
  void Reset(size_t expected_keys, size_t width) {
    width_ = width;
    size_t cap = 8;
    while (cap < expected_keys * 2) cap <<= 1;
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    key_values_.clear();
    num_keys_ = 0;
  }

  /// Returns the group of `key` (of `width()` values, prehashed to
  /// `hash`), interning it as a fresh group when unseen.
  GroupId Intern(uint64_t hash, const Value* key) {
    size_t i = static_cast<size_t>(hash) & mask_;
    while (true) {
      Slot& slot = slots_[i];
      if (slot.group == kNoGroup) {
        slot.hash = hash;
        slot.group = static_cast<GroupId>(num_keys_++);
        key_values_.insert(key_values_.end(), key, key + width_);
        return slot.group;
      }
      if (slot.hash == hash && KeyEquals(slot.group, key)) return slot.group;
      i = (i + 1) & mask_;
    }
  }

  /// Lookup without interning; kNoGroup when absent.
  GroupId Find(uint64_t hash, const Value* key) const {
    size_t i = static_cast<size_t>(hash) & mask_;
    while (true) {
      const Slot& slot = slots_[i];
      if (slot.group == kNoGroup) return kNoGroup;
      if (slot.hash == hash && KeyEquals(slot.group, key)) return slot.group;
      i = (i + 1) & mask_;
    }
  }

  size_t width() const { return width_; }

  /// Resident bytes of the slot table and key arena (instrumentation).
  size_t ApproxBytes() const {
    return slots_.capacity() * sizeof(Slot) +
           key_values_.capacity() * sizeof(Value);
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    GroupId group = kNoGroup;
  };

  bool KeyEquals(GroupId group, const Value* key) const {
    const Value* stored = key_values_.data() + size_t{group} * width_;
    for (size_t c = 0; c < width_; ++c) {
      if (stored[c] != key[c]) return false;
    }
    return true;
  }

  size_t width_ = 0;
  size_t mask_ = 0;
  size_t num_keys_ = 0;
  std::vector<Slot> slots_;
  std::vector<Value> key_values_;  // num_keys_ * width_, insertion order
};

template <typename CM>
class Tdp {
 public:
  using CostT = typename CM::CostT;

  /// A candidate group: one contiguous segment of the owning node's row
  /// arena (group_rows[begin, begin+size)). In eager mode the segment
  /// is fully sorted by best-completion cost at construction (rank r at
  /// begin + r, min_pos = 0); in lazy/quickselect mode the segment
  /// stays in build order and only the minimum's offset is precomputed
  /// (min_pos), so rank 0 -- the only rank preprocessing and optimal
  /// completion ever need -- is O(1) without any mutable state. Deeper
  /// ranks are sorted incrementally in a TdpCursor's private copy of
  /// the segment.
  struct Group {
    uint32_t begin = 0;
    uint32_t size = 0;
    uint32_t min_pos = 0;  // offset (rel. begin) of the best tuple
  };

  struct Node {
    size_t atom = 0;                  // atom index in the query
    int parent = -1;                  // node index; -1 for the root
    size_t child_slot = 0;            // index within parent's children
    std::vector<size_t> children;     // node indices
    std::vector<size_t> key_cols;     // columns joining to the parent
    Relation rel = Relation::WithArity("node", 0);  // reduced relation
    // Per tuple: exact cost in the dioid. Empty unless the atom carries
    // a WeightMatrix (materialized bag) whose folded per-tuple costs
    // differ from FromWeight(scalar weight) -- see TupleCost().
    std::vector<CostT> tuple_costs;
    std::vector<CostT> best;          // per tuple: best subtree cost
    // Per tuple, per child slot: the group id within that child node --
    // flat row-major (stride = children.size()), one allocation total.
    std::vector<GroupId> child_groups;
    std::vector<Group> groups;
    std::vector<RowId> group_rows;    // row arena; grouped contiguously
    // Join-key -> group id. Behind a shared_ptr so copying a Tdp --
    // the start of every delta-scoped refold (Patched) -- shares the
    // slot table instead of duplicating it: the index is frozen once
    // BuildGroups returns (appends only Find, never Intern), and it is
    // the largest per-node structure after the row arenas.
    std::shared_ptr<GroupKeyIndex> key_index =
        std::make_shared<GroupKeyIndex>();

    GroupId child_group(RowId row, size_t ci) const {
      return child_groups[size_t{row} * children.size() + ci];
    }
  };

  /// `atom_weights`, when given, is index-aligned with query.atoms():
  /// a tracked WeightMatrix for atom a overrides the scalar relation
  /// weight with the dioid fold CM::FromWeights of the tuple's member
  /// weights -- the representation that keeps materialized bags exactly
  /// rankable under non-additive dioids. Only read during construction.
  Tdp(const Database& db, const ConjunctiveQuery& query, SortMode sort_mode,
      JoinStats* stats,
      const std::vector<WeightMatrix>* atom_weights = nullptr);

  /// An empty shell (no nodes, no query) so a patched Tdp can be
  /// move-assigned into place; every query method is invalid until then.
  Tdp() = default;

  /// Delta-scoped refold: a copy of `base` caught up to `view` (the
  /// snapshot whose relations are `base`'s plus the appended rows the
  /// `deltas` describe) WITHOUT rebuilding -- appended tuples are
  /// grouped and costed against the existing structure, best costs
  /// propagate bottom-up along dirty child groups only, and only the
  /// groups actually touched are re-sorted (eager) or re-minimized
  /// (lazy/quickselect). `query` must be the copy the patched Tdp will
  /// live next to (the new artifact's).
  ///
  /// Returns nullopt -- caller rebuilds from scratch -- when the delta
  /// is not a pure refold:
  ///   * `base` has bag tuple costs (WeightMatrix provenance is not
  ///     maintained through the log) or no results (an empty root has
  ///     no interned key to extend);
  ///   * some appended tuple's parent-side join key or child-slot join
  ///     key has no existing group. Inventing a group is not sound:
  ///     a fresh full reduction could pair such a tuple with other
  ///     appended tuples (or revive neither), so equivalence with a
  ///     rebuild would be lost. Refusing keeps the accepted case
  ///     exactly equal to a fresh rebuild (up to eager-sort tie order).
  ///
  /// On success the patch is semantically identical to rebuilding over
  /// `view`: accepted tuples join fully within the existing key space
  /// in every direction, so the full reducer would keep each of them
  /// and could not revive any previously-dangling base tuple.
  static std::optional<Tdp> Patched(const Tdp& base,
                                    const ConjunctiveQuery& query,
                                    const Database& view,
                                    std::span<const AppendDelta> deltas,
                                    TdpPatchStats* stats);

  /// False when the (reduced) query has no results at all.
  bool HasResults() const { return has_results_; }

  /// Exact per-tuple cost of one node tuple in the dioid.
  CostT TupleCost(size_t node_idx, RowId row) const {
    const Node& n = nodes_[node_idx];
    if (!n.tuple_costs.empty()) return n.tuple_costs[row];
    return CM::FromWeight(n.rel.TupleWeight(row));
  }

  size_t NumNodes() const { return nodes_.size(); }
  const Node& node(size_t i) const { return nodes_[i]; }
  const ConjunctiveQuery& query() const { return *query_; }
  SortMode sort_mode() const { return sort_mode_; }

  /// The root's single group (all root tuples). Invalid when
  /// !HasResults().
  GroupId RootGroup() const { return 0; }

  /// The rank-0 (cheapest) tuple of a non-empty group: O(1) in every
  /// sort mode, no cursor state touched.
  RowId GroupTop(size_t node_idx, GroupId g) const {
    const Node& n = nodes_[node_idx];
    const Group& group = n.groups[g];
    return n.group_rows[group.begin + group.min_pos];
  }

  /// Best (minimal) subtree-completion cost within a group. The group
  /// must be non-empty.
  const CostT& GroupBest(size_t node_idx, GroupId g) const {
    const Node& n = nodes_[node_idx];
    return n.best[GroupTop(node_idx, g)];
  }

  /// Builds the output assignment (indexed by VarId) for one tuple
  /// choice per node, and its exact cost.
  void AssignmentOf(const std::vector<RowId>& choice,
                    std::vector<Value>* assignment) const;
  CostT CostOf(const std::vector<RowId>& choice) const;

  /// Optimal completion: starting from `node_idx` with tuples already
  /// chosen for ancestors, fills `choice` for the whole subtree with the
  /// best tuples. `choice[node_idx]`'s group must be g. Const -- rank 0
  /// is precomputed, so no lazy sorting is forced.
  void CompleteOptimally(size_t node_idx, GroupId g,
                         std::vector<RowId>* choice) const;

  /// Total number of group lists (for instrumentation).
  size_t NumGroups() const;

  /// Approximate resident bytes of the preprocessing arenas: reduced
  /// relation payloads, cost/best arrays, the flat child-group matrix,
  /// the row arenas, and the key indexes. Capacity-based, so it tracks
  /// what the allocator actually holds; exported as the T-DP
  /// arena-bytes metric (tdp.arena_bytes).
  size_t ApproxBytes() const {
    size_t total = 0;
    for (const Node& node : nodes_) {
      total += node.rel.PayloadBytes();
      total += node.tuple_costs.capacity() * sizeof(CostT);
      total += node.best.capacity() * sizeof(CostT);
      total += node.child_groups.capacity() * sizeof(GroupId);
      total += node.group_rows.capacity() * sizeof(RowId);
      total += node.groups.capacity() * sizeof(Group);
      total += node.key_index->ApproxBytes();
    }
    return total;
  }

  bool HeapLess(const Node& n, RowId a, RowId b) const {
    return CM::Less(n.best[a], n.best[b]);
  }

 private:
  // Seed of every join-key hash: BuildGroups' columnar pass and
  // GatherKey must agree for a key-index Find to hit.
  static constexpr uint64_t kKeySeed = 0x51ab42ae5c1970ffULL;

  // Per node: which of its columns carry each child's join-key
  // variables (child slot ci owns cols[offset[ci], offset[ci + 1])),
  // plus a buffer wide enough for any of the node's join keys. Mapped
  // once per node, so the per-row fold only gathers values.
  struct ChildKeys {
    std::vector<size_t> cols;
    std::vector<size_t> offset;
    std::vector<Value> key;
  };

  void BuildTree(const Database& db, JoinStats* stats,
                 const std::vector<WeightMatrix>* atom_weights);
  void BuildGroups();
  void ComputeBest();

  // The T-DP rules below are shared by the build (ComputeBest) and the
  // delta refold (Patched): a refolded row is folded exactly as a
  // rebuild would fold it.
  void MapChildKeys(const Node& n, ChildKeys* keys) const {
    keys->cols.clear();
    keys->offset.assign(n.children.size() + 1, 0);
    const auto& my_vars = query_->atom(n.atom).vars;
    for (size_t ci = 0; ci < n.children.size(); ++ci) {
      const Node& c = nodes_[n.children[ci]];
      const auto& child_vars = query_->atom(c.atom).vars;
      for (const size_t kc : c.key_cols) {
        const VarId v = child_vars[kc];
        size_t col = 0;
        while (col < my_vars.size() && my_vars[col] != v) ++col;
        TOPKJOIN_CHECK(col < my_vars.size());  // key vars are shared vars
        keys->cols.push_back(col);
      }
      keys->offset[ci + 1] = keys->cols.size();
    }
    keys->key.resize(
        std::max({keys->cols.size(), n.key_cols.size(), size_t{1}}));
  }

  // Resolves row r's child groups into child_groups from its child
  // join keys; false when some child key has no group.
  bool FoldRow(size_t idx, RowId r, ChildKeys* keys) {
    Node& n = nodes_[idx];
    const size_t num_children = n.children.size();
    Value* const key = keys->key.data();
    for (size_t ci = 0; ci < num_children; ++ci) {
      const std::span<const size_t> cols(
          keys->cols.data() + keys->offset[ci],
          keys->offset[ci + 1] - keys->offset[ci]);
      const uint64_t hash = GatherKey(n.rel, r, cols, key);
      const GroupId g = nodes_[n.children[ci]].key_index->Find(hash, key);
      if (g == GroupKeyIndex::kNoGroup) return false;
      n.child_groups[size_t{r} * num_children + ci] = g;
    }
    return true;
  }

  // Orders one group after its rows or their best[] changed: a full
  // sort (eager) or the first minimum's offset (lazy/quickselect).
  void OrganizeGroup(Node& n, GroupId g) const {
    Group& group = n.groups[g];
    RowId* const begin = n.group_rows.data() + group.begin;
    RowId* const end = begin + group.size;
    const auto less = [&](RowId a, RowId b) { return HeapLess(n, a, b); };
    switch (sort_mode_) {
      case SortMode::kEager:
        std::sort(begin, end, less);  // min_pos stays 0
        break;
      case SortMode::kLazy:
      case SortMode::kQuickselect:
        // The arena stays pristine (shareable across cursors); only the
        // minimum's offset is precomputed so GroupBest / rank 0 are
        // O(1). min_element picks the FIRST minimum, making rank 0
        // deterministic across the fast path and every cursor's dyn
        // state.
        group.min_pos =
            static_cast<uint32_t>(std::min_element(begin, end, less) - begin);
        break;
    }
  }

  // best[r] = w(r) (+) the best completion of each child group (the
  // row's child groups must be resolved).
  CostT RowBest(size_t idx, RowId r) const {
    const Node& n = nodes_[idx];
    CostT cost = TupleCost(idx, r);
    for (size_t ci = 0; ci < n.children.size(); ++ci) {
      cost = CM::Combine(cost, GroupBest(n.children[ci], n.child_group(r, ci)));
    }
    return cost;
  }

  // Gathers row r's values in `cols` into `key` and returns their hash.
  static uint64_t GatherKey(const Relation& rel, RowId r,
                            std::span<const size_t> cols, Value* key) {
    uint64_t hash = kKeySeed;
    for (size_t k = 0; k < cols.size(); ++k) {
      key[k] = rel.At(r, cols[k]);
      hash = HashMix(hash, static_cast<uint64_t>(key[k]));
    }
    return hash;
  }

  static bool CostsEqual(const CostT& a, const CostT& b) {
    return !CM::Less(a, b) && !CM::Less(b, a);
  }

  const ConjunctiveQuery* query_ = nullptr;
  SortMode sort_mode_ = SortMode::kEager;
  std::vector<Node> nodes_;
  bool has_results_ = false;
};

/// Per-enumeration view of a (shared, immutable) Tdp: the incremental
/// group-sorting state of the lazy/quickselect modes. Each algorithm
/// instance owns one cursor; concurrent enumerations over the same Tdp
/// never touch each other's state.
///
/// Rank 0 of every group is served straight from the Tdp (min_pos) --
/// the common case for optimal completions and early enumeration ranks
/// costs neither allocation nor extraction. The first access to a rank
/// >= 1 of a group copies that group's row segment into a private
/// "dyn" slab and ports the Tdp's original incremental machinery:
///   * lazy:        min pinned at the tail (as if already extracted),
///                  min-heap over the remainder; rank r at size-1-r.
///   * quickselect: min swapped to the front, pivot-stack sentinel; the
///                  remainder partitions on demand (IqsStep); rank r at
///                  offset r once done > r.
/// Eager mode needs no dyn state at all (arena already sorted).
template <typename CM>
class TdpCursor {
 public:
  using CostT = typename CM::CostT;
  using Node = typename Tdp<CM>::Node;

  explicit TdpCursor(const Tdp<CM>* tdp)
      : tdp_(tdp), dyn_slot_(tdp->NumNodes()) {}

  const Tdp<CM>& tdp() const { return *tdp_; }

  // ---- const pass-throughs (the full read surface algorithms use).
  bool HasResults() const { return tdp_->HasResults(); }
  size_t NumNodes() const { return tdp_->NumNodes(); }
  const Node& node(size_t i) const { return tdp_->node(i); }
  GroupId RootGroup() const { return tdp_->RootGroup(); }
  CostT TupleCost(size_t node_idx, RowId row) const {
    return tdp_->TupleCost(node_idx, row);
  }
  const CostT& GroupBest(size_t node_idx, GroupId g) const {
    return tdp_->GroupBest(node_idx, g);
  }
  void AssignmentOf(const std::vector<RowId>& choice,
                    std::vector<Value>* assignment) const {
    tdp_->AssignmentOf(choice, assignment);
  }
  CostT CostOf(const std::vector<RowId>& choice) const {
    return tdp_->CostOf(choice);
  }

  /// The rank-th best tuple of the group (0-based), forcing this
  /// cursor's incremental sorting in lazy/quickselect mode. Returns
  /// false when rank >= group size.
  bool GroupTuple(size_t node_idx, GroupId g, size_t rank, RowId* out) {
    const Node& n = tdp_->node(node_idx);
    const typename Tdp<CM>::Group& group = n.groups[g];
    if (rank >= group.size) return false;
    if (tdp_->sort_mode() == SortMode::kEager) {
      *out = n.group_rows[group.begin + rank];
      return true;
    }
    if (rank == 0) {
      *out = n.group_rows[group.begin + group.min_pos];
      return true;
    }
    GroupDyn& dyn = DynFor(node_idx, g, n, group);
    if (tdp_->sort_mode() == SortMode::kLazy) {
      RowId* const begin = dyn.rows.data();
      const auto greater = [&](RowId a, RowId b) {
        return tdp_->HeapLess(n, b, a);
      };
      while (dyn.done <= rank) {
        // pop_heap parks the minimum at the end of the heap range, so
        // extracted elements accumulate at the slab tail in reverse
        // rank order: rank r lives at size - 1 - r.
        std::pop_heap(begin, begin + (group.size - dyn.done), greater);
        dyn.done += 1;
        ++heap_extractions_;
      }
      *out = dyn.rows[group.size - 1 - static_cast<uint32_t>(rank)];
      return true;
    }
    while (dyn.done <= rank) IqsStep(n, dyn);
    *out = dyn.rows[rank];
    return true;
  }

  /// Monotone RAM-model work counter: lazy group-list extractions
  /// (heap pops / quickselect finalizations) performed so far by this
  /// cursor's GroupTuple. Together with an algorithm's pq_pushes() this
  /// is the per-result work the any-k delay guarantee bounds.
  int64_t heap_extractions() const { return heap_extractions_; }

 private:
  static constexpr uint32_t kNoDyn = static_cast<uint32_t>(-1);

  /// Private sorting state of one group: a copy of its row segment plus
  /// the original incremental-sort bookkeeping.
  struct GroupDyn {
    std::vector<RowId> rows;
    uint32_t done = 0;
    std::vector<uint32_t> pivots;  // IQS boundary stack, offsets rel. 0
  };

  GroupDyn& DynFor(size_t node_idx, GroupId g, const Node& n,
                   const typename Tdp<CM>::Group& group) {
    std::vector<uint32_t>& slots = dyn_slot_[node_idx];
    if (slots.empty()) slots.assign(n.groups.size(), kNoDyn);
    uint32_t& slot = slots[g];
    if (slot != kNoDyn) return dyns_[slot];
    slot = static_cast<uint32_t>(dyns_.size());
    dyns_.emplace_back();
    GroupDyn& dyn = dyns_.back();
    const RowId* const src = n.group_rows.data() + group.begin;
    dyn.rows.assign(src, src + group.size);
    if (tdp_->sort_mode() == SortMode::kLazy) {
      // Pin the precomputed minimum at the tail (its extracted slot)
      // and heapify the remainder: the exact state the shared-Tdp
      // design replaced -- one build-time heapify plus one extraction.
      // Counting the pin keeps rank-r total extractions at r + 1, the
      // same work the pre-split lazy mode charged.
      std::swap(dyn.rows[group.min_pos], dyn.rows[group.size - 1]);
      const auto greater = [&](RowId a, RowId b) {
        return tdp_->HeapLess(n, b, a);
      };
      std::make_heap(dyn.rows.data(), dyn.rows.data() + (group.size - 1),
                     greater);
      dyn.done = 1;
      ++heap_extractions_;
    } else {
      // Quickselect: minimum up front, sentinel boundary; matches the
      // old build-time state, which charged no extraction for the min.
      std::swap(dyn.rows[group.min_pos], dyn.rows[0]);
      dyn.done = 1;
      dyn.pivots.push_back(group.size);
    }
    return dyn;
  }

  // One incremental-quickselect step: finalizes at least one more
  // position of the group's sorted prefix. The pivot stack holds segment
  // boundaries (strictly non-increasing toward the top, bottom sentinel
  // = size); everything before a boundary compares <= everything after
  // it. A fat three-way partition finalizes whole runs of equal costs
  // at once, so all-equal groups drain in linear total time.
  void IqsStep(const Node& n, GroupDyn& dyn) {
    RowId* const rows = dyn.rows.data();
    auto& pivots = dyn.pivots;
    while (true) {
      uint32_t top = pivots.back();
      if (top == dyn.done) {
        pivots.pop_back();
        continue;
      }
      if (top == dyn.done + 1) {
        // Single-element segment: already in place.
        dyn.done += 1;
        ++heap_extractions_;
        return;
      }
      // Median-of-three pivot over [done, top).
      const uint32_t lo = dyn.done;
      const uint32_t mid = lo + (top - lo) / 2;
      RowId a = rows[lo], b = rows[mid], c = rows[top - 1];
      RowId pivot =
          tdp_->HeapLess(n, a, b)
              ? (tdp_->HeapLess(n, b, c) ? b
                                         : (tdp_->HeapLess(n, a, c) ? c : a))
              : (tdp_->HeapLess(n, a, c) ? a
                                         : (tdp_->HeapLess(n, b, c) ? c : b));
      // Three-way (Dutch flag) partition: [lo, lt) < pivot, [lt, gt) ==
      // pivot, [gt, top) > pivot.
      uint32_t lt = lo, i = lo, gt = top;
      while (i < gt) {
        if (tdp_->HeapLess(n, rows[i], pivot)) {
          std::swap(rows[lt++], rows[i++]);
        } else if (tdp_->HeapLess(n, pivot, rows[i])) {
          std::swap(rows[i], rows[--gt]);
        } else {
          ++i;
        }
      }
      if (lt == dyn.done) {
        // The pivot run starts at the prefix: the whole equal run is
        // finalized in one step.
        heap_extractions_ += gt - dyn.done;
        dyn.done = gt;
        return;
      }
      pivots.push_back(gt);
      pivots.push_back(lt);
    }
  }

  const Tdp<CM>* tdp_;
  std::vector<std::vector<uint32_t>> dyn_slot_;  // [node][group] -> dyns_
  std::vector<GroupDyn> dyns_;
  int64_t heap_extractions_ = 0;
};

// ---------------------------------------------------------------------
// Implementation.

template <typename CM>
Tdp<CM>::Tdp(const Database& db, const ConjunctiveQuery& query,
             SortMode sort_mode, JoinStats* stats,
             const std::vector<WeightMatrix>* atom_weights)
    : query_(&query), sort_mode_(sort_mode) {
  // Cooperative cancellation (ExecContext): each phase may return
  // early, and a phase never starts over a predecessor's partial state
  // (ShouldAbort is sticky within the scope). The caller
  // (executor::BuildArtifact) discards the whole object on abort, so
  // partially built groups are never observable.
  BuildTree(db, stats, atom_weights);
  if (!ExecContext::ShouldAbort()) BuildGroups();
  if (!ExecContext::ShouldAbort()) ComputeBest();
  has_results_ = !nodes_.empty() && !nodes_[0].rel.Empty();
}

template <typename CM>
void Tdp<CM>::BuildTree(const Database& db, JoinStats* stats,
                        const std::vector<WeightMatrix>* atom_weights) {
  const auto tree = GyoJoinTree(*query_);
  TOPKJOIN_CHECK(tree.has_value());  // callers decompose cyclic queries
  ReducedInstance instance = MakeInstance(db, *query_);
  FullReducer(*query_, *tree, &instance, stats);

  // Node i = i-th atom in preorder.
  const size_t m = query_->NumAtoms();
  std::vector<size_t> node_of_atom(m);
  for (size_t i = 0; i < m; ++i) node_of_atom[tree->order[i]] = i;
  nodes_.resize(m);
  for (size_t i = 0; i < m; ++i) {
    const size_t atom = tree->order[i];
    Node& n = nodes_[i];
    n.atom = atom;
    n.rel = std::move(instance.atom_relations[atom]);
    if (atom_weights != nullptr && atom < atom_weights->size() &&
        (*atom_weights)[atom].Tracked()) {
      // Fold the surviving rows' member weights into exact dioid costs,
      // following the reducer's provenance back to original row ids.
      const WeightMatrix& weights = (*atom_weights)[atom];
      const std::vector<RowId>& prov = instance.provenance[atom];
      n.tuple_costs.reserve(n.rel.NumTuples());
      for (RowId r = 0; r < n.rel.NumTuples(); ++r) {
        n.tuple_costs.push_back(CM::FromWeights(weights.Row(prov[r])));
      }
    }
    if (tree->parent[atom] >= 0) {
      n.parent = static_cast<int>(
          node_of_atom[static_cast<size_t>(tree->parent[atom])]);
      Node& p = nodes_[static_cast<size_t>(n.parent)];
      n.child_slot = p.children.size();
      p.children.push_back(i);
      const auto shared =
          query_->SharedVars(atom, static_cast<size_t>(tree->parent[atom]));
      n.key_cols = query_->ColumnsOf(atom, shared);
    }
  }
}

template <typename CM>
void Tdp<CM>::BuildGroups() {
  // Scratch reused across nodes; sized once per node, never per tuple.
  std::vector<uint64_t> hashes;
  std::vector<GroupId> group_of_row;
  std::vector<uint32_t> fill;
  std::vector<Value> key_scratch;
  for (Node& n : nodes_) {
    const size_t num = n.rel.NumTuples();
    const size_t width = n.key_cols.size();
    key_scratch.resize(std::max<size_t>(width, 1));
    Value* const key_buf = key_scratch.data();

    // Columnar-first hashing: one pass per key column keeps the inner
    // loop a tight mix over a single relation column.
    hashes.assign(num, kKeySeed);
    for (const size_t col : n.key_cols) {
      for (RowId r = 0; r < num; ++r) {
        hashes[r] = HashMix(hashes[r], static_cast<uint64_t>(n.rel.At(r, col)));
      }
    }

    n.key_index->Reset(num, width);
    group_of_row.resize(num);
    for (RowId r = 0; r < num; ++r) {
      // Cheap cooperative poll (thread-local null check; clock reads
      // are countdown-sampled inside ShouldAbort). An abort leaves this
      // node's groups partial; the constructor skips the later phases.
      if (ExecContext::ShouldAbort()) [[unlikely]] {
        return;
      }
      for (size_t c = 0; c < width; ++c) key_buf[c] = n.rel.At(r, n.key_cols[c]);
      const GroupId g = n.key_index->Intern(hashes[r], key_buf);
      if (g == n.groups.size()) n.groups.emplace_back();
      n.groups[g].size += 1;
      group_of_row[r] = g;
    }
    // The root gets exactly one group even when empty.
    if (n.parent < 0 && n.groups.empty()) n.groups.emplace_back();

    // Prefix-sum the group sizes into arena offsets, then scatter the
    // rows; within a group, rows keep ascending RowId order.
    uint32_t offset = 0;
    for (Group& g : n.groups) {
      g.begin = offset;
      offset += g.size;
    }
    fill.assign(n.groups.size(), 0);
    n.group_rows.resize(num);
    for (RowId r = 0; r < num; ++r) {
      const GroupId g = group_of_row[r];
      n.group_rows[n.groups[g].begin + fill[g]++] = r;
    }
  }
}

template <typename CM>
void Tdp<CM>::ComputeBest() {
  ChildKeys keys;  // scratch reused across nodes (no per-tuple allocation)
  // Reverse preorder: children before parents -- a child's groups are
  // organized (min_pos computed) before the parent reads GroupBest.
  for (size_t idx = nodes_.size(); idx-- > 0;) {
    Node& n = nodes_[idx];
    const size_t num = n.rel.NumTuples();
    n.best.resize(num);
    n.child_groups.assign(num * n.children.size(), 0);
    MapChildKeys(n, &keys);
    for (RowId r = 0; r < num; ++r) {
      // Cooperative poll, as in BuildGroups: bail out of the heaviest
      // per-row loop in the build when cancelled or past deadline.
      if (ExecContext::ShouldAbort()) [[unlikely]] {
        return;
      }
      // Full reduction guarantees a matching child group.
      TOPKJOIN_CHECK(FoldRow(idx, r, &keys));
      n.best[r] = RowBest(idx, r);
    }
    for (GroupId g = 0; g < n.groups.size(); ++g) OrganizeGroup(n, g);
  }
}

template <typename CM>
void Tdp<CM>::AssignmentOf(const std::vector<RowId>& choice,
                           std::vector<Value>* assignment) const {
  assignment->assign(static_cast<size_t>(query_->num_vars()), 0);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    const auto& vars = query_->atom(n.atom).vars;
    const auto tuple = n.rel.Tuple(choice[i]);
    for (size_t c = 0; c < vars.size(); ++c) {
      (*assignment)[static_cast<size_t>(vars[c])] = tuple[c];
    }
  }
}

template <typename CM>
typename CM::CostT Tdp<CM>::CostOf(const std::vector<RowId>& choice) const {
  CostT cost = CM::Identity();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    cost = CM::Combine(cost, TupleCost(i, choice[i]));
  }
  return cost;
}

template <typename CM>
void Tdp<CM>::CompleteOptimally(size_t node_idx, GroupId g,
                                std::vector<RowId>* choice) const {
  const RowId top = GroupTop(node_idx, g);
  (*choice)[node_idx] = top;
  const Node& n = nodes_[node_idx];
  for (size_t ci = 0; ci < n.children.size(); ++ci) {
    CompleteOptimally(n.children[ci], n.child_group(top, ci), choice);
  }
}

template <typename CM>
size_t Tdp<CM>::NumGroups() const {
  size_t total = 0;
  for (const Node& n : nodes_) total += n.groups.size();
  return total;
}

template <typename CM>
std::optional<Tdp<CM>> Tdp<CM>::Patched(const Tdp& base,
                                        const ConjunctiveQuery& query,
                                        const Database& view,
                                        std::span<const AppendDelta> deltas,
                                        TdpPatchStats* stats) {
  if (!base.has_results_) return std::nullopt;
  for (const Node& n : base.nodes_) {
    if (!n.tuple_costs.empty()) return std::nullopt;
  }

  // First appended row per touched relation. Append ranges of
  // consecutive commits are contiguous, so the full appended range in
  // `view` is [start, NumTuples).
  std::unordered_map<RelationId, RowId> start;
  for (const AppendDelta& d : deltas) {
    auto [it, inserted] = start.try_emplace(d.relation, d.first_row);
    if (!inserted) it->second = std::min(it->second, d.first_row);
  }

  Tdp out(base);  // chunk-sharing relation copies; arenas copied
  out.query_ = &query;

  TdpPatchStats local;
  // Per node: groups whose GroupBest changed (read by the parent).
  std::vector<std::vector<char>> changed(out.nodes_.size());

  // Scratch reused across nodes.
  ChildKeys keys;
  std::vector<GroupId> group_of_row;
  std::vector<char> touched;
  std::vector<CostT> old_best;
  std::vector<std::pair<GroupId, RowId>> appended;  // (group, node row)

  // Reverse preorder, exactly like ComputeBest: children are fully
  // patched (appends folded in, groups refolded) before their parent
  // reads GroupBest.
  for (size_t idx = out.nodes_.size(); idx-- > 0;) {
    Node& n = out.nodes_[idx];
    const size_t num_children = n.children.size();
    const size_t base_rows = n.best.size();
    const size_t num_groups = n.groups.size();
    local.groups_total += num_groups;

    // Pre-patch group bests (every group is non-empty: the instance is
    // fully reduced and has results).
    old_best.resize(num_groups);
    for (GroupId g = 0; g < num_groups; ++g) {
      old_best[g] = out.GroupBest(idx, g);
    }
    touched.assign(num_groups, 0);

    // 1) Propagate child GroupBest improvements into existing rows.
    // Appends only improve (or keep) a group's best, so best[] values
    // move monotonically; rows whose child groups are all clean keep
    // their exact cost and are skipped.
    bool any_child_changed = false;
    for (size_t ci = 0; ci < num_children && !any_child_changed; ++ci) {
      const std::vector<char>& flags = changed[n.children[ci]];
      any_child_changed =
          std::find(flags.begin(), flags.end(), char{1}) != flags.end();
    }
    if (any_child_changed) {
      group_of_row.resize(base_rows);
      for (GroupId g = 0; g < num_groups; ++g) {
        const Group& grp = n.groups[g];
        for (uint32_t p = 0; p < grp.size; ++p) {
          group_of_row[n.group_rows[grp.begin + p]] = g;
        }
      }
      for (RowId r = 0; r < base_rows; ++r) {
        bool dirty = false;
        for (size_t ci = 0; ci < num_children; ++ci) {
          if (changed[n.children[ci]][n.child_group(r, ci)]) {
            dirty = true;
            break;
          }
        }
        if (!dirty) continue;
        CostT cost = out.RowBest(idx, r);
        if (!CostsEqual(cost, n.best[r])) {
          n.best[r] = std::move(cost);
          touched[group_of_row[r]] = 1;
        }
      }
    }

    // 2) Fold in this node's appended tuples: each is appended to the
    // node's relation, then folded as a row of the node exactly as the
    // build folds one. Accepted tuples join existing groups in every
    // direction; any miss refuses the patch.
    appended.clear();
    const auto sit = start.find(query.atom(n.atom).relation);
    if (sit != start.end()) {
      const Relation& live = view.relation(query.atom(n.atom).relation);
      const size_t live_rows = live.NumTuples();
      // Deltas describing rows `view` does not contain (an
      // epoch-regressed caller handed deltas newer than its snapshot)
      // cannot be folded: refuse the patch rather than underflow.
      if (sit->second > live_rows) return std::nullopt;
      // One exact reallocation each instead of doubling growth: the
      // copied arenas arrive with capacity == size.
      const size_t rows = base_rows + (live_rows - sit->second);
      n.best.resize(rows);
      n.child_groups.resize(rows * num_children);
      out.MapChildKeys(n, &keys);
      for (size_t br = sit->second; br < live_rows; ++br) {
        const RowId nr = static_cast<RowId>(n.rel.NumTuples());
        n.rel.AddTuple(live.Tuple(static_cast<RowId>(br)),
                       live.TupleWeight(static_cast<RowId>(br)));
        const uint64_t hash =
            GatherKey(n.rel, nr, n.key_cols, keys.key.data());
        const GroupId g = n.key_index->Find(hash, keys.key.data());
        if (g == GroupKeyIndex::kNoGroup || !out.FoldRow(idx, nr, &keys)) {
          return std::nullopt;
        }
        n.best[nr] = out.RowBest(idx, nr);
        appended.push_back({g, nr});
        touched[g] = 1;
      }
      local.rows_appended += appended.size();
    }

    // 3) Rebuild the row arena with appended rows at the tail of their
    // group segments (group-id order and ascending RowId within a group
    // preserved -- the exact layout a fresh BuildGroups produces).
    if (!appended.empty()) {
      std::vector<uint32_t> extra(num_groups, 0);
      for (const auto& [g, row] : appended) extra[g] += 1;
      std::vector<RowId> new_rows(n.group_rows.size() + appended.size());
      std::vector<uint32_t> new_begin(num_groups);
      uint32_t offset = 0;
      for (GroupId g = 0; g < num_groups; ++g) {
        new_begin[g] = offset;
        offset += n.groups[g].size + extra[g];
      }
      std::vector<uint32_t> fill(num_groups);
      for (GroupId g = 0; g < num_groups; ++g) {
        const Group& grp = n.groups[g];
        std::copy(n.group_rows.begin() + grp.begin,
                  n.group_rows.begin() + grp.begin + grp.size,
                  new_rows.begin() + new_begin[g]);
        fill[g] = grp.size;
      }
      for (const auto& [g, row] : appended) {
        new_rows[new_begin[g] + fill[g]++] = row;
      }
      for (GroupId g = 0; g < num_groups; ++g) {
        n.groups[g].begin = new_begin[g];
        n.groups[g].size += extra[g];
      }
      n.group_rows = std::move(new_rows);
    }

    // 4) Refold touched groups only; flag GroupBest changes upward.
    // Untouched groups keep valid min_pos/sort order: their segment
    // prefix and best values are bit-identical to before.
    changed[idx].assign(num_groups, 0);
    for (GroupId g = 0; g < num_groups; ++g) {
      if (!touched[g]) continue;
      out.OrganizeGroup(n, g);
      local.groups_refolded += 1;
      if (!CostsEqual(out.GroupBest(idx, g), old_best[g])) {
        changed[idx][g] = 1;
      }
    }
  }

  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace topkjoin

#endif  // TOPKJOIN_ANYK_TDP_H_
