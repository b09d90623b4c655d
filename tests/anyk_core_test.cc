// Pins for the rebuilt any-k enumeration core (tdp.h + anyk_part.h):
//
//   * zero per-tuple heap allocations during T-DP construction -- the
//     flat group-key interning and columnar group/child-group arenas
//     replaced per-tuple map nodes and per-tuple child-group vectors
//     (counted with a global operator-new override: doubling the input
//     must not grow the allocation count anywhere near linearly);
//   * zero candidate copies per Next() -- the pooled prefix-sharing
//     nodes and the intrusive index heap hand results out without
//     copying a candidate (counted with a copy-counting cost type; a
//     minimal stub that copies its frontier top on every Next(), as a
//     priority_queue::top() engine with fat candidates must, trips the
//     same counter, proving the pin is not vacuous);
//   * Take2 frontier discipline -- at most 2 pushes per popped result
//     (vs ell for the Lawler expansion), never more than the pooled
//     Lawler engine, with identical ranked output under SUM and MAX;
//   * a smaller peak candidate footprint than the pooled Lawler engine
//     on the same workload.
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/anyk/anyk_part.h"
#include "src/anyk/batch.h"
#include "src/anyk/tdp.h"
#include "src/data/generators.h"
#include "src/util/rng.h"

// ---------------------------------------------------------------------
// Global allocation counter. Overriding operator new in this test
// binary is the only portable way to observe heap allocations; the
// counter is only read via deltas around single-threaded code, so other
// allocations cannot race in between.

namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace topkjoin {
namespace {

struct TestInstance {
  Database db;
  ConjunctiveQuery query;
};

TestInstance MakePathInstance(size_t len, size_t tuples, Value domain,
                              uint64_t seed) {
  TestInstance t;
  Rng rng(seed);
  for (size_t i = 0; i < len; ++i) {
    const RelationId id = t.db.Add(
        UniformBinaryRelation("R" + std::to_string(i), tuples, domain, rng));
    t.query.AddAtom(id, {static_cast<VarId>(i), static_cast<VarId>(i + 1)});
  }
  return t;
}

// ---------------------------------------------------------------- allocs

size_t AllocationsDuringTdpConstruction(const TestInstance& t,
                                        SortMode mode) {
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  Tdp<SumCost> tdp(t.db, t.query, mode, nullptr);
  const size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(tdp.HasResults());
  return after - before;
}

// Doubling the tuple count at a fixed join-key domain must leave the
// construction allocation count essentially unchanged: everything that
// scales with n lives in flat arenas (group rows, child groups, hashes,
// best[]) whose geometric growth contributes O(log n) allocations, and
// the interning index allocates per distinct key, not per tuple. A
// per-tuple allocation anywhere in BuildGroups/ComputeBest would show
// up as a delta >= n.
TEST(TdpAllocationTest, ConstructionDoesNoPerTupleAllocations) {
  const size_t small_n = 1200, big_n = 2400;
  const Value domain = 30;
  for (const SortMode mode :
       {SortMode::kEager, SortMode::kLazy, SortMode::kQuickselect}) {
    TestInstance small = MakePathInstance(3, small_n, domain, 7);
    TestInstance big = MakePathInstance(3, big_n, domain, 7);
    const size_t small_allocs = AllocationsDuringTdpConstruction(small, mode);
    const size_t big_allocs = AllocationsDuringTdpConstruction(big, mode);
    EXPECT_LT(big_allocs, small_allocs + (big_n - small_n) / 8)
        << "per-tuple allocation regression (mode "
        << static_cast<int>(mode) << "): " << small_allocs << " -> "
        << big_allocs;
  }
}

// ------------------------------------------------------------ zero copy

/// A double that counts copies (moves are free and noexcept, so vector
/// growth in the pools stays move-only). Candidate copies necessarily
/// copy the candidate's cost, so a zero count here pins "zero candidate
/// copies per Next()".
struct CountedDouble {
  double v = 0.0;
  static std::atomic<int64_t> copies;

  CountedDouble() = default;
  explicit CountedDouble(double x) : v(x) {}
  CountedDouble(const CountedDouble& o) : v(o.v) {
    copies.fetch_add(1, std::memory_order_relaxed);
  }
  CountedDouble& operator=(const CountedDouble& o) {
    v = o.v;
    copies.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  CountedDouble(CountedDouble&& o) noexcept : v(o.v) {}
  CountedDouble& operator=(CountedDouble&& o) noexcept {
    v = o.v;
    return *this;
  }
};
std::atomic<int64_t> CountedDouble::copies{0};

struct CountingCost {
  using CostT = CountedDouble;
  static constexpr const char* kName = "counting-sum";
  static CostT Identity() { return CountedDouble(0.0); }
  static CostT FromWeight(Weight w) { return CountedDouble(w); }
  static CostT FromWeights(std::span<const Weight> ws) {
    double c = 0.0;
    for (Weight w : ws) c += w;
    return CountedDouble(c);
  }
  static CostT Combine(const CostT& a, const CostT& b) {
    return CountedDouble(a.v + b.v);
  }
  static bool Less(const CostT& a, const CostT& b) { return a.v < b.v; }
  static double ToDouble(const CostT& c) { return c.v; }
  static std::vector<double> Components(const CostT&) { return {}; }
};

template <typename Engine>
int64_t CopiesPerFullDrain(Engine* engine, size_t* results) {
  CountedDouble::copies.store(0, std::memory_order_relaxed);
  *results = 0;
  while (engine->Next().has_value()) ++(*results);
  return CountedDouble::copies.load(std::memory_order_relaxed);
}

TEST(ZeroCopyTest, PooledPartCopiesNoCandidatesPerNext) {
  TestInstance t = MakePathInstance(3, 60, 5, 3);
  {
    Tdp<CountingCost> tdp(t.db, t.query, SortMode::kLazy, nullptr);
    AnyKPart<CountingCost, PartStrategy::kLawler> lawler(&tdp);
    size_t results = 0;
    EXPECT_EQ(CopiesPerFullDrain(&lawler, &results), 0) << "lawler";
    EXPECT_GT(results, 100u);
  }
  {
    Tdp<CountingCost> tdp(t.db, t.query, SortMode::kLazy, nullptr);
    AnyKPart<CountingCost, PartStrategy::kTake2> take2(&tdp);
    size_t results = 0;
    EXPECT_EQ(CopiesPerFullDrain(&take2, &results), 0) << "take2";
    EXPECT_GT(results, 100u);
  }
  {
    Tdp<CountingCost> tdp(t.db, t.query, SortMode::kQuickselect, nullptr);
    AnyKPart<CountingCost, PartStrategy::kTake2> memoized(&tdp);
    size_t results = 0;
    EXPECT_EQ(CopiesPerFullDrain(&memoized, &results), 0) << "memoized";
    EXPECT_GT(results, 100u);
  }
}

// The counter is not vacuous: a minimal engine that copies its frontier
// top out on every Next() -- what a priority_queue::top() engine over
// fat candidates must do, since top() is const -- trips it once per
// result.
struct CopyingStub {
  size_t remaining = 0;
  CountedDouble top{1.0};
  std::optional<CountedDouble> Next() {
    if (remaining == 0) return std::nullopt;
    --remaining;
    return top;
  }
};

TEST(ZeroCopyTest, CopyingStubTripsTheCounter) {
  CopyingStub stub{.remaining = 500};
  size_t results = 0;
  const int64_t copies = CopiesPerFullDrain(&stub, &results);
  EXPECT_EQ(results, 500u);
  EXPECT_GE(copies, static_cast<int64_t>(results));
}

// -------------------------------------------------- take2 push discipline

// Drains Take2 and the pooled Lawler engine (each over its own kLazy
// T-DP) on the e13 push-gate shape under the ranking CM.
template <typename CM>
void ExpectTake2PushesWithinLawler() {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    SCOPED_TRACE(std::string(CM::kName) + " seed " + std::to_string(seed));
    TestInstance t = MakePathInstance(4, 40, 4, seed);

    Tdp<CM> tdp_take2(t.db, t.query, SortMode::kLazy, nullptr);
    AnyKPart<CM, PartStrategy::kTake2> take2(&tdp_take2);
    std::vector<double> take2_costs;
    while (auto r = take2.Next()) take2_costs.push_back(r->cost);

    Tdp<CM> tdp_lawler(t.db, t.query, SortMode::kLazy, nullptr);
    AnyKPart<CM, PartStrategy::kLawler> lawler(&tdp_lawler);
    std::vector<double> lawler_costs;
    while (auto r = lawler.Next()) lawler_costs.push_back(r->cost);

    ASSERT_EQ(take2_costs.size(), lawler_costs.size());
    for (size_t i = 0; i < take2_costs.size(); ++i) {
      EXPECT_NEAR(take2_costs[i], lawler_costs[i], 1e-9) << "rank " << i;
    }
    if (take2_costs.empty()) continue;
    // <= 2 pushes per popped result (+1 for the seed).
    EXPECT_LE(take2.pq_pushes(),
              2 * static_cast<int64_t>(take2_costs.size()) + 1);
    EXPECT_LE(take2.pq_pushes(), lawler.pq_pushes());
  }
}

TEST(Take2Test, AtMostTwoPushesPerResultAndNeverMoreThanLawler) {
  ExpectTake2PushesWithinLawler<SumCost>();
  ExpectTake2PushesWithinLawler<MaxCost>();
}

// Peak candidate memory in the top-k regime (k << output -- the regime
// ranked enumeration exists for): Take2's sibling chains keep a smaller
// frontier than the Lawler expansion's ell successors per result.
TEST(Take2Test, TopKPeakCandidateMemoryBeatsLawler) {
  // The bench_e13 path workload shape at a k large enough that the
  // asymptotic footprints dominate fixed overheads (radix buckets,
  // container rounding).
  TestInstance t = MakePathInstance(4, 1200, 100, 41);
  const size_t k = 200000;

  Tdp<SumCost> tdp_take2(t.db, t.query, SortMode::kLazy, nullptr);
  AnyKPart<SumCost, PartStrategy::kTake2> take2(&tdp_take2);
  Tdp<SumCost> tdp_lawler(t.db, t.query, SortMode::kLazy, nullptr);
  AnyKPart<SumCost, PartStrategy::kLawler> lawler(&tdp_lawler);
  for (size_t i = 0; i < k; ++i) {
    ASSERT_TRUE(take2.Next().has_value());
    ASSERT_TRUE(lawler.Next().has_value());
  }
  EXPECT_LT(take2.peak_candidate_bytes(), lawler.peak_candidate_bytes());
}

// The full-drain regression the refcounted node recycling fixes: the
// pool used to retain every node ever pushed as a prefix anchor, so a
// full drain grew the pool to Theta(total pushes) even though most
// chains were dead (their deviation lists exhausted, no frontier entry
// pointing at any suffix). With per-node refcounts the dead chains are
// freed back to an intrusive freelist and recycled, so the pool's
// total slot count stays a small fraction of the result count.
TEST(Take2Test, FullDrainRecyclesDeadCandidateChains) {
  TestInstance t = MakePathInstance(4, 40, 3, 2);

  Tdp<SumCost> tdp_take2(t.db, t.query, SortMode::kLazy, nullptr);
  AnyKPart<SumCost, PartStrategy::kTake2> take2(&tdp_take2);
  size_t results = 0;
  while (take2.Next().has_value()) ++results;
  ASSERT_GT(results, 1000u);  // a real drain, not a toy

  Tdp<SumCost> tdp_lawler(t.db, t.query, SortMode::kLazy, nullptr);
  AnyKPart<SumCost, PartStrategy::kLawler> lawler(&tdp_lawler);
  size_t lawler_results = 0;
  while (lawler.Next().has_value()) ++lawler_results;
  ASSERT_EQ(results, lawler_results);

  // Without recycling the pool holds one node per push -- about one per
  // result on this drain; with it, live slots track the frontier + live
  // prefix chains only (empirically under 10% of the result count; the
  // /2 bound leaves headroom for workload shifts).
  EXPECT_LT(take2.pool_nodes(), results / 2)
      << "pool grew with the drain: dead chains are not being recycled";
  // And the WHOLE peak footprint (pool + costs + refcounts + deviation
  // slab + frontier) now stays below what the unrecycled design paid
  // for its node slab alone: 24 bytes per push (12-byte Node + 8-byte
  // cost + 4-byte refcount, one slot per push, never freed).
  EXPECT_LT(take2.peak_candidate_bytes(),
            static_cast<size_t>(take2.pq_pushes()) * 24)
      << "full-drain footprint regressed to unrecycled-pool scale";
}

// FP-regression pin for the monotone radix frontier: with tuple
// weights drawn from a tiny set, many solution costs collide up to
// rounding, and EvaluateDeviation's (prefix (+) best) (+) tail
// association can compute a deviation's double an ulp BELOW the popped
// minimum even though the exact value is >= it. The frontier clamps
// such keys to the current minimum; without the clamp this instance
// aborts the radix invariant in debug builds and emits ulp-scale
// inversions in release builds.
TEST(Take2Test, DenseCostTiesStayOrderedAndComplete) {
  Database db;
  ConjunctiveQuery q;
  Rng rng(3);
  for (int i = 0; i < 4; ++i) {
    Relation rel = Relation::WithArity("R" + std::to_string(i), 2);
    for (int t = 0; t < 120; ++t) {
      const double w = rng.NextBounded(2) == 0 ? 0.1 : 0.3;
      rel.AddTuple({static_cast<Value>(rng.NextBounded(6)),
                    static_cast<Value>(rng.NextBounded(6))},
                   w);
    }
    const RelationId id = db.Add(std::move(rel));
    q.AddAtom(id, {static_cast<VarId>(i), static_cast<VarId>(i + 1)});
  }

  Tdp<SumCost> tdp_eager(db, q, SortMode::kEager, nullptr);
  BatchSorted<SumCost> batch(&tdp_eager);
  size_t want = 0;
  while (batch.Next().has_value()) ++want;
  ASSERT_GT(want, 10000u);

  for (const PartStrategy strategy :
       {PartStrategy::kLawler, PartStrategy::kTake2}) {
    Tdp<SumCost> tdp(db, q, SortMode::kLazy, nullptr);
    size_t got = 0;
    double last = -1.0;
    const auto drain = [&](auto& engine) {
      while (auto r = engine.Next()) {
        EXPECT_GE(r->cost, last - 1e-9) << "inversion at rank " << got;
        last = r->cost;
        ++got;
      }
    };
    if (strategy == PartStrategy::kLawler) {
      AnyKPart<SumCost, PartStrategy::kLawler> e(&tdp);
      drain(e);
    } else {
      AnyKPart<SumCost, PartStrategy::kTake2> e(&tdp);
      drain(e);
    }
    EXPECT_EQ(got, want);
  }
}

// Memoized (Take2 over incremental-quickselect lists) emits the exact
// stream of the eagerly sorted baseline.
TEST(Take2Test, MemoizedMatchesEagerStream) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    TestInstance t = MakePathInstance(3, 50, 4, seed + 11);

    Tdp<SumCost> tdp_eager(t.db, t.query, SortMode::kEager, nullptr);
    BatchSorted<SumCost> batch(&tdp_eager);
    std::vector<double> want;
    while (auto r = batch.Next()) want.push_back(r->cost);

    Tdp<SumCost> tdp_memo(t.db, t.query, SortMode::kQuickselect, nullptr);
    AnyKPart<SumCost, PartStrategy::kTake2> memoized(&tdp_memo);
    std::vector<double> got;
    while (auto r = memoized.Next()) got.push_back(r->cost);

    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-9) << "seed " << seed << " rank " << i;
    }
  }
}

}  // namespace
}  // namespace topkjoin
