// Unit tests for VersionedCache, the one epoch-versioned LRU behind the
// plan, artifact and estimator caches. The cached value is the epoch it
// was built or patched for, so every assertion can check that a caller
// pinned at epoch e was served a value for e -- never an older or a
// newer one.
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/database.h"
#include "src/data/delta.h"
#include "src/data/generators.h"
#include "src/data/versioned_cache.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace topkjoin {
namespace {

using Cache = VersionedCache<uint64_t>;
using Value = Cache::Value;

struct Fixture {
  Fixture() {
    Rng rng(7);
    relation = db.Add(UniformBinaryRelation("E", 50, 10, rng));
  }

  // Commits one appended row and returns the new epoch's snapshot.
  std::shared_ptr<const DatabaseSnapshot> Append() {
    Delta d;
    d.ForRelation(relation).AddTuple({1, 2}, 0.5);
    EXPECT_TRUE(db.ApplyDelta(d).ok());
    return db.Snapshot();
  }

  CacheKey Key(uint64_t word = 0) const { return CacheKey(&db, {word}); }

  Database db;
  RelationId relation = 0;
};

// Callbacks that count their calls and produce the pinned epoch.
struct Callbacks {
  explicit Callbacks(const DatabaseSnapshot& snap) : epoch(snap.epoch()) {}

  auto Patch() {
    return [this](const Value& stale, const std::vector<AppendDelta>& gap) {
      ++patches;
      last_gap = gap;
      EXPECT_LT(*stale, epoch);
      return refuse_patch ? nullptr : std::make_shared<const uint64_t>(epoch);
    };
  }
  auto Build() {
    return [this]() -> StatusOr<Value> {
      ++builds;
      if (fail_build) return Status::Error("build failed");
      return std::make_shared<const uint64_t>(epoch);
    };
  }

  uint64_t epoch;
  bool refuse_patch = false;
  bool fail_build = false;
  int patches = 0;
  int builds = 0;
  std::vector<AppendDelta> last_gap;
};

StatusOr<Cache::Result> Get(Cache& cache, const Fixture& f,
                            const CacheKey& key, const DatabaseSnapshot& snap,
                            Callbacks& cb) {
  return cache.GetOrBuild(key, f.db, snap, cb.Patch(), cb.Build());
}

TEST(VersionedCacheTest, FreshEntryIsServedUnchanged) {
  Fixture f;
  Cache cache("test.versioned_cache", 4);
  const auto snap = f.db.Snapshot();
  Callbacks cb(*snap);

  const auto first = Get(cache, f, f.Key(), *snap, cb);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().outcome, CacheOutcome::kBuilt);
  const auto second = Get(cache, f, f.Key(), *snap, cb);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().outcome, CacheOutcome::kHit);
  EXPECT_EQ(second.value().value, first.value().value);  // same object
  EXPECT_EQ(cb.builds, 1);
  EXPECT_EQ(cb.patches, 0);

  const VersionedCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.patches, 0u);
  EXPECT_EQ(stats.entries, 1u);
}

// A request pinned before a delta finds the entry a racing request
// cached at the newer epoch: a plain miss, no patch (patches only go
// forward), and its own insert does not downgrade the newer entry.
TEST(VersionedCacheTest, NewerEntryIsAMissAndIsKept) {
  Fixture f;
  Cache cache("test.versioned_cache", 4);
  const auto old_snap = f.db.Snapshot();
  const auto new_snap = f.Append();
  Callbacks newer(*new_snap);
  Callbacks older(*old_snap);

  ASSERT_TRUE(Get(cache, f, f.Key(), *new_snap, newer).ok());
  const auto got = Get(cache, f, f.Key(), *old_snap, older);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().outcome, CacheOutcome::kBuilt);
  EXPECT_EQ(*got.value().value, old_snap->epoch());
  EXPECT_EQ(older.patches, 0);
  EXPECT_EQ(older.builds, 1);
  EXPECT_EQ(cache.stats().invalidations, 0u);
  EXPECT_EQ(cache.stats().entries, 1u);

  const auto live = Get(cache, f, f.Key(), *new_snap, newer);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value().outcome, CacheOutcome::kHit);
  EXPECT_EQ(*live.value().value, new_snap->epoch());
}

// An older entry is patched over the gap up to the pinned epoch only:
// a delta committed after the pin (the live database moved on) is not
// handed to the patch.
TEST(VersionedCacheTest, PatchSeesOnlyDeltasUpToThePinnedEpoch) {
  Fixture f;
  Cache cache("test.versioned_cache", 4);
  const auto base = f.db.Snapshot();
  Callbacks at_base(*base);
  ASSERT_TRUE(Get(cache, f, f.Key(), *base, at_base).ok());

  const auto pinned = f.Append();
  f.Append();  // past the pin
  Callbacks at_pin(*pinned);
  const auto got = Get(cache, f, f.Key(), *pinned, at_pin);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().outcome, CacheOutcome::kPatched);
  EXPECT_EQ(*got.value().value, pinned->epoch());
  EXPECT_EQ(at_pin.patches, 1);
  EXPECT_EQ(at_pin.builds, 0);
  ASSERT_EQ(at_pin.last_gap.size(), 1u);
  EXPECT_EQ(at_pin.last_gap[0].to_version, pinned->epoch());

  const VersionedCacheStats stats = cache.stats();
  EXPECT_EQ(stats.patches, 1u);
  EXPECT_EQ(stats.misses, 2u);  // the base build and the patch
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.invalidations, 0u);

  // The patched entry now serves its epoch as a hit.
  const auto again = Get(cache, f, f.Key(), *pinned, at_pin);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().outcome, CacheOutcome::kHit);
}

// A barrier mutation clears the delta log: the stale entry cannot be
// patched, so it is dropped (an invalidation) and the caller builds.
TEST(VersionedCacheTest, BarrierInvalidatesThenBuilds) {
  Fixture f;
  Cache cache("test.versioned_cache", 4);
  const auto base = f.db.Snapshot();
  Callbacks at_base(*base);
  ASSERT_TRUE(Get(cache, f, f.Key(), *base, at_base).ok());

  f.db.mutable_relation(f.relation)->AddTuple({3, 4}, 0.25);
  const auto bumped = f.db.Snapshot();
  Callbacks after(*bumped);
  const auto got = Get(cache, f, f.Key(), *bumped, after);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().outcome, CacheOutcome::kBuilt);
  EXPECT_EQ(after.patches, 0);
  EXPECT_EQ(after.builds, 1);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(VersionedCacheTest, RefusedPatchInvalidatesThenBuilds) {
  Fixture f;
  Cache cache("test.versioned_cache", 4);
  const auto base = f.db.Snapshot();
  Callbacks at_base(*base);
  ASSERT_TRUE(Get(cache, f, f.Key(), *base, at_base).ok());

  const auto next = f.Append();
  Callbacks after(*next);
  after.refuse_patch = true;
  const auto got = Get(cache, f, f.Key(), *next, after);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().outcome, CacheOutcome::kBuilt);
  EXPECT_EQ(after.patches, 1);
  EXPECT_EQ(after.builds, 1);
  EXPECT_EQ(cache.stats().patches, 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(VersionedCacheTest, BuildErrorIsReturnedAndNothingCached) {
  Fixture f;
  Cache cache("test.versioned_cache", 4);
  const auto snap = f.db.Snapshot();
  Callbacks cb(*snap);
  cb.fail_build = true;
  const auto got = Get(cache, f, f.Key(), *snap, cb);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().builds, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(VersionedCacheTest, LruEvictsTheLeastRecentlyUsedEntry) {
  Fixture f;
  Cache cache("test.versioned_cache", 2);
  const auto snap = f.db.Snapshot();
  Callbacks cb(*snap);
  ASSERT_TRUE(Get(cache, f, f.Key(1), *snap, cb).ok());
  ASSERT_TRUE(Get(cache, f, f.Key(2), *snap, cb).ok());
  ASSERT_TRUE(Get(cache, f, f.Key(1), *snap, cb).ok());  // 2 is now LRU
  ASSERT_TRUE(Get(cache, f, f.Key(3), *snap, cb).ok());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);

  EXPECT_EQ(Get(cache, f, f.Key(1), *snap, cb).value().outcome,
            CacheOutcome::kHit);
  EXPECT_EQ(Get(cache, f, f.Key(2), *snap, cb).value().outcome,
            CacheOutcome::kBuilt);
}

TEST(VersionedCacheTest, CapacityZeroCachesNothing) {
  Fixture f;
  Cache cache("test.versioned_cache", 0);
  const auto snap = f.db.Snapshot();
  Callbacks cb(*snap);
  for (int i = 0; i < 3; ++i) {
    const auto got = Get(cache, f, f.Key(), *snap, cb);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().outcome, CacheOutcome::kBuilt);
  }
  EXPECT_EQ(cb.builds, 3);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(VersionedCacheTest, InvalidateDatabaseDropsOnlyThatDatabase) {
  Fixture a;
  Fixture b;
  Cache cache("test.versioned_cache", 8);
  const auto snap_a = a.db.Snapshot();
  const auto snap_b = b.db.Snapshot();
  Callbacks cb_a(*snap_a);
  Callbacks cb_b(*snap_b);
  ASSERT_TRUE(Get(cache, a, a.Key(1), *snap_a, cb_a).ok());
  ASSERT_TRUE(Get(cache, a, a.Key(2), *snap_a, cb_a).ok());
  ASSERT_TRUE(Get(cache, b, b.Key(1), *snap_b, cb_b).ok());

  EXPECT_EQ(cache.InvalidateDatabase(&a.db), 2u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(Get(cache, b, b.Key(1), *snap_b, cb_b).value().outcome,
            CacheOutcome::kHit);
  EXPECT_EQ(Get(cache, a, a.Key(1), *snap_a, cb_a).value().outcome,
            CacheOutcome::kBuilt);
}

TEST(VersionedCacheTest, RecordsRegistryCountersUnderItsName) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* hits = registry.GetCounter("test.counted_cache_hits");
  Counter* misses = registry.GetCounter("test.counted_cache_misses");
  Counter* patches = registry.GetCounter("test.counted_cache_patches");
  const int64_t hits_before = hits->value();
  const int64_t misses_before = misses->value();
  const int64_t patches_before = patches->value();

  Fixture f;
  Cache cache("test.counted_cache", 4);
  const auto base = f.db.Snapshot();
  Callbacks at_base(*base);
  ASSERT_TRUE(Get(cache, f, f.Key(), *base, at_base).ok());  // build
  ASSERT_TRUE(Get(cache, f, f.Key(), *base, at_base).ok());  // hit
  const auto next = f.Append();
  Callbacks at_next(*next);
  ASSERT_TRUE(Get(cache, f, f.Key(), *next, at_next).ok());  // patch

  EXPECT_EQ(hits->value() - hits_before, 1);
  EXPECT_EQ(misses->value() - misses_before, 2);
  EXPECT_EQ(patches->value() - patches_before, 1);
}

// Threads pinned at two interleaved epochs hammer one key. Every caller
// must be served a value for its own epoch, no patch may see a delta
// past its caller's epoch, and the entry ends at the newest epoch.
TEST(VersionedCacheTest, ConcurrentInterleavedEpochsStayForwardOnly) {
  Fixture f;
  Cache cache("test.versioned_cache", 4);
  const std::shared_ptr<const DatabaseSnapshot> snaps[] = {f.db.Snapshot(),
                                                           f.Append()};
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::atomic<int> wrong_epoch{0};
  std::atomic<int> delta_past_epoch{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < kRounds; ++round) {
        const DatabaseSnapshot& snap = *snaps[(i + round) % 2];
        const uint64_t epoch = snap.epoch();
        const auto got = cache.GetOrBuild(
            f.Key(), f.db, snap,
            [&](const Value& stale, const std::vector<AppendDelta>& gap) {
              for (const AppendDelta& d : gap) {
                if (d.to_version > epoch) delta_past_epoch.fetch_add(1);
              }
              if (*stale >= epoch) wrong_epoch.fetch_add(1);
              return std::make_shared<const uint64_t>(epoch);
            },
            [epoch]() -> StatusOr<Value> {
              return std::make_shared<const uint64_t>(epoch);
            });
        if (!got.ok() || *got.value().value != epoch) wrong_epoch.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong_epoch.load(), 0);
  EXPECT_EQ(delta_past_epoch.load(), 0);

  Callbacks newest(*snaps[1]);
  const auto final_entry = Get(cache, f, f.Key(), *snaps[1], newest);
  ASSERT_TRUE(final_entry.ok());
  EXPECT_EQ(final_entry.value().outcome, CacheOutcome::kHit);
  EXPECT_EQ(*final_entry.value().value, snaps[1]->epoch());
  const VersionedCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kRounds) + 1);
}

}  // namespace
}  // namespace topkjoin
