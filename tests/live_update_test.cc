// End-to-end tests for delta-scoped T-DP artifact patching: a
// TreeArtifact built at one snapshot epoch is refolded over the append
// log (PreprocessingArtifact::TryPatch) and must enumerate exactly what
// a cold rebuild over the new epoch enumerates -- while refolding only
// the groups the delta touched.
#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/anyk/artifact.h"
#include "src/anyk/tdp.h"
#include "src/data/database.h"
#include "src/data/delta.h"
#include "src/data/versioned_cache.h"
#include "src/engine/plan_cache.h"
#include "src/ranking/cost_model.h"
#include "tests/test_instances.h"

namespace topkjoin {
namespace {

using testing_fixtures::Instance;
using testing_fixtures::JoiningDelta;
using testing_fixtures::MakePathInstance;

// Every result's full cost, in stream order. Scalar dioids yield
// singleton vectors; LEX yields the whole component vector, so ranking
// ties are compared exactly.
std::vector<std::vector<double>> DrainCosts(const PreprocessingArtifact& a) {
  std::vector<std::vector<double>> out;
  std::unique_ptr<RankedIterator> it = a.NewStream();
  while (auto r = it->Next()) {
    if (r->cost_vector.empty()) {
      out.push_back({r->cost});
    } else {
      out.push_back(r->cost_vector);
    }
  }
  return out;
}

template <typename CM>
void ExpectPatchMatchesRebuild(AnyKAlgorithm algorithm) {
  Instance t = MakePathInstance(3, 60, 8, 7);
  const uint64_t built_at = t.db.version();
  auto base = MakeTreeArtifact<CM>(t.db, t.query, algorithm, nullptr);
  ASSERT_NE(base, nullptr);
  const std::vector<std::vector<double>> before = DrainCosts(*base);

  ASSERT_TRUE(t.db.ApplyDelta(JoiningDelta(t, 0.25)).ok());
  std::vector<AppendDelta> deltas;
  ASSERT_TRUE(t.db.DeltasSince(built_at, &deltas));
  ASSERT_FALSE(deltas.empty());

  const auto snap = t.db.Snapshot();
  auto patched = base->TryPatch(snap->view(), deltas);
  ASSERT_NE(patched, nullptr);

  auto fresh = MakeTreeArtifact<CM>(snap->view(), t.query, algorithm, nullptr);
  EXPECT_EQ(DrainCosts(*patched), DrainCosts(*fresh));
  // The base artifact is immutable: it still enumerates its own epoch.
  EXPECT_EQ(DrainCosts(*base), before);
}

TEST(LiveUpdateTest, PatchedLazyArtifactMatchesFreshRebuild) {
  ExpectPatchMatchesRebuild<SumCost>(AnyKAlgorithm::kPartLazy);
}

TEST(LiveUpdateTest, PatchedEagerArtifactMatchesFreshRebuild) {
  ExpectPatchMatchesRebuild<SumCost>(AnyKAlgorithm::kPartEager);
}

TEST(LiveUpdateTest, PatchedTake2ArtifactMatchesFreshRebuild) {
  ExpectPatchMatchesRebuild<SumCost>(AnyKAlgorithm::kPartTake2);
}

TEST(LiveUpdateTest, PatchedMemoizedArtifactMatchesFreshRebuild) {
  ExpectPatchMatchesRebuild<SumCost>(AnyKAlgorithm::kPartMemoized);
}

TEST(LiveUpdateTest, PatchedRecArtifactMatchesFreshRebuild) {
  ExpectPatchMatchesRebuild<SumCost>(AnyKAlgorithm::kRec);
}

TEST(LiveUpdateTest, PatchingIsDioidGeneric) {
  ExpectPatchMatchesRebuild<MaxCost>(AnyKAlgorithm::kPartLazy);
  ExpectPatchMatchesRebuild<ProdCost>(AnyKAlgorithm::kPartLazy);
  ExpectPatchMatchesRebuild<LexCost>(AnyKAlgorithm::kPartLazy);
}

// The refold folds rows with the build's own rules, so a patched T-DP
// is structurally a fresh build over the new snapshot: the same tuples,
// best costs, child groups and group extents, and in the lazy modes
// the same row arena and group minima. (Eager segments are sorted with
// an unstable sort, so tie order within a group may differ.)
template <typename CM>
void ExpectPatchedTdpEqualsRebuild(size_t len, size_t tuples, Value domain,
                                   uint64_t seed, SortMode mode) {
  SCOPED_TRACE(::testing::Message() << "path-" << len << " seed " << seed
                                    << " sort mode " << static_cast<int>(mode));
  Instance t = MakePathInstance(len, tuples, domain, seed);
  const uint64_t built_at = t.db.version();
  const Tdp<CM> base(t.db, t.query, mode, nullptr);
  ASSERT_TRUE(t.db.ApplyDelta(JoiningDelta(t, 0.25)).ok());
  std::vector<AppendDelta> deltas;
  ASSERT_TRUE(t.db.DeltasSince(built_at, &deltas));
  const auto snap = t.db.Snapshot();
  TdpPatchStats stats;
  const std::optional<Tdp<CM>> patched =
      Tdp<CM>::Patched(base, t.query, snap->view(), deltas, &stats);
  ASSERT_TRUE(patched.has_value());
  EXPECT_EQ(stats.rows_appended, len);
  const Tdp<CM> fresh(snap->view(), t.query, mode, nullptr);

  ASSERT_EQ(patched->NumNodes(), fresh.NumNodes());
  for (size_t i = 0; i < fresh.NumNodes(); ++i) {
    SCOPED_TRACE(::testing::Message() << "node " << i);
    const auto& p = patched->node(i);
    const auto& f = fresh.node(i);
    ASSERT_EQ(p.rel.NumTuples(), f.rel.NumTuples());
    for (RowId r = 0; r < f.rel.NumTuples(); ++r) {
      EXPECT_TRUE(std::ranges::equal(p.rel.Tuple(r), f.rel.Tuple(r)))
          << "row " << r;
      EXPECT_EQ(p.rel.TupleWeight(r), f.rel.TupleWeight(r)) << "row " << r;
    }
    EXPECT_EQ(p.best, f.best);
    EXPECT_EQ(p.child_groups, f.child_groups);
    ASSERT_EQ(p.groups.size(), f.groups.size());
    for (GroupId g = 0; g < f.groups.size(); ++g) {
      EXPECT_EQ(p.groups[g].begin, f.groups[g].begin) << "group " << g;
      EXPECT_EQ(p.groups[g].size, f.groups[g].size) << "group " << g;
      if (mode != SortMode::kEager) {
        EXPECT_EQ(p.groups[g].min_pos, f.groups[g].min_pos) << "group " << g;
      }
    }
    if (mode != SortMode::kEager) {
      EXPECT_EQ(p.group_rows, f.group_rows);
    }
  }
}

TEST(LiveUpdateTest, PatchedTdpIsStructurallyAFreshBuild) {
  for (const SortMode mode :
       {SortMode::kEager, SortMode::kLazy, SortMode::kQuickselect}) {
    for (const uint64_t seed : {7, 19, 23}) {
      ExpectPatchedTdpEqualsRebuild<SumCost>(3, 60, 8, seed, mode);
      ExpectPatchedTdpEqualsRebuild<MaxCost>(3, 60, 8, seed, mode);
      ExpectPatchedTdpEqualsRebuild<LexCost>(3, 60, 8, seed, mode);
      ExpectPatchedTdpEqualsRebuild<SumCost>(4, 30, 6, seed, mode);
    }
  }
}

TEST(LiveUpdateTest, PatchRefoldsOnlyTouchedGroups) {
  Instance t = MakePathInstance(3, 120, 16, 11);
  const uint64_t built_at = t.db.version();
  auto base =
      MakeTreeArtifact<SumCost>(t.db, t.query, AnyKAlgorithm::kPartLazy,
                                nullptr);
  ASSERT_TRUE(t.db.ApplyDelta(JoiningDelta(t, 0.0001)).ok());
  std::vector<AppendDelta> deltas;
  ASSERT_TRUE(t.db.DeltasSince(built_at, &deltas));

  auto patched = base->TryPatch(t.db.Snapshot()->view(), deltas);
  ASSERT_NE(patched, nullptr);
  const TdpPatchStats* stats = patched->patch_stats();
  ASSERT_NE(stats, nullptr);
  // One appended tuple per atom of the 3-atom path.
  EXPECT_EQ(stats->rows_appended, 3u);
  EXPECT_GT(stats->groups_refolded, 0u);
  // The point of patching: only the groups the delta's join keys land
  // in (plus any whose best changed) refold, a small fraction of the
  // per-join-key groups in a domain-16 instance.
  EXPECT_LT(stats->groups_refolded, stats->groups_total / 2);
  // An unpatched artifact exposes no patch stats.
  EXPECT_EQ(base->patch_stats(), nullptr);
}

TEST(LiveUpdateTest, SinglePatchAbsorbsSeveralCommittedDeltas) {
  Instance t = MakePathInstance(3, 60, 8, 19);
  const uint64_t built_at = t.db.version();
  auto base =
      MakeTreeArtifact<SumCost>(t.db, t.query, AnyKAlgorithm::kPartLazy,
                                nullptr);
  ASSERT_TRUE(t.db.ApplyDelta(JoiningDelta(t, 0.5)).ok());
  ASSERT_TRUE(t.db.ApplyDelta(JoiningDelta(t, 1.5)).ok());
  ASSERT_TRUE(t.db.ApplyDelta(JoiningDelta(t, 2.5)).ok());

  std::vector<AppendDelta> deltas;
  ASSERT_TRUE(t.db.DeltasSince(built_at, &deltas));
  const auto snap = t.db.Snapshot();
  auto patched = base->TryPatch(snap->view(), deltas);
  ASSERT_NE(patched, nullptr);
  const TdpPatchStats* stats = patched->patch_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->rows_appended, 9u);

  auto fresh = MakeTreeArtifact<SumCost>(snap->view(), t.query,
                                         AnyKAlgorithm::kPartLazy, nullptr);
  EXPECT_EQ(DrainCosts(*patched), DrainCosts(*fresh));
}

TEST(LiveUpdateTest, PatchedArtifactCanBePatchedAgain) {
  Instance t = MakePathInstance(3, 60, 8, 23);
  const uint64_t v0 = t.db.version();
  auto base =
      MakeTreeArtifact<SumCost>(t.db, t.query, AnyKAlgorithm::kPartLazy,
                                nullptr);
  ASSERT_TRUE(t.db.ApplyDelta(JoiningDelta(t, 0.5)).ok());
  const uint64_t v1 = t.db.version();
  std::vector<AppendDelta> d1;
  ASSERT_TRUE(t.db.DeltasSince(v0, &d1));
  auto once = base->TryPatch(t.db.Snapshot()->view(), d1);
  ASSERT_NE(once, nullptr);

  ASSERT_TRUE(t.db.ApplyDelta(JoiningDelta(t, 1.25)).ok());
  std::vector<AppendDelta> d2;
  ASSERT_TRUE(t.db.DeltasSince(v1, &d2));
  const auto snap = t.db.Snapshot();
  auto twice = once->TryPatch(snap->view(), d2);
  ASSERT_NE(twice, nullptr);

  auto fresh = MakeTreeArtifact<SumCost>(snap->view(), t.query,
                                         AnyKAlgorithm::kPartLazy, nullptr);
  EXPECT_EQ(DrainCosts(*twice), DrainCosts(*fresh));
}

TEST(LiveUpdateTest, PatchRefusedWhenDeltaIntroducesUnseenJoinKey) {
  Instance t = MakePathInstance(3, 60, 8, 7);
  const uint64_t built_at = t.db.version();
  auto base =
      MakeTreeArtifact<SumCost>(t.db, t.query, AnyKAlgorithm::kPartLazy,
                                nullptr);
  // Values far outside the generator domain: the appended tuple's join
  // keys were never interned, so the structural refold must refuse and
  // the caller falls back to a rebuild.
  Delta delta;
  delta.ForRelation(t.query.atom(1).relation).AddTuple({901, 902}, 1.0);
  ASSERT_TRUE(t.db.ApplyDelta(delta).ok());
  std::vector<AppendDelta> deltas;
  ASSERT_TRUE(t.db.DeltasSince(built_at, &deltas));
  EXPECT_EQ(base->TryPatch(t.db.Snapshot()->view(), deltas), nullptr);
}

// An epoch-regressed caller's deltas can describe rows the pinned view
// does not contain (the delta log always catches up to the LIVE
// version). The refold must refuse -- the old code underflowed
// `live_rows - start` and reserved a near-SIZE_MAX arena.
TEST(LiveUpdateTest, PatchRefusedWhenDeltasDescribeRowsBeyondView) {
  Instance t = MakePathInstance(3, 60, 8, 7);
  auto base =
      MakeTreeArtifact<SumCost>(t.db, t.query, AnyKAlgorithm::kPartLazy,
                                nullptr);
  const auto snap = t.db.Snapshot();
  const RelationId rel = t.query.atom(0).relation;
  std::vector<AppendDelta> bogus;
  bogus.push_back(AppendDelta{
      .to_version = t.db.version() + 1,
      .relation = rel,
      .first_row = static_cast<RowId>(snap->view().relation(rel).NumTuples() + 4),
      .num_rows = 2});
  EXPECT_EQ(base->TryPatch(snap->view(), bogus), nullptr);
}

// The epoch-regression race at the cache: a racing open caches an
// artifact at a NEWER epoch, then an open still pinned at the pre-delta
// snapshot looks up. It must get a plain miss -- handing the newer
// artifact back as "patch input" grafted post-epoch rows onto the older
// view (duplicate results) -- and neither its lookup nor its own
// build's Insert may displace the newer entry.
TEST(LiveUpdateTest, ArtifactCacheKeepsNewerEntryOnOlderEpochLookup) {
  using Artifact = std::shared_ptr<const PreprocessingArtifact>;
  Instance t = MakePathInstance(3, 60, 8, 7);
  const auto old_snap = t.db.Snapshot();
  Artifact old_art =
      MakeTreeArtifact<SumCost>(t.db, t.query, AnyKAlgorithm::kPartLazy,
                                nullptr);
  ASSERT_TRUE(t.db.ApplyDelta(JoiningDelta(t, 0.5)).ok());
  const auto new_snap = t.db.Snapshot();
  Artifact new_art = MakeTreeArtifact<SumCost>(
      new_snap->view(), t.query, AnyKAlgorithm::kPartLazy, nullptr);

  VersionedCache<PreprocessingArtifact> cache("test.artifact_cache",
                                              /*capacity=*/4);
  const auto key = PlanFingerprint(t.db, t.query, {}, {});
  bool patched = false;
  auto patch = [&patched](const Artifact&, const std::vector<AppendDelta>&) {
    patched = true;
    return Artifact();
  };
  auto build = [](Artifact art) {
    return [art]() -> StatusOr<Artifact> { return art; };
  };
  // The racing open caches its artifact at the newer epoch.
  ASSERT_TRUE(
      cache.GetOrBuild(key, t.db, *new_snap, patch, build(new_art)).ok());

  const auto res =
      cache.GetOrBuild(key, t.db, *old_snap, patch, build(old_art));
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(patched);  // the newer entry is never patch input
  EXPECT_EQ(res.value().outcome, CacheOutcome::kBuilt);
  EXPECT_EQ(res.value().value, old_art);
  EXPECT_EQ(cache.stats().invalidations, 0u);
  EXPECT_EQ(cache.stats().entries, 1u);

  // The older build's insert did not downgrade the entry.
  const auto live =
      cache.GetOrBuild(key, t.db, *new_snap, patch, build(nullptr));
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value().outcome, CacheOutcome::kHit);
  EXPECT_EQ(live.value().value, new_art);
}

TEST(LiveUpdateTest, BatchArtifactRefusesPatch) {
  Instance t = MakePathInstance(3, 40, 6, 7);
  const uint64_t built_at = t.db.version();
  auto batch =
      MakeTreeArtifact<SumCost>(t.db, t.query, AnyKAlgorithm::kBatch, nullptr);
  ASSERT_TRUE(t.db.ApplyDelta(JoiningDelta(t, 0.5)).ok());
  std::vector<AppendDelta> deltas;
  ASSERT_TRUE(t.db.DeltasSince(built_at, &deltas));
  EXPECT_EQ(batch->TryPatch(t.db.Snapshot()->view(), deltas), nullptr);
  EXPECT_EQ(batch->patch_stats(), nullptr);
}

}  // namespace
}  // namespace topkjoin
