// AssetStore contract tests: the content-addressed layer under the tier
// cache. The load-bearing properties pinned here:
//   - exact-fingerprint hits share one build and one memo (bit-identical
//     families, zero re-encodes),
//   - the semantic probe collapses near-duplicates but never crosses recipe
//     or content boundaries it shouldn't (the ladder family set is part of
//     the recipe, so an HBS and a Grid Search memo of one asset never mix),
//   - eviction keeps the perceptual index exact (a probe can never surface
//     an evicted entry),
//   - concurrent acquires of one content key collapse to one build with no
//     lost waiters, across *different page identities*, under the flight's
//     deadline union,
//   - the counter partition lookups == exact_hits + semantic_hits + misses
//     holds in every schedule (the TSan leg runs this whole binary).
#include "serving/asset_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "imaging/fingerprint.h"
#include "imaging/variants.h"
#include "obs/context.h"
#include "util/rng.h"

namespace aw4a::serving {
namespace {

using imaging::ImageClass;
using imaging::LadderFamilies;
using imaging::SourceImage;

/// Every family (the ladder default), and the two solvers' move sets
/// (core::Aw4aPipeline::ladder_families).
constexpr LadderFamilies kAll{};
constexpr LadderFamilies kHbs{.resolution = true, .quality = false};
constexpr LadderFamilies kGrid{.resolution = false, .quality = true};

std::shared_ptr<const SourceImage> make_asset(std::uint64_t seed, Bytes wire = 60 * kKB) {
  Rng rng(seed);
  return std::make_shared<const SourceImage>(
      imaging::make_source_image(rng, ImageClass::kPhoto, wire));
}

/// The same content as `base` seen from another page: different object id
/// and display geometry, identical raster and encode metadata.
std::shared_ptr<const SourceImage> same_content_other_page(
    const std::shared_ptr<const SourceImage>& base) {
  SourceImage copy = *base;
  copy.id = base->id + 7777;
  copy.display_w = base->display_w + 40;
  copy.display_h = base->display_h + 10;
  return std::make_shared<const SourceImage>(std::move(copy));
}

/// A near-duplicate: one low bit of one channel of one pixel differs, so the
/// exact fingerprint changes but the perceptual signature does not.
std::shared_ptr<const SourceImage> near_duplicate(
    const std::shared_ptr<const SourceImage>& base, int x = 0, int y = 0) {
  SourceImage copy = *base;
  copy.original.at(x, y).r ^= 1;
  return std::make_shared<const SourceImage>(std::move(copy));
}

void expect_partition(const AssetStoreStats& s) {
  EXPECT_EQ(s.lookups, s.exact_hits + s.semantic_hits + s.misses)
      << "every acquire must land in exactly one outcome counter";
}

TEST(AssetStore, ExactHitSharesOneBuildAndOneMemo) {
  AssetStore store;
  const auto asset = make_asset(1);
  const imaging::LadderOptions options;

  imaging::reset_build_work_stats();
  const auto first = store.acquire(asset, options, kAll, obs::RequestContext::none());
  ASSERT_NE(first, nullptr);
  const auto built = imaging::build_work_stats().encodes;
  EXPECT_GT(built, 0u);

  // Same content from a different page identity: exact hit, no new encodes,
  // the very same memo object.
  const auto second =
      store.acquire(same_content_other_page(asset), options, kAll, obs::RequestContext::none());
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(imaging::build_work_stats().encodes, built);

  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.exact_hits, 1u);
  EXPECT_EQ(s.semantic_hits, 0u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.resident_entries, 1u);
  EXPECT_GT(s.resident_bytes, 0u);
  EXPECT_LE(s.resident_bytes, store.capacity_bytes());
  expect_partition(s);
}

/// The store's memo for one family set against a local ladder warmed with
/// the same set: a memo holds exactly the families its recipe asked for,
/// each bit-identical to local enumeration.
void expect_acquired_memo_matches_local(const LadderFamilies& families) {
  AssetStore store;
  const auto asset = make_asset(2);
  const imaging::LadderOptions options;
  const auto memo = store.acquire(asset, options, families, obs::RequestContext::none());
  ASSERT_NE(memo, nullptr);

  imaging::VariantLadder local(asset, options, families);
  local.warm();
  const imaging::VariantMemo reference = local.snapshot();
  ASSERT_TRUE(memo->webp_full.has_value());
  ASSERT_TRUE(reference.webp_full.has_value());
  EXPECT_EQ(memo->webp_full->bytes, reference.webp_full->bytes);
  EXPECT_DOUBLE_EQ(memo->webp_full->ssim, reference.webp_full->ssim);
  for (std::size_t f = 0; f < 3; ++f) {
    ASSERT_EQ(memo->res_family[f].has_value(), reference.res_family[f].has_value());
    ASSERT_EQ(memo->qual_family[f].has_value(), reference.qual_family[f].has_value());
    if (memo->res_family[f]) {
      ASSERT_EQ(memo->res_family[f]->size(), reference.res_family[f]->size());
      for (std::size_t i = 0; i < memo->res_family[f]->size(); ++i) {
        EXPECT_EQ((*memo->res_family[f])[i].bytes, (*reference.res_family[f])[i].bytes);
        EXPECT_DOUBLE_EQ((*memo->res_family[f])[i].ssim, (*reference.res_family[f])[i].ssim);
      }
    }
    if (memo->qual_family[f]) {
      ASSERT_EQ(memo->qual_family[f]->size(), reference.qual_family[f]->size());
      for (std::size_t i = 0; i < memo->qual_family[f]->size(); ++i) {
        EXPECT_EQ((*memo->qual_family[f])[i].bytes, (*reference.qual_family[f])[i].bytes);
        EXPECT_DOUBLE_EQ((*memo->qual_family[f])[i].ssim, (*reference.qual_family[f])[i].ssim);
      }
    }
  }
}

TEST(AssetStore, AcquiredMemoMatchesLocalEnumerationBitForBit) {
  for (const LadderFamilies& families : {kAll, kHbs, kGrid}) {
    SCOPED_TRACE(families.bits());
    expect_acquired_memo_matches_local(families);
  }
}

TEST(AssetStore, SemanticHitCollapsesNearDuplicates) {
  AssetStore store;
  const auto asset = make_asset(3);
  const imaging::LadderOptions options;
  const auto first = store.acquire(asset, options, kAll, obs::RequestContext::none());
  ASSERT_NE(first, nullptr);

  imaging::reset_build_work_stats();
  const auto dup =
      store.acquire(near_duplicate(asset), options, kAll, obs::RequestContext::none());
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(first.get(), dup.get()) << "a near-duplicate shares the resident memo";
  EXPECT_EQ(imaging::build_work_stats().encodes, 0u);

  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.exact_hits, 0u);
  EXPECT_EQ(s.semantic_hits, 1u);
  EXPECT_GE(s.probes, 1u);
  EXPECT_EQ(s.inserts, 1u);
  expect_partition(s);
}

TEST(AssetStore, SemanticHitRespectsTheSsimThreshold) {
  // Verify the acceptance criterion directly: a semantic hit implies the
  // stored and probed thumbprints score at or above the configured floor.
  AssetStoreOptions opts;
  const auto asset = make_asset(4);
  const auto dup = near_duplicate(asset);
  const double score =
      imaging::thumbprint_similarity(imaging::luma_thumbprint(asset->original, opts.thumbprint_dim),
                                     imaging::luma_thumbprint(dup->original, opts.thumbprint_dim));
  EXPECT_GE(score, opts.semantic_min_ssim);

  AssetStore store(opts);
  const imaging::LadderOptions options;
  ASSERT_NE(store.acquire(asset, options, kAll, obs::RequestContext::none()), nullptr);
  ASSERT_NE(store.acquire(dup, options, kAll, obs::RequestContext::none()), nullptr);
  EXPECT_EQ(store.stats().semantic_hits, 1u);
}

TEST(AssetStore, SemanticOffBuildsNearDuplicatesSeparately) {
  AssetStore store(AssetStoreOptions{.semantic_enabled = false});
  const auto asset = make_asset(3);
  const imaging::LadderOptions options;
  const auto first = store.acquire(asset, options, kAll, obs::RequestContext::none());
  const auto dup =
      store.acquire(near_duplicate(asset), options, kAll, obs::RequestContext::none());
  ASSERT_NE(first, nullptr);
  ASSERT_NE(dup, nullptr);
  EXPECT_NE(first.get(), dup.get());

  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.semantic_hits, 0u);
  EXPECT_EQ(s.probes, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.inserts, 2u);
  expect_partition(s);
}

TEST(AssetStore, DistinctContentAndRecipesNeverShare) {
  AssetStore store;
  const auto asset = make_asset(5);
  const imaging::LadderOptions options;

  // Different content: both build.
  const auto a = store.acquire(asset, options, kAll, obs::RequestContext::none());
  const auto b = store.acquire(make_asset(6), options, kAll, obs::RequestContext::none());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get());

  // Same content, different enumeration recipe: a separate entry — adopting
  // across LadderOptions would hand a solver families it never asked for.
  imaging::LadderOptions coarse = options;
  coarse.scale_granularity = 0.25;
  const auto c = store.acquire(asset, coarse, kAll, obs::RequestContext::none());
  ASSERT_NE(c, nullptr);
  EXPECT_NE(a.get(), c.get());

  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.exact_hits, 0u);
  EXPECT_EQ(s.semantic_hits, 0u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.inserts, 3u);
  expect_partition(s);
}

TEST(AssetStore, FamilySetsAreSeparateEntriesAndFlights) {
  AssetStore store;
  const auto asset = make_asset(15);
  const imaging::LadderOptions options;

  const auto hbs = store.acquire(asset, options, kHbs, obs::RequestContext::none());
  const auto grid =
      store.acquire(same_content_other_page(asset), options, kGrid, obs::RequestContext::none());
  ASSERT_NE(hbs, nullptr);
  ASSERT_NE(grid, nullptr);
  EXPECT_NE(hbs.get(), grid.get()) << "one content, two recipes: two entries";
  for (std::size_t f = 0; f < 3; ++f) {
    EXPECT_FALSE(hbs->qual_family[f].has_value()) << "an HBS memo measures no quality rung";
    EXPECT_FALSE(grid->res_family[f].has_value()) << "a Grid memo measures no resolution rung";
  }
  // A near-duplicate under either set matches only its own set's entry.
  EXPECT_EQ(store.acquire(near_duplicate(asset), options, kGrid, obs::RequestContext::none())
                .get(),
            grid.get());
  EXPECT_EQ(store.acquire(near_duplicate(asset), options, kHbs, obs::RequestContext::none())
                .get(),
            hbs.get());

  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.semantic_hits, 2u);
  EXPECT_EQ(s.exact_hits, 0u);
  EXPECT_EQ(s.inserts, 2u);
  EXPECT_EQ(s.resident_entries, 2u);
  EXPECT_EQ(store.flight_stats().leads, 2u);
  EXPECT_EQ(store.flight_stats().joins, 0u);
  expect_partition(s);

  // An entry of one set is never a semantic match for the other: a store
  // holding only the HBS memo misses a Grid probe of a near-duplicate.
  AssetStore hbs_only;
  ASSERT_NE(hbs_only.acquire(asset, options, kHbs, obs::RequestContext::none()), nullptr);
  const auto cross =
      hbs_only.acquire(near_duplicate(asset), options, kGrid, obs::RequestContext::none());
  ASSERT_NE(cross, nullptr);
  EXPECT_TRUE(cross->qual_family[static_cast<std::size_t>(asset->format)].has_value());
  EXPECT_EQ(hbs_only.stats().semantic_hits, 0u);
  EXPECT_EQ(hbs_only.stats().probes, 0u) << "the same-recipe filter skips the HBS entry";
  EXPECT_EQ(hbs_only.stats().misses, 2u);
  expect_partition(hbs_only.stats());
}

TEST(AssetStore, FailedBuildReturnsNullAndCountsTheFailure) {
  AssetStore store;
  std::atomic<double> now{0.0};
  const obs::RequestContext ctx =
      obs::RequestContext()
          .with_clock([&now] { return now.load(); })
          .with_deadline_after(0.4);
  now.store(1.0);  // the budget is gone before the warming build starts

  const auto memo = store.acquire(make_asset(7), imaging::LadderOptions{}, kAll, ctx);
  EXPECT_EQ(memo, nullptr) << "containment: an exhausted deadline degrades to a local build";
  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.build_failures, 1u);
  EXPECT_EQ(s.inserts, 0u);
  EXPECT_EQ(s.misses, 1u);
  expect_partition(s);
}

TEST(AssetStore, EvictionKeepsThePerceptualIndexExact) {
  // One shard, room for exactly one resident memo: every insert evicts the
  // previous entry, which must also drop out of the aHash index. The budget
  // is measured from a real entry so the test holds for any raster size.
  Bytes one_entry = 0;
  {
    AssetStoreOptions probe;
    probe.shards = 1;
    AssetStore sizer(probe);
    (void)sizer.acquire(make_asset(8), imaging::LadderOptions{}, kAll,
                        obs::RequestContext::none());
    one_entry = sizer.stats().resident_bytes;
    ASSERT_GT(one_entry, 0u);
  }
  AssetStoreOptions opts;
  opts.capacity_bytes = one_entry + one_entry / 2;
  opts.shards = 1;
  AssetStore store(opts);
  ASSERT_EQ(store.shard_count(), 1u);
  const imaging::LadderOptions options;
  const auto a = make_asset(8);
  const auto b = make_asset(9);

  ASSERT_NE(store.acquire(a, options, kAll, obs::RequestContext::none()), nullptr);
  ASSERT_NE(store.acquire(b, options, kAll, obs::RequestContext::none()), nullptr);  // evicts a
  EXPECT_GE(store.stats().evictions, 1u);
  EXPECT_EQ(store.stats().resident_entries, 1u);

  // A near-duplicate of the EVICTED asset must miss (its bucket is gone) —
  // a stale index would hand back a dropped memo here.
  const auto rebuilt =
      store.acquire(near_duplicate(a), options, kAll, obs::RequestContext::none());
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(store.stats().semantic_hits, 0u);

  // The rebuild evicted b; a near-duplicate of the rebuilt content must
  // still semantic-hit, proving the index tracks residency through churn.
  const auto dup =
      store.acquire(near_duplicate(a, 1, 1), options, kAll, obs::RequestContext::none());
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(dup.get(), rebuilt.get());

  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.semantic_hits, 1u);
  EXPECT_EQ(s.resident_entries, 1u);
  EXPECT_EQ(s.inserts, 3u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_LE(s.resident_bytes, store.capacity_bytes());
  expect_partition(s);
}

TEST(AssetStore, OversizedEntriesAreNeverAdmitted) {
  AssetStoreOptions opts;
  opts.capacity_bytes = 1;  // smaller than any entry
  opts.shards = 1;
  AssetStore store(opts);
  const auto memo = store.acquire(make_asset(10), imaging::LadderOptions{}, kAll,
                                  obs::RequestContext::none());
  ASSERT_NE(memo, nullptr) << "the caller still gets the flight's memo";
  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.inserts, 0u);
  EXPECT_EQ(s.resident_entries, 0u);
  EXPECT_EQ(s.evictions, 0u);
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan leg runs these under -DAW4A_SANITIZE=thread)
// ---------------------------------------------------------------------------

TEST(AssetStore, ConcurrentAcquiresOfOneContentKeyCollapse) {
  AssetStore store;
  const auto asset = make_asset(11);
  const imaging::LadderOptions options;
  constexpr std::size_t kThreads = 8;

  std::vector<AssetStore::MemoPtr> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread presents the asset under its own page identity; the
      // content key is what collapses them.
      results[t] = store.acquire(same_content_other_page(asset), options, kAll,
                                 obs::RequestContext::none());
    });
  }
  for (std::thread& t : threads) t.join();

  // No lost waiters: every acquire returned the one shared memo.
  ASSERT_NE(results[0], nullptr);
  for (const auto& memo : results) {
    ASSERT_NE(memo, nullptr);
    EXPECT_EQ(memo.get(), results[0].get());
  }
  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.lookups, kThreads);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.build_failures, 0u);
  expect_partition(s);
  EXPECT_EQ(store.in_flight(), 0u);
}

TEST(AssetStore, ConcurrentAcquiresUnderBothFamilySetsEachBuildOnce) {
  AssetStore store;
  const auto asset = make_asset(16);
  const imaging::LadderOptions options;

  // The work of exactly one warm per set, measured serially up front.
  imaging::reset_build_work_stats();
  for (const LadderFamilies& families : {kHbs, kGrid}) {
    imaging::VariantLadder ladder(asset, options, families);
    ladder.warm();
  }
  const imaging::BuildWorkStats one_each = imaging::build_work_stats();
  ASSERT_GT(one_each.encodes, 0u);

  constexpr std::size_t kThreads = 8;
  std::vector<AssetStore::MemoPtr> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  imaging::reset_build_work_stats();
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t] = store.acquire(same_content_other_page(asset), options,
                                 t % 2 == 0 ? kHbs : kGrid, obs::RequestContext::none());
    });
  }
  for (std::thread& t : threads) t.join();

  ASSERT_NE(results[0], nullptr);
  ASSERT_NE(results[1], nullptr);
  EXPECT_NE(results[0].get(), results[1].get());
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[t].get(), results[t % 2].get()) << "thread " << t;
  }
  const imaging::BuildWorkStats work = imaging::build_work_stats();
  EXPECT_EQ(work.encodes, one_each.encodes) << "each set built exactly once";
  EXPECT_EQ(work.prepares, one_each.prepares);
  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.lookups, kThreads);
  EXPECT_EQ(s.inserts, 2u);
  EXPECT_EQ(s.semantic_hits, 0u);
  EXPECT_EQ(s.build_failures, 0u);
  expect_partition(s);
  EXPECT_EQ(store.in_flight(), 0u);
}

TEST(AssetStore, FlightDeadlineUnionSpansPageIdentities) {
  // Deterministic orchestration on an injected clock:
  //   1. the leader enters the warming build with a 0.4 s budget and blocks
  //      inside its first in-build clock read;
  //   2. a second page's request for the SAME content joins the flight with
  //      a 100 s budget (its CAS-max lands before it waits: the joiner
  //      CAS-maxes and begins waiting under one registry lock hold, so
  //      observing joins==1 and then taking that lock via in_flight()
  //      proves the union moved);
  //   3. time jumps PAST the leader's own deadline, the leader resumes —
  //      it survives only because the build runs under the union.
  AssetStore store;
  const auto asset = make_asset(12);
  const imaging::LadderOptions options;

  std::atomic<bool> release{false};
  std::atomic<int> leader_clock_calls{0};
  // Call 0 anchors the leader's own deadline at 0.4. Call 1 is the first
  // in-build deadline check: it blocks until the joiner has joined, then
  // still reports t=0 — remaining() loads the deadline union BEFORE the
  // clock, so this call's union read may predate the join and must be
  // paired with a pre-join time. Calls >= 2 re-read the union (now raised
  // to 100) and report t=0.5, past the leader's own deadline: the leader
  // survives them only if the build really runs under the shared union.
  const auto leader_clock = [&]() -> double {
    const int call = leader_clock_calls.fetch_add(1);
    if (call == 0) return 0.0;
    while (!release.load()) std::this_thread::yield();
    return call == 1 ? 0.0 : 0.5;
  };

  AssetStore::MemoPtr leader_memo;
  std::thread leader([&] {
    const obs::RequestContext ctx =
        obs::RequestContext().with_clock(leader_clock).with_deadline_after(0.4);
    leader_memo = store.acquire(asset, options, kAll, ctx);
  });
  while (leader_clock_calls.load() < 2) std::this_thread::yield();

  AssetStore::MemoPtr joiner_memo;
  std::thread joiner([&] {
    const obs::RequestContext ctx = obs::RequestContext()
                                        .with_clock([] { return 0.0; })
                                        .with_deadline_after(100.0);
    joiner_memo = store.acquire(same_content_other_page(asset), options, kAll, ctx);
  });
  while (store.flight_stats().joins < 1) std::this_thread::yield();
  (void)store.in_flight();  // barrier: the joiner's CAS-max has landed

  release.store(true);
  leader.join();
  joiner.join();

  ASSERT_NE(leader_memo, nullptr)
      << "the leader must build under the union of every waiter's deadline";
  ASSERT_NE(joiner_memo, nullptr);
  EXPECT_EQ(leader_memo.get(), joiner_memo.get());
  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.build_failures, 0u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(store.flight_stats().leads, 1u);
  EXPECT_EQ(store.flight_stats().joins, 1u);
  expect_partition(s);
}

TEST(AssetStore, StressPartitionHoldsUnderConcurrentChurn) {
  AssetStore store;
  const imaging::LadderOptions options;
  const auto base_a = make_asset(13, 40 * kKB);
  const auto base_b = make_asset(14, 40 * kKB);
  // Per-thread views: exact copies under other page identities plus near
  // duplicates, so exact hits, semantic hits and misses all occur.
  constexpr std::size_t kThreads = 6;
  constexpr int kIterations = 4;

  std::atomic<std::uint64_t> returned{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const auto& base = (t + i) % 2 == 0 ? base_a : base_b;
        const auto view = i % 2 == 0 ? same_content_other_page(base)
                                     : near_duplicate(base, static_cast<int>(t % 3), i % 2);
        if (store.acquire(view, options, kAll, obs::RequestContext::none()) != nullptr) {
          returned.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(returned.load(), kThreads * kIterations) << "no lost waiters, no failures";
  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.lookups, kThreads * kIterations);
  EXPECT_EQ(s.build_failures, 0u);
  // Each thread's last two iterations revisit content it already touched, so
  // at most the first two per thread may miss (plus flight-racing misses of
  // the same key, which the partition still accounts for).
  EXPECT_LE(s.misses, 2u * kThreads);
  EXPECT_GE(s.exact_hits + s.semantic_hits, 1u);
  expect_partition(s);
  EXPECT_EQ(store.in_flight(), 0u);
}

}  // namespace
}  // namespace aw4a::serving
