// Concurrency hammering for the serving subsystem, written to run clean
// under ThreadSanitizer (tools/tier1.sh builds it with -DAW4A_SANITIZE=thread).
//
// The contracts under load:
//   - TierCache + SingleFlight give exactly ONE build per key, no matter how
//     many threads miss at once;
//   - no waiter is lost: every call returns a ladder or observes its
//     flight's one failure;
//   - counters stay coherent (inserts == keys, duplicate inserts == 0, hits
//     + misses == lookups).
// Builds here are cheap fakes so the schedule churns; one OriginServer test
// at the end runs real pipeline builds end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "dataset/corpus.h"
#include "serving/origin.h"
#include "serving/single_flight.h"
#include "serving/tier_cache.h"
#include "util/error.h"
#include "util/rng.h"

namespace aw4a::serving {
namespace {

TierKey key_of(std::uint64_t site) { return TierKey{site, 1, net::PlanType::kDataOnly}; }

/// The ladder_for() protocol under test: cache fetch, single-flight, leader
/// double-check, build, admit. Returns the ladder every caller ended up with.
LadderPtr cached_build(TierCache& cache, SingleFlight<TierKey, TierLadder, TierKeyHash>& flight,
                       const TierKey& key, std::atomic<std::uint64_t>& builds) {
  if (LadderPtr resident = cache.fetch(key, 0.0)) return resident;
  return flight.run(
      key,
      [&](const std::atomic<double>&) -> LadderPtr {
        if (LadderPtr resident = cache.fetch(key, 0.0)) return resident;
        builds.fetch_add(1, std::memory_order_relaxed);
        auto ladder = std::make_shared<TierLadder>();
        ladder->tiers.resize(1);
        ladder->cost_bytes = 1000;
        cache.insert(key, ladder, 0.0);
        return ladder;
      },
      std::numeric_limits<double>::infinity());
}

TEST(ServingStress, ExactlyOneBuildPerKeyAcrossThreads) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kKeys = 16;
  constexpr std::size_t kIterations = 400;

  TierCache cache(TierCacheOptions{.capacity_bytes = 64 * kMB, .shards = 4});
  SingleFlight<TierKey, TierLadder, TierKeyHash> flight;
  std::vector<std::atomic<std::uint64_t>> builds(kKeys);
  std::atomic<std::uint64_t> lost_waiters{0};

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng = Rng(2024).fork(t);
      for (std::size_t i = 0; i < kIterations; ++i) {
        const auto k = static_cast<std::uint64_t>(rng.uniform_int(0, kKeys - 1));
        const LadderPtr ladder = cached_build(cache, flight, key_of(k), builds[k]);
        if (ladder == nullptr || ladder->tiers.empty()) lost_waiters.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(lost_waiters.load(), 0u) << "every caller must get a ladder";
  std::uint64_t total_builds = 0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(builds[k].load(), 1u) << "key " << k << " built more than once";
    total_builds += builds[k].load();
  }
  EXPECT_EQ(total_builds, kKeys);

  const TierCacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts, kKeys);
  EXPECT_EQ(stats.resident_entries, kKeys);
  EXPECT_EQ(stats.evictions, 0u);
  // Every iteration did the outer lookup; each leader added a double-check.
  // All of them must be accounted as a hit or a miss, and the misses must be
  // exactly the outer misses (which all went to the flight) plus the kKeys
  // leader double-checks that found nothing and really built.
  const SingleFlightStats f = flight.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kIterations + f.leads);
  EXPECT_EQ(stats.misses, f.leads + f.joins + kKeys);
}

TEST(ServingStress, FailingLeaderNeverStrandsWaiters) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIterations = 200;
  SingleFlight<int, int> flight;
  std::atomic<std::uint64_t> attempts{0};
  std::atomic<std::uint64_t> successes{0};
  std::atomic<std::uint64_t> failures{0};

  // Every odd-numbered build attempt of the key fails: flights alternate
  // between dissolving in error and succeeding, under full contention.
  const auto build = [&](const std::atomic<double>&) -> std::shared_ptr<const int> {
    const auto n = attempts.fetch_add(1) + 1;
    if (n % 2 == 1) throw TransientError("flaky leader " + std::to_string(n));
    return std::make_shared<const int>(static_cast<int>(n));
  };

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < kIterations; ++i) {
        try {
          const auto value = flight.run(7, build, std::numeric_limits<double>::infinity());
          ASSERT_NE(value, nullptr);
          successes.fetch_add(1);
        } catch (const TransientError&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(successes.load() + failures.load(), kThreads * kIterations)
      << "no call may block forever or vanish";
  EXPECT_GT(successes.load(), 0u);
  EXPECT_GT(failures.load(), 0u);
  EXPECT_EQ(flight.stats().leads, attempts.load())
      << "every attempt had exactly one leader";
  EXPECT_EQ(flight.in_flight(), 0u);
}

TEST(ServingStress, EvictionChurnStaysCoherent) {
  // Capacity for only ~4 of 32 keys per shard: constant eviction while all
  // threads fetch/insert. The invariant is accounting, not residency.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kKeys = 32;
  constexpr std::size_t kIterations = 500;
  TierCache cache(TierCacheOptions{.capacity_bytes = 8 * 1000, .shards = 2});
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng = Rng(77).fork(t);
      for (std::size_t i = 0; i < kIterations; ++i) {
        const TierKey key = key_of(static_cast<std::uint64_t>(rng.uniform_int(0, kKeys - 1)));
        if (cache.fetch(key, 0.0) == nullptr) {
          auto ladder = std::make_shared<TierLadder>();
          ladder->tiers.resize(1);
          ladder->cost_bytes = 1000;
          cache.insert(key, ladder, 0.0);
        }
        if (i % 97 == 0) cache.invalidate_site(key.site_id);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const TierCacheStats stats = cache.stats();
  EXPECT_LE(stats.resident_bytes, 8u * 1000u);
  EXPECT_EQ(stats.resident_bytes, stats.resident_entries * 1000u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GE(stats.inserts, stats.evictions + stats.invalidations);
}

TEST(ServingStress, OriginServerConcurrentRealBuilds) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 17, .rich = true});
  Rng rng(17);
  core::DeveloperConfig config;
  config.tier_reductions = {2.0};
  config.min_image_ssim = 0.8;
  config.measure_qfs = false;
  std::vector<OriginSite> sites;
  sites.push_back(OriginSite{"site-0.example", gen.make_page(rng, 250 * kKB, gen.global_profile()),
                             config, net::PlanType::kDataVoiceLowUsage});
  sites.push_back(OriginSite{"site-1.example", gen.make_page(rng, 250 * kKB, gen.global_profile()),
                             config, net::PlanType::kDataVoiceLowUsage});
  const OriginServer origin(sites);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRequests = 6;
  std::atomic<std::uint64_t> bad_responses{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kRequests; ++i) {
        net::HttpRequest request;
        request.headers = {{"Host", (t + i) % 2 == 0 ? "site-0.example" : "site-1.example"},
                           {"Save-Data", "on"},
                           {"X-Geo-Country", "ET"}};
        const auto response = origin.handle(request);
        if (response.status != 200 || response.header("AW4A-Tier") == nullptr) {
          bad_responses.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(bad_responses.load(), 0u);
  const MetricsSnapshot m = origin.metrics();
  EXPECT_EQ(m.requests_total, kThreads * kRequests);
  EXPECT_EQ(m.builds_started, 2u) << "one real build per site, ever";
  EXPECT_EQ(m.duplicate_builds, 0u);
  EXPECT_EQ(m.internal_errors, 0u);
  EXPECT_EQ(m.served_degraded, 0u);
  EXPECT_GT(origin.cache_stats().hits, 0u);
  // The stats endpoint is safe to read while metrics settle.
  net::HttpRequest stats_request;
  stats_request.path = "/aw4a/stats";
  EXPECT_EQ(origin.handle(stats_request).status, 200);
}

TEST(ServingStress, PrewarmedColdBuildsUnderConcurrentLoad) {
  // The parallel ladder prewarm inside cold builds, exercised under TSan:
  // multiple origin builds may run concurrently (two sites here), each
  // spinning up its own prewarm worker pool, while request threads hammer
  // the cache. Outputs must match a serial (no-prewarm) origin's bit for bit.
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 23, .rich = true});
  Rng rng(23);
  core::DeveloperConfig config;
  config.tier_reductions = {2.0, 4.0};
  config.min_image_ssim = 0.8;
  config.measure_qfs = false;
  std::vector<OriginSite> sites;
  sites.push_back(OriginSite{"warm-0.example", gen.make_page(rng, 220 * kKB, gen.global_profile()),
                             config, net::PlanType::kDataVoiceLowUsage});
  sites.push_back(OriginSite{"warm-1.example", gen.make_page(rng, 220 * kKB, gen.global_profile()),
                             config, net::PlanType::kDataVoiceLowUsage});

  OriginOptions prewarm_options;
  prewarm_options.prewarm_workers = 4;
  const OriginServer prewarmed(sites, std::move(prewarm_options));

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRequests = 5;
  std::atomic<std::uint64_t> bad_responses{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kRequests; ++i) {
        net::HttpRequest request;
        request.headers = {{"Host", (t + i) % 2 == 0 ? "warm-0.example" : "warm-1.example"},
                           {"Save-Data", "on"},
                           {"X-Geo-Country", "ET"}};
        const auto response = prewarmed.handle(request);
        if (response.status != 200 || response.header("AW4A-Tier") == nullptr) {
          bad_responses.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(bad_responses.load(), 0u);
  const MetricsSnapshot m = prewarmed.metrics();
  EXPECT_EQ(m.builds_started, 2u) << "prewarm must not break single-flight";
  EXPECT_EQ(m.internal_errors, 0u);
  EXPECT_EQ(m.served_degraded, 0u);

  // Differential check: a serial origin serves byte-identical pages.
  const OriginServer serial(sites);
  for (const char* host : {"warm-0.example", "warm-1.example"}) {
    net::HttpRequest request;
    request.headers = {{"Host", host}, {"Save-Data", "on"}, {"X-Geo-Country", "ET"}};
    const auto a = prewarmed.handle(request);
    const auto b = serial.handle(request);
    EXPECT_EQ(net::serialize(a), net::serialize(b)) << host;
  }
}

}  // namespace
}  // namespace aw4a::serving
