#include "core/rbr.h"

#include <gtest/gtest.h>

#include "core/quality.h"
#include "dataset/corpus.h"
#include "util/error.h"
#include "util/rng.h"

namespace aw4a::core {
namespace {

web::WebPage rich_page(std::uint64_t seed = 10, double mb = 2.0) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = seed, .rich = true});
  Rng rng(seed);
  return gen.make_page(rng, from_mb(mb), gen.global_profile());
}

TEST(Rbr, TrivialTargetIsNoOp) {
  const web::WebPage page = rich_page();
  web::ServedPage served = web::serve_original(page);
  LadderCache ladders;
  const RbrOutcome outcome = rank_based_reduce(served, page.transfer_size(), ladders);
  EXPECT_TRUE(outcome.met_target);
  EXPECT_EQ(outcome.images_touched, 0);
  EXPECT_EQ(served.transfer_size(), page.transfer_size());
}

TEST(Rbr, MeetsModerateTargetAndStopsEarly) {
  const web::WebPage page = rich_page();
  web::ServedPage served = web::serve_original(page);
  LadderCache ladders;
  const Bytes target = page.transfer_size() * 85 / 100;
  const RbrOutcome outcome = rank_based_reduce(served, target, ladders);
  EXPECT_TRUE(outcome.met_target);
  EXPECT_LE(served.transfer_size(), target);
  // Early stop: not every image should have been touched for a mild target.
  EXPECT_LT(static_cast<std::size_t>(outcome.images_touched), rich_images(page).size());
}

TEST(Rbr, NeverViolatesQualityThreshold) {
  const web::WebPage page = rich_page(11);
  web::ServedPage served = web::serve_original(page);
  LadderCache ladders;
  RbrOptions options;
  options.quality_threshold = 0.9;
  // Impossible target: forces RBR to reduce everything to the floor.
  rank_based_reduce(served, 1, ladders, options);
  for (const auto& [id, decision] : served.images) {
    ASSERT_TRUE(decision.variant.has_value());
    EXPECT_GE(decision.variant->ssim, 0.9 - 1e-9);
    EXPECT_FALSE(decision.dropped);
  }
  EXPECT_GE(compute_qss(served), 0.9 - 1e-9);
  EXPECT_DOUBLE_EQ(compute_qfs(served), 1.0);  // images only: QFS untouched
}

TEST(Rbr, LowerThresholdReachesDeeper) {
  const web::WebPage page = rich_page(12);
  LadderCache ladders;
  auto floor_bytes = [&](double qt) {
    web::ServedPage served = web::serve_original(page);
    RbrOptions options;
    options.quality_threshold = qt;
    return rank_based_reduce(served, 1, ladders, options).bytes_after;
  };
  EXPECT_LE(floor_bytes(0.8), floor_bytes(0.95));
}

TEST(Rbr, ThresholdBelowTheLadderFloorIsRejected) {
  // A ladder floored at 0.9 ends each family at its first rung below 0.9; a
  // walk at Qt 0.8 would read a truncated family, so RBR refuses it.
  const web::WebPage page = rich_page();
  imaging::LadderOptions ladder_options;
  ladder_options.min_ssim = rbr_ladder_min_ssim(0.9);
  LadderCache ladders(ladder_options);
  RbrOptions options;
  options.quality_threshold = 0.8;
  web::ServedPage served = web::serve_original(page);
  EXPECT_THROW((void)rank_based_reduce(served, 1, ladders, options), LogicError);
  EXPECT_THROW((void)reducibility_ranking(page, ladders, options), LogicError);
  options.quality_threshold = 0.9;  // at the floor: accepted
  EXPECT_NO_THROW((void)rank_based_reduce(served, 1, ladders, options));
}

TEST(Rbr, InfeasibleTargetReported) {
  const web::WebPage page = rich_page();
  web::ServedPage served = web::serve_original(page);
  LadderCache ladders;
  const RbrOutcome outcome = rank_based_reduce(served, 1, ladders);
  EXPECT_FALSE(outcome.met_target);
  EXPECT_GT(outcome.bytes_after, 1u);
}

TEST(Rbr, VariantsOnlyShrinkBytes) {
  const web::WebPage page = rich_page(13);
  web::ServedPage served = web::serve_original(page);
  LadderCache ladders;
  rank_based_reduce(served, page.transfer_size() / 2, ladders);
  for (const auto& [id, decision] : served.images) {
    const web::WebObject* o = page.find(id);
    ASSERT_NE(o, nullptr);
    ASSERT_TRUE(decision.variant.has_value());
    EXPECT_LT(decision.variant->bytes, o->transfer_bytes);
  }
}

TEST(Rbr, RankingNormalizedAndComplete) {
  const web::WebPage page = rich_page();
  LadderCache ladders;
  const auto ranking = reducibility_ranking(page, ladders);
  EXPECT_EQ(ranking.size(), rich_images(page).size());
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_GE(ranking[i - 1].second, ranking[i].second);  // descending
  }
  for (const auto& [id, score] : ranking) {
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
  }
}

TEST(Rbr, AreaHeuristicRanksSmallImagesFirst) {
  const web::WebPage page = rich_page();
  LadderCache ladders;
  RbrOptions area_only;
  area_only.area_weight = 1.0;
  area_only.bytes_efficiency_weight = 0.0;
  const auto ranking = reducibility_ranking(page, ladders, area_only);
  ASSERT_GE(ranking.size(), 2u);
  const auto area = [&](std::uint64_t id) {
    return page.find(id)->image->display_area();
  };
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_LE(area(ranking[i - 1].first), area(ranking[i].first));
  }
}

TEST(Rbr, HeuristicWeightsMustBePositive) {
  const web::WebPage page = rich_page();
  LadderCache ladders;
  RbrOptions bad;
  bad.area_weight = 0.0;
  bad.bytes_efficiency_weight = 0.0;
  EXPECT_THROW((void)reducibility_ranking(page, ladders, bad), LogicError);
}

TEST(Rbr, WebpPassConvertsEligiblePngs) {
  // Build a page and check PNG images got WebP'd when that shrinks them.
  const web::WebPage page = rich_page(14);
  web::ServedPage served = web::serve_original(page);
  LadderCache ladders;
  rank_based_reduce(served, page.transfer_size() / 2, ladders);
  int png_sources = 0;
  for (const auto* img : rich_images(page)) {
    if (img->image->format == imaging::ImageFormat::kPng) ++png_sources;
  }
  if (png_sources == 0) GTEST_SKIP() << "no PNG images on this page";
  int converted = 0;
  for (const auto& [id, decision] : served.images) {
    if (decision.variant && decision.variant->format == imaging::ImageFormat::kWebp &&
        page.find(id)->image->format == imaging::ImageFormat::kPng) {
      ++converted;
    }
  }
  EXPECT_GT(converted, 0);
}

// Reduction sweep: RBR monotonically uses no more bytes for tighter targets.
class RbrSweep : public ::testing::TestWithParam<int> {};

TEST_P(RbrSweep, BytesMonotoneInTarget) {
  const web::WebPage page = rich_page(15);
  LadderCache ladders;
  const double keep = GetParam() / 100.0;
  web::ServedPage served = web::serve_original(page);
  const Bytes target =
      static_cast<Bytes>(static_cast<double>(page.transfer_size()) * keep);
  const RbrOutcome outcome = rank_based_reduce(served, target, ladders);
  EXPECT_LE(outcome.bytes_after, page.transfer_size());
  if (outcome.met_target) {
    EXPECT_LE(outcome.bytes_after, target);
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, RbrSweep, ::testing::Values(95, 85, 75, 65, 55, 45));

}  // namespace
}  // namespace aw4a::core
