// Tests for MS-SSIM and the pluggable quality-metric dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "imaging/resize.h"
#include "imaging/ssim.h"
#include "imaging/synth.h"
#include "imaging/variants.h"
#include "util/rng.h"

namespace aw4a::imaging {
namespace {

Raster photo(std::uint64_t seed = 1, int dim = 96) {
  Rng rng(seed);
  return synth_image(rng, ImageClass::kPhoto, dim, dim);
}

TEST(MsSsim, IdentityIsOne) {
  const Raster img = photo();
  EXPECT_NEAR(ms_ssim(img, img), 1.0, 1e-9);
}

TEST(MsSsim, BoundedAndSymmetric) {
  Rng rng(2);
  const Raster a = synth_image(rng, ImageClass::kPhoto, 64, 64);
  const Raster b = synth_image(rng, ImageClass::kTextBanner, 64, 64);
  const double s = ms_ssim(a, b);
  EXPECT_GT(s, 0.0);
  EXPECT_LE(s, 1.0);
  EXPECT_DOUBLE_EQ(s, ms_ssim(b, a));
}

TEST(MsSsim, MoreForgivingOfResolutionLossThanSsim) {
  // MS-SSIM's coarser scales cannot see fine detail the downscale erased, so
  // it scores resolution reduction higher than single-scale SSIM — the
  // documented behaviour of the metric.
  Rng rng(3);
  const Raster img = synth_image(rng, ImageClass::kTextBanner, 96, 96);
  const Raster shown = redisplay(reduce_resolution(img, 0.4), 96, 96);
  EXPECT_GT(ms_ssim(img, shown), ssim(img, shown));
}

TEST(MsSsim, DegradesWithDamage) {
  const Raster img = photo(4);
  Raster damaged = img;
  damaged.fill_rect(10, 10, 40, 40, Pixel{0, 255, 0, 255});
  EXPECT_LT(ms_ssim(img, damaged), ms_ssim(img, img));
}

TEST(MsSsim, TinyImagesFallBackToFewerScales) {
  Rng rng(5);
  const Raster img = synth_image(rng, ImageClass::kLogo, 12, 12);
  // 12px halves below the window at scale 2: must not throw, identity holds.
  EXPECT_NEAR(ms_ssim(img, img, 5), 1.0, 1e-9);
}

TEST(MsSsim, RejectsBadArguments) {
  const Raster img = photo(6, 32);
  EXPECT_THROW((void)ms_ssim(img, img, 0), LogicError);
  Raster other(31, 32);
  EXPECT_THROW((void)ms_ssim(img, other), LogicError);
}

TEST(MsSsim, BufferReuseMatchesFreshPyramid) {
  // ms_ssim ping-pongs two downsample buffers across scales; rebuild the
  // pyramid with fresh buffers per scale via downsample2_into and combine
  // manually. Any stale-buffer bug (wrong size, leftover pixels) diverges.
  Rng rng(21);
  const Raster a_img = synth_image(rng, ImageClass::kPhoto, 96, 96);
  const Raster b_img = synth_image(rng, ImageClass::kPhoto, 96, 96);
  PlaneF a = luma_plane(a_img);
  PlaneF b = luma_plane(b_img);

  static constexpr double kWeights[3] = {0.0448, 0.2856, 0.3001};
  const double weight_sum = kWeights[0] + kWeights[1] + kWeights[2];
  double log_score = 0.0;
  for (int s = 0; s < 3; ++s) {
    log_score += kWeights[s] / weight_sum * std::log(std::max(1e-6, ssim(a, b)));
    if (s + 1 < 3) {
      PlaneF next_a, next_b;  // deliberately fresh each scale
      downsample2_into(a, next_a);
      downsample2_into(b, next_b);
      a = std::move(next_a);
      b = std::move(next_b);
    }
  }
  const double expected = std::exp(log_score);
  EXPECT_DOUBLE_EQ(ms_ssim(a_img, b_img, 3), expected);
}

TEST(MsSsim, DownsampleIntoReusesCapacityAndResizes) {
  const PlaneF big(64, 48, 10.0f);
  const PlaneF small(16, 16, 200.0f);
  PlaneF out;
  downsample2_into(big, out);
  EXPECT_EQ(out.width, 32);
  EXPECT_EQ(out.height, 24);
  EXPECT_FLOAT_EQ(out.at(5, 5), 10.0f);
  // Reusing the same buffer for a smaller input must shrink it (no stale
  // tail) and overwrite every pixel.
  downsample2_into(small, out);
  EXPECT_EQ(out.width, 8);
  EXPECT_EQ(out.height, 8);
  EXPECT_EQ(out.v.size(), 64u);
  for (const float v : out.v) EXPECT_FLOAT_EQ(v, 200.0f);
}

TEST(QualityMetric, DispatchAndNames) {
  const Raster img = photo(7, 48);
  Raster noisy = img;
  noisy.at(5, 5).r ^= 0x80;
  EXPECT_DOUBLE_EQ(compare_images(img, noisy, QualityMetric::kSsim), ssim(img, noisy));
  EXPECT_DOUBLE_EQ(compare_images(img, noisy, QualityMetric::kMsSsim), ms_ssim(img, noisy));
  EXPECT_STREQ(to_string(QualityMetric::kSsim), "ssim");
  EXPECT_STREQ(to_string(QualityMetric::kMsSsim), "ms-ssim");
}

TEST(QualityMetric, LadderHonorsConfiguredMetric) {
  Rng rng(8);
  auto asset = std::make_shared<const SourceImage>(
      make_source_image(rng, ImageClass::kTextBanner, 120 * kKB));
  LadderOptions ssim_options;
  LadderOptions ms_options;
  ms_options.metric = QualityMetric::kMsSsim;
  VariantLadder ssim_ladder(asset, ssim_options);
  VariantLadder ms_ladder(asset, ms_options);
  const auto& fam_ssim = ssim_ladder.resolution_family(asset->format);
  const auto& fam_ms = ms_ladder.resolution_family(asset->format);
  ASSERT_FALSE(fam_ssim.empty());
  ASSERT_FALSE(fam_ms.empty());
  // Same bytes (the codec is unchanged), different scores (the metric isn't).
  EXPECT_EQ(fam_ssim.front().bytes, fam_ms.front().bytes);
  EXPECT_GT(fam_ms.front().ssim, fam_ssim.front().ssim - 1e-9);
}

TEST(QualityMetric, MsSsimLadderUnlocksDeeperReductions) {
  // Under MS-SSIM the same Qt admits deeper rungs: a developer choosing the
  // multi-scale metric trades stricter "pixel identity" for more savings.
  Rng rng(9);
  auto asset = std::make_shared<const SourceImage>(
      make_source_image(rng, ImageClass::kTextBanner, 150 * kKB));
  LadderOptions ssim_options;
  LadderOptions ms_options;
  ms_options.metric = QualityMetric::kMsSsim;
  ssim_options.min_ssim = 0.9;  // Qt-deep, as an HBS build measures them
  ms_options.min_ssim = 0.9;
  VariantLadder ssim_ladder(asset, ssim_options);
  VariantLadder ms_ladder(asset, ms_options);
  // The cheapest rung at Qt 0.9 over both solvers' move sets: Grid Search's
  // full-resolution pick, and every rung RBR's walk accepts in the shipped
  // and WebP resolution families (each family's prefix before its first
  // rung below Qt).
  auto cheapest = [&](VariantLadder& ladder) {
    const auto fullres = ladder.cheapest_fullres_with_ssim_at_least(0.9);
    EXPECT_TRUE(fullres.has_value());
    Bytes best = fullres ? fullres->bytes : ladder.asset().wire_bytes;
    for (const ImageFormat f : {ladder.asset().format, ImageFormat::kWebp}) {
      for (const ImageVariant& v : ladder.resolution_family(f)) {
        if (!meets_ssim(v.ssim, 0.9)) break;
        best = std::min(best, v.bytes);
      }
    }
    return best;
  };
  EXPECT_LE(cheapest(ms_ladder), cheapest(ssim_ladder));
}

}  // namespace
}  // namespace aw4a::imaging
