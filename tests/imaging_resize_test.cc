#include "imaging/resize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "imaging/ssim.h"
#include "imaging/synth.h"
#include "util/rng.h"

namespace aw4a::imaging {
namespace {

TEST(Resize, BoxProducesExactDimensions) {
  Rng rng(1);
  const Raster img = synth_image(rng, ImageClass::kPhoto, 64, 48);
  const Raster small = resize_box(img, 17, 13);
  EXPECT_EQ(small.width(), 17);
  EXPECT_EQ(small.height(), 13);
}

TEST(Resize, BoxPreservesFlatColor) {
  Raster img(32, 32, Pixel{77, 88, 99, 255});
  const Raster small = resize_box(img, 8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) EXPECT_EQ(small.at(x, y), (Pixel{77, 88, 99, 255}));
  }
}

TEST(Resize, BoxPreservesMeanBrightness) {
  Rng rng(2);
  const Raster img = synth_image(rng, ImageClass::kPhoto, 64, 64);
  const Raster small = resize_box(img, 16, 16);
  auto mean_luma = [](const Raster& r) {
    const PlaneF luma = luma_plane(r);
    double sum = 0;
    for (float v : luma.v) sum += v;
    return sum / static_cast<double>(luma.v.size());
  };
  EXPECT_NEAR(mean_luma(img), mean_luma(small), 2.0);
}

TEST(Resize, BilinearUpscaleSmooth) {
  Raster img(2, 1);
  img.at(0, 0) = Pixel{0, 0, 0, 255};
  img.at(1, 0) = Pixel{200, 200, 200, 255};
  const Raster big = resize_bilinear(img, 8, 1);
  // Interpolated values are monotone left to right.
  for (int x = 1; x < 8; ++x) EXPECT_GE(big.at(x, 0).r, big.at(x - 1, 0).r);
}

TEST(Resize, ReduceResolutionScalesDimensions) {
  Rng rng(3);
  const Raster img = synth_image(rng, ImageClass::kPhoto, 100, 60);
  const Raster half = reduce_resolution(img, 0.5);
  EXPECT_EQ(half.width(), 50);
  EXPECT_EQ(half.height(), 30);
  // Scale 1.0 is a no-op copy.
  const Raster same = reduce_resolution(img, 1.0);
  EXPECT_EQ(mean_abs_diff(img, same), 0.0);
}

TEST(Resize, ReduceResolutionNeverBelowOnePixel) {
  Raster img(4, 4);
  const Raster tiny = reduce_resolution(img, 0.01);
  EXPECT_GE(tiny.width(), 1);
  EXPECT_GE(tiny.height(), 1);
}

TEST(Resize, RejectsBadScale) {
  Raster img(4, 4);
  EXPECT_THROW((void)reduce_resolution(img, 0.0), LogicError);
  EXPECT_THROW((void)reduce_resolution(img, 1.5), LogicError);
}

TEST(Resize, RedisplayRoundTripDegradesGracefully) {
  Rng rng(4);
  const Raster img = synth_image(rng, ImageClass::kTextBanner, 80, 80);
  // Deeper reductions lose structure after redisplay — the physical basis of
  // RBR's resolution ladder. Local non-monotone wiggles are allowed (they
  // are the paper's Fig. 8 observation); the broad trend must hold.
  const double s_mild = ssim(img, redisplay(reduce_resolution(img, 0.9), 80, 80));
  const double s_deep = ssim(img, redisplay(reduce_resolution(img, 0.3), 80, 80));
  EXPECT_LT(s_mild, 1.0);
  EXPECT_LT(s_deep, s_mild);
  EXPECT_GT(s_deep, 0.2);  // even 0.3x is recognizably the same image
}

TEST(Resize, RedisplayNoOpWhenSameSize) {
  Rng rng(5);
  const Raster img = synth_image(rng, ImageClass::kLogo, 30, 30);
  EXPECT_EQ(mean_abs_diff(redisplay(img, 30, 30), img), 0.0);
}

// --- Bit-identity of the separable bilinear core ---

// The per-pixel bilinear resample as it ran before the separable rewrite:
// both horizontal lerps recomputed for every output pixel. The oracle that
// resize_bilinear and redisplay_luma must match bit for bit.
Raster bilinear_per_pixel(const Raster& img, int new_w, int new_h) {
  Raster out(new_w, new_h);
  const double sx = static_cast<double>(img.width()) / new_w;
  const double sy = static_cast<double>(img.height()) / new_h;
  auto to_u8 = [](double v) {
    return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0) + 0.5);
  };
  for (int y = 0; y < new_h; ++y) {
    const double fy = (y + 0.5) * sy - 0.5;
    const int y0 = static_cast<int>(std::floor(fy));
    const double ty = fy - y0;
    const int r0 = std::clamp(y0, 0, img.height() - 1);
    const int r1 = std::clamp(y0 + 1, 0, img.height() - 1);
    for (int x = 0; x < new_w; ++x) {
      const double fx = (x + 0.5) * sx - 0.5;
      const int x0 = static_cast<int>(std::floor(fx));
      const double tx = fx - x0;
      const int c0 = std::clamp(x0, 0, img.width() - 1);
      const int c1 = std::clamp(x0 + 1, 0, img.width() - 1);
      auto lerp2 = [&](auto channel) {
        const double v0 = double(channel(img.at(c0, r0))) * (1 - tx) +
                          double(channel(img.at(c1, r0))) * tx;
        const double v1 = double(channel(img.at(c0, r1))) * (1 - tx) +
                          double(channel(img.at(c1, r1))) * tx;
        return to_u8(v0 * (1 - ty) + v1 * ty);
      };
      out.at(x, y) = Pixel{lerp2([](const Pixel& p) { return p.r; }),
                           lerp2([](const Pixel& p) { return p.g; }),
                           lerp2([](const Pixel& p) { return p.b; }),
                           lerp2([](const Pixel& p) { return p.a; })};
    }
  }
  return out;
}

Raster with_alpha_gradient(Raster img) {
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      img.at(x, y).a = static_cast<std::uint8_t>(40 + (x * 7 + y * 3) % 216);
    }
  }
  return img;
}

void expect_same_plane(const PlaneF& got, const PlaneF& want, const std::string& what) {
  ASSERT_EQ(got.width, want.width) << what;
  ASSERT_EQ(got.height, want.height) << what;
  for (std::size_t i = 0; i < want.v.size(); ++i) {
    ASSERT_EQ(got.v[i], want.v[i]) << what << " at sample " << i;
  }
}

TEST(RedisplayLuma, BitIdenticalToLumaOfRedisplayAcrossScales) {
  // Odd sizes on both axes, opaque and alpha sources, every ladder scale
  // from 0.1 to 0.9: the fused path must equal luma_plane(redisplay(...)).
  Rng rng(41);
  for (const auto& [w, h] : {std::pair{97, 61}, std::pair{64, 48}, std::pair{33, 129}}) {
    const Raster opaque = synth_image(rng, ImageClass::kPhoto, w, h);
    ASSERT_FALSE(opaque.has_alpha());
    const Raster alpha = with_alpha_gradient(opaque);
    for (const Raster* original : {&opaque, &alpha}) {
      for (int step = 1; step <= 9; ++step) {
        const double scale = 0.1 * step;
        const Raster reduced = reduce_resolution(*original, scale);
        const std::string what = std::to_string(w) + "x" + std::to_string(h) + " scale " +
                                 std::to_string(scale) +
                                 (original->has_alpha() ? " alpha" : " opaque");
        expect_same_plane(redisplay_luma(reduced, w, h), luma_plane(redisplay(reduced, w, h)),
                          what);
      }
    }
  }
}

TEST(RedisplayLuma, SameSizeIsPlainLuma) {
  Rng rng(42);
  const Raster img = with_alpha_gradient(synth_image(rng, ImageClass::kLogo, 31, 17));
  expect_same_plane(redisplay_luma(img, 31, 17), luma_plane(img), "same size");
}

TEST(RedisplayLuma, DownscaleAndOnePixelSources) {
  // Not the ladder's direction, but the core serves any bilinear resize:
  // shrinking, and a 1x1 source where every tap clamps to one pixel.
  Rng rng(43);
  const Raster img = synth_image(rng, ImageClass::kScreenshot, 50, 40);
  expect_same_plane(redisplay_luma(img, 23, 11), luma_plane(redisplay(img, 23, 11)), "down");
  const Raster dot(1, 1, Pixel{10, 200, 30, 255});
  expect_same_plane(redisplay_luma(dot, 9, 5), luma_plane(redisplay(dot, 9, 5)), "1x1");
}

TEST(ResizeBilinear, SeparableCoreMatchesPerPixelResample) {
  Rng rng(44);
  const Raster opaque = synth_image(rng, ImageClass::kPhoto, 45, 37);
  const Raster alpha = with_alpha_gradient(opaque);
  for (const Raster* img : {&opaque, &alpha}) {
    for (const auto& [w, h] : {std::pair{45, 37}, std::pair{90, 74}, std::pair{101, 53},
                               std::pair{20, 60}, std::pair{7, 3}}) {
      const Raster got = resize_bilinear(*img, w, h);
      const Raster want = bilinear_per_pixel(*img, w, h);
      EXPECT_TRUE(got.pixels() == want.pixels()) << w << "x" << h;
    }
  }
}

}  // namespace
}  // namespace aw4a::imaging
