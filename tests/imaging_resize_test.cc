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

// --- Bit-identity of the integer separable box downscale ---

// The per-pixel box average as it ran before the integer rewrite: every
// output pixel re-reads its whole source box and divides a double sum. The
// oracle resize_box must match bit for bit.
Raster box_per_pixel(const Raster& img, int new_w, int new_h) {
  Raster out(new_w, new_h);
  const double sx = static_cast<double>(img.width()) / new_w;
  const double sy = static_cast<double>(img.height()) / new_h;
  auto to_u8 = [](double v) {
    return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0) + 0.5);
  };
  for (int y = 0; y < new_h; ++y) {
    const int y0 = static_cast<int>(y * sy);
    const int y1 = std::max(y0 + 1, static_cast<int>((y + 1) * sy));
    for (int x = 0; x < new_w; ++x) {
      const int x0 = static_cast<int>(x * sx);
      const int x1 = std::max(x0 + 1, static_cast<int>((x + 1) * sx));
      double r = 0;
      double g = 0;
      double b = 0;
      double a = 0;
      int n = 0;
      for (int yy = y0; yy < y1 && yy < img.height(); ++yy) {
        for (int xx = x0; xx < x1 && xx < img.width(); ++xx) {
          const Pixel p = img.at(xx, yy);
          r += p.r;
          g += p.g;
          b += p.b;
          a += p.a;
          ++n;
        }
      }
      out.at(x, y) = n == 0 ? img.at_clamped(x0, y0)
                            : Pixel{to_u8(r / n), to_u8(g / n), to_u8(b / n), to_u8(a / n)};
    }
  }
  return out;
}

void expect_box_matches_oracle(const Raster& img, int new_w, int new_h) {
  const Raster got = resize_box(img, new_w, new_h);
  const Raster want = box_per_pixel(img, new_w, new_h);
  ASSERT_EQ(got.width(), want.width());
  ASSERT_EQ(got.height(), want.height());
  for (std::size_t i = 0; i < want.pixels().size(); ++i) {
    ASSERT_EQ(got.pixels()[i], want.pixels()[i])
        << img.width() << "x" << img.height() << " -> " << new_w << "x" << new_h
        << " at pixel " << i;
  }
}

TEST(ResizeBox, IntegerSeparableMatchesPerPixelAverageAcrossLadderScales) {
  // Every ladder scale, odd and even sizes, opaque and alpha sources: the
  // reduce_resolution path the resolution rungs take.
  Rng rng(45);
  for (const auto& [w, h] : {std::pair{97, 61}, std::pair{64, 48}, std::pair{33, 129}}) {
    const Raster opaque = synth_image(rng, ImageClass::kPhoto, w, h);
    const Raster alpha = with_alpha_gradient(opaque);
    for (const Raster* img : {&opaque, &alpha}) {
      for (int step = 1; step <= 9; ++step) {
        const double scale = 0.1 * step;
        const int nw = std::max(1, static_cast<int>(std::lround(w * scale)));
        const int nh = std::max(1, static_cast<int>(std::lround(h * scale)));
        expect_box_matches_oracle(*img, nw, nh);
        EXPECT_TRUE(reduce_resolution(*img, scale).pixels() == box_per_pixel(*img, nw, nh).pixels())
            << w << "x" << h << " scale " << scale;
      }
    }
  }
}

TEST(ResizeBox, IntegerSeparableMatchesPerPixelAverageOnEdgeShapes) {
  Rng rng(46);
  const Raster photo = with_alpha_gradient(synth_image(rng, ImageClass::kPhoto, 45, 37));
  // Upscales (one-pixel boxes that repeat), mixed up/down, tiny targets.
  for (const auto& [w, h] : {std::pair{90, 74}, std::pair{101, 53}, std::pair{20, 60},
                             std::pair{7, 3}, std::pair{1, 1}, std::pair{45, 1},
                             std::pair{1, 37}}) {
    expect_box_matches_oracle(photo, w, h);
  }
  // 1xN and Nx1 sources, down and up.
  const Raster column = with_alpha_gradient(synth_image(rng, ImageClass::kGradient, 1, 53));
  const Raster row = with_alpha_gradient(synth_image(rng, ImageClass::kGradient, 53, 1));
  for (const int n : {1, 5, 17, 26, 53, 80}) {
    expect_box_matches_oracle(column, 1, n);
    expect_box_matches_oracle(column, 3, n);
    expect_box_matches_oracle(row, n, 1);
    expect_box_matches_oracle(row, n, 3);
  }
  // Saturated channels: every box sum at its maximum and minimum.
  const Raster white(31, 29, Pixel{255, 255, 255, 255});
  const Raster black(31, 29, Pixel{0, 0, 0, 0});
  for (const Raster* img : {&white, &black}) {
    expect_box_matches_oracle(*img, 4, 3);
    expect_box_matches_oracle(*img, 1, 1);
  }
}

TEST(ResizeBox, GiantBoxesMatchThePerPixelAverage) {
  // A 1x1 target of a ~8.8M-pixel source: near-white channels push the
  // box sum's rounding numerator 2s + n past 32 bits, so the wide-sum
  // instantiation runs; 2x1 halves the box back under the bound.
  Raster img(4200, 2100);
  std::uint32_t state = 12345;
  for (Pixel& p : img.pixels()) {
    state = state * 1664525u + 1013904223u;
    p = Pixel{static_cast<std::uint8_t>(255 - (state >> 29)),
              static_cast<std::uint8_t>(255 - ((state >> 13) & 3)),
              static_cast<std::uint8_t>(state >> 24), 255};
  }
  expect_box_matches_oracle(img, 1, 1);
  expect_box_matches_oracle(img, 2, 1);
}

TEST(ResizeBox, IntegerSeparableRoundsHalvesLikeThePerPixelAverage) {
  // Two-pixel boxes whose averages land exactly on .5 in every channel, and
  // three-pixel boxes that land a third away: the rounding boundary cases.
  Raster img(6, 1);
  const Pixel values[] = {{0, 1, 254, 0},   {1, 2, 255, 255}, {10, 11, 12, 13},
                          {11, 12, 13, 14}, {100, 0, 0, 1},   {101, 255, 1, 0}};
  for (int x = 0; x < 6; ++x) img.at(x, 0) = values[x];
  expect_box_matches_oracle(img, 3, 1);
  expect_box_matches_oracle(img, 2, 1);
  expect_box_matches_oracle(img, 4, 1);
  const Raster half = resize_box(img, 3, 1);
  EXPECT_EQ(half.at(0, 0), (Pixel{1, 2, 255, 128}));  // (0+1)/2 etc. round half up
}

}  // namespace
}  // namespace aw4a::imaging
