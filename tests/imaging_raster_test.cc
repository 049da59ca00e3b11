#include "imaging/raster.h"

#include <gtest/gtest.h>

#include <utility>

#include "imaging/synth.h"
#include "util/rng.h"

namespace aw4a::imaging {
namespace {

TEST(Raster, ConstructionAndAccess) {
  Raster img(4, 3, Pixel{10, 20, 30, 255});
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.pixel_count(), 12u);
  EXPECT_FALSE(img.empty());
  EXPECT_EQ(img.at(0, 0), (Pixel{10, 20, 30, 255}));
  img.at(3, 2) = Pixel{1, 2, 3, 4};
  EXPECT_EQ(img.at(3, 2).a, 4);
}

TEST(Raster, BoundsChecked) {
  Raster img(2, 2);
  EXPECT_THROW((void)img.at(2, 0), LogicError);
  EXPECT_THROW((void)img.at(0, -1), LogicError);
}

TEST(Raster, ClampedAccessRepeatsEdges) {
  Raster img(2, 2);
  img.at(1, 1) = Pixel{9, 9, 9, 255};
  EXPECT_EQ(img.at_clamped(10, 10), img.at(1, 1));
  EXPECT_EQ(img.at_clamped(-5, 0), img.at(0, 0));
}

TEST(Raster, HasAlphaDetectsTransparency) {
  Raster opaque(3, 3, Pixel{0, 0, 0, 255});
  EXPECT_FALSE(opaque.has_alpha());
  opaque.at(1, 1).a = 128;
  EXPECT_TRUE(opaque.has_alpha());
}

TEST(Raster, HasAlphaSeesEveryPosition) {
  // One translucent pixel anywhere — first, last, mid-vector, in a
  // remainder tail — must be found; the reduction has no early exit to
  // test, so every position is checked.
  EXPECT_FALSE(Raster().has_alpha());
  for (const auto& [w, h] : {std::pair{1, 1}, std::pair{7, 1}, std::pair{33, 3}}) {
    const Raster opaque(w, h, Pixel{1, 2, 3, 255});
    EXPECT_FALSE(opaque.has_alpha());
    for (std::size_t i = 0; i < opaque.pixel_count(); ++i) {
      for (const std::uint8_t a : {std::uint8_t{0}, std::uint8_t{127}, std::uint8_t{254}}) {
        Raster img = opaque;
        img.pixels()[i].a = a;
        EXPECT_TRUE(img.has_alpha()) << w << "x" << h << " pixel " << i << " alpha " << int(a);
      }
    }
  }
}

TEST(Raster, FillRectClips) {
  Raster img(4, 4, Pixel{0, 0, 0, 255});
  img.fill_rect(2, 2, 10, 10, Pixel{255, 0, 0, 255});
  EXPECT_EQ(img.at(3, 3).r, 255);
  EXPECT_EQ(img.at(1, 1).r, 0);
  // Negative origin clips too.
  img.fill_rect(-2, -2, 3, 3, Pixel{0, 255, 0, 255});
  EXPECT_EQ(img.at(0, 0).g, 255);
}

TEST(Raster, CompositeBlendsAlpha) {
  Raster dst(2, 1, Pixel{0, 0, 0, 255});
  Raster src(1, 1, Pixel{255, 255, 255, 128});
  dst.composite(src, 0, 0);
  EXPECT_NEAR(dst.at(0, 0).r, 128, 1);
  EXPECT_EQ(dst.at(1, 0).r, 0);  // outside src untouched
}

TEST(Raster, LumaCompositesOverWhite) {
  Raster img(1, 1, Pixel{0, 0, 0, 0});  // fully transparent black
  const PlaneF luma = luma_plane(img);
  EXPECT_NEAR(luma.at(0, 0), 255.0f, 0.5f);  // shows the white background
}

TEST(Raster, LumaBt601Weights) {
  Raster img(1, 1, Pixel{255, 0, 0, 255});
  EXPECT_NEAR(luma_plane(img).at(0, 0), 0.299f * 255.0f, 0.5f);
}

TEST(Raster, ChannelPlaneExtraction) {
  Raster img(1, 1, Pixel{1, 2, 3, 4});
  EXPECT_EQ(channel_plane(img, 0).at(0, 0), 1.0f);
  EXPECT_EQ(channel_plane(img, 3).at(0, 0), 4.0f);
  EXPECT_THROW((void)channel_plane(img, 5), LogicError);
}

TEST(Raster, MeanAbsDiff) {
  Raster a(2, 2, Pixel{10, 10, 10, 255});
  Raster b(2, 2, Pixel{13, 10, 7, 255});
  EXPECT_NEAR(mean_abs_diff(a, b), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(mean_abs_diff(a, a), 0.0);
}

class SynthTest : public ::testing::TestWithParam<ImageClass> {};

TEST_P(SynthTest, ProducesRequestedDimensions) {
  Rng rng(1);
  const Raster img = synth_image(rng, GetParam(), 48, 32);
  EXPECT_EQ(img.width(), 48);
  EXPECT_EQ(img.height(), 32);
}

TEST_P(SynthTest, DeterministicInRngState) {
  Rng a(7);
  Rng b(7);
  const Raster x = synth_image(a, GetParam(), 32, 32);
  const Raster y = synth_image(b, GetParam(), 32, 32);
  EXPECT_EQ(mean_abs_diff(x, y), 0.0);
}

TEST_P(SynthTest, NotConstant) {
  Rng rng(3);
  const Raster img = synth_image(rng, GetParam(), 64, 64);
  const Pixel first = img.at(0, 0);
  bool varies = false;
  for (int y = 0; y < img.height() && !varies; ++y) {
    for (int x = 0; x < img.width(); ++x) {
      if (!(img.at(x, y) == first)) {
        varies = true;
        break;
      }
    }
  }
  EXPECT_TRUE(varies) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllClasses, SynthTest, ::testing::ValuesIn(kAllImageClasses),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           std::erase(name, '-');
                           return name;
                         });

TEST(Synth, ValueNoiseInUnitRange) {
  Rng rng(5);
  const PlaneF noise = value_noise(rng, 40, 40, 4);
  for (float v : noise.v) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(Synth, ClassFrequenciesFavorPhotos) {
  Rng rng(6);
  int photos = 0;
  for (int i = 0; i < 2000; ++i) {
    if (sample_image_class(rng) == ImageClass::kPhoto) ++photos;
  }
  EXPECT_NEAR(photos / 2000.0, 0.38, 0.05);
}

}  // namespace
}  // namespace aw4a::imaging
