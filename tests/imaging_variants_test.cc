#include "imaging/variants.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"

namespace aw4a::imaging {
namespace {

std::shared_ptr<const SourceImage> make_asset(ImageClass cls, Bytes wire = 120 * kKB,
                                              std::uint64_t seed = 1) {
  Rng rng(seed);
  return std::make_shared<const SourceImage>(make_source_image(rng, cls, wire));
}

TEST(SourceImage, WireBytesMatchTarget) {
  const auto asset = make_asset(ImageClass::kPhoto, 200 * kKB);
  EXPECT_EQ(asset->wire_bytes, 200 * kKB);
  EXPECT_GT(asset->byte_scale, 0.0);
  EXPECT_GT(asset->display_w, 0);
  EXPECT_GT(asset->display_area(), 0.0);
}

TEST(SourceImage, LogosShipAsPngPhotosAsJpeg) {
  int png_logos = 0;
  int jpeg_photos = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    if (make_asset(ImageClass::kLogo, 30 * kKB, seed)->format == ImageFormat::kPng) ++png_logos;
    if (make_asset(ImageClass::kPhoto, 150 * kKB, seed)->format == ImageFormat::kJpeg) {
      ++jpeg_photos;
    }
  }
  EXPECT_GE(png_logos, 6);
  EXPECT_GE(jpeg_photos, 6);
}

TEST(VariantLadder, OriginalIsIdentity) {
  VariantLadder ladder(make_asset(ImageClass::kPhoto));
  const ImageVariant orig = ladder.original();
  EXPECT_TRUE(orig.is_original);
  EXPECT_DOUBLE_EQ(orig.ssim, 1.0);
  EXPECT_DOUBLE_EQ(orig.scale, 1.0);
  EXPECT_EQ(orig.bytes, ladder.asset().wire_bytes);
}

TEST(VariantLadder, ResolutionFamilyDescendsInScaleAndSsim) {
  VariantLadder ladder(make_asset(ImageClass::kPhoto));
  const auto& family = ladder.resolution_family(ImageFormat::kJpeg);
  ASSERT_FALSE(family.empty());
  for (std::size_t i = 1; i < family.size(); ++i) {
    EXPECT_LT(family[i].scale, family[i - 1].scale);
  }
  // SSIM broadly decreases down the ladder (allowing small non-monotone
  // wiggles, which are the paper's Fig. 8 point).
  EXPECT_LT(family.back().ssim, 1.0);
  EXPECT_LT(family.back().ssim, family.front().ssim + 0.05);
}

TEST(VariantLadder, ResolutionFamilyIsMemoized) {
  VariantLadder ladder(make_asset(ImageClass::kPhoto));
  const auto* first = &ladder.resolution_family(ImageFormat::kJpeg);
  const auto* second = &ladder.resolution_family(ImageFormat::kJpeg);
  EXPECT_EQ(first, second);
}

TEST(VariantLadder, QualityFamilyEmptyForPng) {
  VariantLadder ladder(make_asset(ImageClass::kLogo, 40 * kKB, 3));
  if (ladder.asset().format == ImageFormat::kPng) {
    EXPECT_TRUE(ladder.quality_family(ImageFormat::kPng).empty());
  }
  // The WebP quality family is available regardless.
  EXPECT_FALSE(ladder.quality_family(ImageFormat::kWebp).empty() &&
               ladder.asset().ship_quality <= 35);
}

TEST(VariantLadder, WebpFullLosslessForPngSources) {
  const auto asset = make_asset(ImageClass::kLogo, 50 * kKB, 5);
  if (asset->format != ImageFormat::kPng) GTEST_SKIP();
  VariantLadder ladder(asset);
  const ImageVariant& webp = ladder.webp_full();
  EXPECT_EQ(webp.format, ImageFormat::kWebp);
  EXPECT_DOUBLE_EQ(webp.ssim, 1.0);       // lossless transcode
  EXPECT_LT(webp.bytes, asset->wire_bytes);  // and smaller (the whole point)
}

TEST(VariantLadder, CheapestFullResRespectsFloorAndImproves) {
  VariantLadder ladder(make_asset(ImageClass::kPhoto, 160 * kKB, 7));
  const auto strict = ladder.cheapest_fullres_with_ssim_at_least(0.995);
  const auto loose = ladder.cheapest_fullres_with_ssim_at_least(0.9);
  ASSERT_TRUE(strict.has_value());
  ASSERT_TRUE(loose.has_value());
  EXPECT_GE(strict->ssim, 0.995);
  EXPECT_GE(loose->ssim, 0.9);
  EXPECT_LE(loose->bytes, strict->bytes);
  EXPECT_LE(loose->bytes, ladder.asset().wire_bytes);
}

TEST(VariantLadder, BytesEfficiencyPositiveForReduciblePhotos) {
  VariantLadder ladder(make_asset(ImageClass::kPhoto, 180 * kKB, 9));
  EXPECT_GT(ladder.bytes_efficiency(0.9), 0.0);
}

TEST(VariantLadder, SnapshotHoldsEnumeratedFamilies) {
  VariantLadder ladder(make_asset(ImageClass::kPhoto));
  (void)ladder.resolution_family(ImageFormat::kJpeg);
  (void)ladder.webp_full();
  const VariantMemo memo = ladder.snapshot();
  const auto& jpeg = memo.res_family[static_cast<std::size_t>(ImageFormat::kJpeg)];
  ASSERT_TRUE(jpeg.has_value());
  EXPECT_FALSE(jpeg->empty());
  EXPECT_TRUE(memo.webp_full.has_value());
}

TEST(VariantLadder, RenderVariantMatchesDimensions) {
  const auto asset = make_asset(ImageClass::kPhoto);
  VariantLadder ladder(asset);
  const auto& family = ladder.resolution_family(asset->format);
  ASSERT_FALSE(family.empty());
  const Raster shown = ladder.render_variant(family.front());
  EXPECT_EQ(shown.width(), asset->original.width());
  EXPECT_EQ(shown.height(), asset->original.height());
}

TEST(MeasureVariant, ByteScaleApplied) {
  const auto asset = make_asset(ImageClass::kPhoto, 300 * kKB, 11);
  const ImageVariant v = measure_variant(*asset, asset->format, 1.0, asset->ship_quality);
  // Re-encoding the already-decoded original at ship quality lands near the
  // shipped wire size (within re-encode losses).
  EXPECT_GT(v.bytes, asset->wire_bytes / 2);
  EXPECT_LT(v.bytes, asset->wire_bytes * 2);
}

// --- Joint enumeration: one pass per family group, bit-identical results ---

std::shared_ptr<const SourceImage> with_alpha(const SourceImage& base, ImageFormat format) {
  SourceImage asset = base;
  asset.format = format;
  for (int y = 0; y < asset.original.height(); ++y) {
    for (int x = 0; x < asset.original.width(); ++x) {
      asset.original.at(x, y).a = static_cast<std::uint8_t>(60 + (x * 5 + y * 3) % 196);
    }
  }
  return std::make_shared<const SourceImage>(std::move(asset));
}

/// The sources the joint passes must handle: an opaque JPEG (one shared
/// prepare per scale), an opaque-or-flat PNG, a PNG with alpha, and a JPEG
/// whose raster carries alpha (JPEG and WebP planes differ, so each format
/// prepares for itself).
std::vector<std::pair<std::string, std::shared_ptr<const SourceImage>>> joint_sources() {
  const auto photo = make_asset(ImageClass::kPhoto, 150 * kKB, 4);
  const auto logo = make_asset(ImageClass::kLogo, 40 * kKB, 3);
  return {{"jpeg", photo},
          {"png", logo},
          {"png_alpha", with_alpha(*logo, ImageFormat::kPng)},
          {"jpeg_alpha", with_alpha(*photo, ImageFormat::kJpeg)}};
}

void expect_same_variants(const std::vector<ImageVariant>& got,
                          const std::vector<ImageVariant>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].format, want[i].format) << what << " rung " << i;
    EXPECT_EQ(got[i].scale, want[i].scale) << what << " rung " << i;
    EXPECT_EQ(got[i].quality, want[i].quality) << what << " rung " << i;
    EXPECT_EQ(got[i].bytes, want[i].bytes) << what << " rung " << i;
    EXPECT_EQ(got[i].ssim, want[i].ssim) << what << " rung " << i;
    EXPECT_EQ(got[i].kind, want[i].kind) << what << " rung " << i;
    EXPECT_EQ(got[i].alt_chars, want[i].alt_chars) << what << " rung " << i;
    EXPECT_EQ(got[i].is_original, want[i].is_original) << what << " rung " << i;
  }
}

class JointEnumerationTest : public ::testing::TestWithParam<EntropyBackend> {
 protected:
  LadderOptions options() const {
    LadderOptions o;
    o.entropy_backend = GetParam();
    return o;
  }
};

TEST_P(JointEnumerationTest, WarmMatchesPerFamilyLazyAndSingleShotOracle) {
  for (const auto& [name, asset] : joint_sources()) {
    const LadderOptions opts = options();
    VariantLadder warmed(asset, opts);
    warmed.warm();
    const VariantMemo memo = warmed.snapshot();
    const std::vector<ImageFormat> formats = {asset->format, ImageFormat::kWebp};

    // Oracle: every rung as an independent single-shot measure_variant(),
    // the uncached path with its own encode, redisplay and raster SSIM.
    auto oracle = [&](ImageFormat f, double scale, int q) {
      return measure_variant(*asset, f, scale, q, obs::RequestContext::none(), GetParam());
    };
    for (const ImageFormat f : formats) {
      const std::string what = name + " " + to_string(f);
      std::vector<ImageVariant> res;
      for (double s = 1.0 - opts.scale_granularity; s >= opts.min_scale - 1e-9;
           s -= opts.scale_granularity) {
        res.push_back(oracle(f, s, asset->ship_quality));
        if (!meets_ssim(res.back().ssim, opts.min_ssim)) break;
      }
      std::vector<ImageVariant> qual;
      for (const int q : opts.quality_steps) {
        if (f == ImageFormat::kPng || q >= asset->ship_quality) continue;
        qual.push_back(oracle(f, 1.0, q));
        if (!meets_ssim(qual.back().ssim, opts.min_ssim)) break;
      }
      ASSERT_TRUE(memo.res_family[static_cast<std::size_t>(f)].has_value()) << what;
      ASSERT_TRUE(memo.qual_family[static_cast<std::size_t>(f)].has_value()) << what;
      expect_same_variants(*memo.res_family[static_cast<std::size_t>(f)], res, what + " res");
      expect_same_variants(*memo.qual_family[static_cast<std::size_t>(f)], qual,
                           what + " qual");

      // Lazy: a fresh ladder asked for this one family first.
      VariantLadder lazy_res(asset, opts);
      expect_same_variants(lazy_res.resolution_family(f), res, what + " lazy res");
      VariantLadder lazy_qual(asset, opts);
      expect_same_variants(lazy_qual.quality_family(f), qual, what + " lazy qual");
    }
    ImageVariant webp =
        oracle(ImageFormat::kWebp, 1.0,
               asset->format == ImageFormat::kPng ? 100 : asset->ship_quality);
    webp.kind = DegradationKind::kTranscode;
    ASSERT_TRUE(memo.webp_full.has_value()) << name;
    expect_same_variants({*memo.webp_full}, {webp}, name + " webp_full");
    VariantLadder lazy_webp(asset, opts);
    expect_same_variants({lazy_webp.webp_full()}, {webp}, name + " lazy webp_full");
  }
}

TEST_P(JointEnumerationTest, PartialAdoptFillsOnlyTheMissingSlots) {
  // A memo with one family per pass missing: the joint passes measure just
  // those, and the result equals a full local warm.
  const auto asset = make_asset(ImageClass::kPhoto, 150 * kKB, 4);
  VariantLadder full(asset, options());
  full.warm();
  VariantMemo partial = full.snapshot();
  partial.res_family[static_cast<std::size_t>(ImageFormat::kWebp)].reset();
  partial.qual_family[static_cast<std::size_t>(asset->format)].reset();
  VariantLadder adopted(asset, options());
  adopted.adopt(partial);
  reset_build_work_stats();
  adopted.warm();
  EXPECT_GT(build_work_stats().encodes, 0u);
  const VariantMemo got = adopted.snapshot();
  const VariantMemo want = full.snapshot();
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(got.res_family[i].has_value(), want.res_family[i].has_value());
    ASSERT_EQ(got.qual_family[i].has_value(), want.qual_family[i].has_value());
    if (want.res_family[i]) expect_same_variants(*got.res_family[i], *want.res_family[i], "res");
    if (want.qual_family[i]) {
      expect_same_variants(*got.qual_family[i], *want.qual_family[i], "qual");
    }
  }
}

TEST_P(JointEnumerationTest, FamilySetsMeasureOnlyTheirFamiliesBitForBit) {
  // A ladder warms exactly its LadderFamilies; every family it does measure
  // (and every family read outside the set, lazily) equals the all-families
  // joint enumeration bit for bit.
  constexpr LadderFamilies kTranscodeOnly{.resolution = false, .quality = false};
  constexpr LadderFamilies kHbs{.resolution = true, .quality = false};
  constexpr LadderFamilies kGrid{.resolution = false, .quality = true};
  for (const auto& [name, asset] : joint_sources()) {
    VariantLadder all(asset, options());
    all.warm();
    const VariantMemo joint = all.snapshot();
    ASSERT_TRUE(joint.webp_full.has_value()) << name;

    // A lone transcode rung: one encode, the jointly enumerated value.
    reset_build_work_stats();
    VariantLadder transcode(asset, options(), kTranscodeOnly);
    const ImageVariant webp = transcode.webp_full();
    EXPECT_EQ(build_work_stats().encodes, 1u) << name;
    EXPECT_LE(build_work_stats().prepares, 1u) << name;
    expect_same_variants({webp}, {*joint.webp_full}, name + " transcode-only webp_full");
    transcode.warm();  // nothing left to measure
    EXPECT_EQ(build_work_stats().encodes, 1u) << name;

    for (const LadderFamilies families : {kTranscodeOnly, kHbs, kGrid}) {
      const std::string what = name + " families " + std::to_string(families.bits());
      VariantLadder ladder(asset, options(), families);
      ladder.warm();
      const VariantMemo memo = ladder.snapshot();
      ASSERT_TRUE(memo.webp_full.has_value()) << what;
      expect_same_variants({*memo.webp_full}, {*joint.webp_full}, what + " webp_full");
      for (std::size_t f = 0; f < 3; ++f) {
        EXPECT_EQ(memo.res_family[f].has_value(),
                  families.resolution && joint.res_family[f].has_value())
            << what;
        EXPECT_EQ(memo.qual_family[f].has_value(),
                  families.quality && joint.qual_family[f].has_value())
            << what;
        if (memo.res_family[f]) {
          expect_same_variants(*memo.res_family[f], *joint.res_family[f], what + " res");
        }
        if (memo.qual_family[f]) {
          expect_same_variants(*memo.qual_family[f], *joint.qual_family[f], what + " qual");
        }
      }
      // Families outside the set are still measured on first read.
      for (const ImageFormat f : {asset->format, ImageFormat::kWebp}) {
        const auto i = static_cast<std::size_t>(f);
        expect_same_variants(ladder.resolution_family(f), *joint.res_family[i],
                             what + " lazy res");
        expect_same_variants(ladder.quality_family(f), *joint.qual_family[i],
                             what + " lazy qual");
      }
    }
  }
}

TEST_P(JointEnumerationTest, FamilyUnderAFloorIsTheFullFamilysPrefix) {
  // A family under floor f is the floor-free family's prefix through its
  // first rung failing meets_ssim(·, f), kept as the sentinel. A floor set
  // a hair (less than the predicate's 1e-12) above a measured rung must not
  // end the family there: that rung passes every reader at Qt = f.
  for (const auto& [name, asset] : joint_sources()) {
    LadderOptions full_opts = options();
    full_opts.min_ssim = 0.0;
    VariantLadder full(asset, full_opts);
    for (const ImageFormat f : {asset->format, ImageFormat::kWebp}) {
      const std::vector<ImageVariant> family = full.resolution_family(f);
      ASSERT_GE(family.size(), 3u) << name;
      // The lowest-SSIM rung short of the last: every rung above it clears a
      // floor at its SSIM, so only the predicate decides whether it ends the
      // family.
      const auto hair_it =
          std::min_element(family.begin(), family.end() - 1,
                           [](const ImageVariant& a, const ImageVariant& b) {
                             return a.ssim < b.ssim;
                           });
      const auto hair_rung = static_cast<std::size_t>(hair_it - family.begin());
      const double hair = hair_it->ssim;
      for (const double floor : {0.8, 0.9, hair, hair + 5e-13}) {
        const bool at_hair = floor >= hair && floor < hair + 1e-12;
        const std::string what = name + " " + to_string(f) + " floor " + std::to_string(floor);
        std::vector<ImageVariant> want;
        for (const ImageVariant& v : family) {
          want.push_back(v);
          if (!meets_ssim(v.ssim, floor)) break;
        }
        LadderOptions opts = options();
        opts.min_ssim = floor;
        VariantLadder floored(asset, opts);
        const std::vector<ImageVariant>& got = floored.resolution_family(f);
        expect_same_variants(got, want, what);
        if (at_hair) {
          ASSERT_TRUE(meets_ssim(hair, floor)) << what;
          EXPECT_GT(got.size(), hair_rung + 1) << what << ": the hair rung ended the family";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, JointEnumerationTest,
                         ::testing::Values(EntropyBackend::kHuffman, EntropyBackend::kRans),
                         [](const auto& info) { return std::string(to_string(info.param)); });

TEST(JointEnumeration, OpaqueSourceRunsOneForwardTransformPerRaster) {
  // Opaque JPEG source: one prepare of the original serves webp_full and
  // both quality families, and one prepare per resolution scale serves both
  // resolution families.
  const auto asset = make_asset(ImageClass::kPhoto, 150 * kKB, 4);
  ASSERT_EQ(asset->format, ImageFormat::kJpeg);
  ASSERT_FALSE(asset->original.has_alpha());
  reset_build_work_stats();
  VariantLadder ladder(asset);
  ladder.warm();
  const std::size_t scales =
      std::max(ladder.resolution_family(ImageFormat::kJpeg).size(),
               ladder.resolution_family(ImageFormat::kWebp).size());
  EXPECT_EQ(build_work_stats().prepares, 1 + scales);
}

class LadderClassTest : public ::testing::TestWithParam<ImageClass> {};

TEST_P(LadderClassTest, EveryClassYieldsAWorkingLadder) {
  VariantLadder ladder(make_asset(GetParam(), 80 * kKB, 21));
  const auto v = ladder.cheapest_fullres_with_ssim_at_least(0.9);
  ASSERT_TRUE(v.has_value());
  EXPECT_GE(v->ssim, 0.9);
  EXPECT_FALSE(ladder.resolution_family(ladder.asset().format).empty());
}

INSTANTIATE_TEST_SUITE_P(AllClasses, LadderClassTest, ::testing::ValuesIn(kAllImageClasses),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           std::erase(name, '-');
                           return name;
                         });

}  // namespace
}  // namespace aw4a::imaging
