// Tests of the codec internals: the PNG filter stream, the alpha-plane cost,
// and the lossy pipeline's cost-model knobs (codec_detail.h).
#include "imaging/codec_detail.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>
#include <utility>

#include "imaging/ssim.h"
#include "imaging/synth.h"
#include "net/compress.h"
#include "util/rng.h"

namespace aw4a::imaging::detail {
namespace {

TEST(PngFilterStream, SizeMatchesRowLayout) {
  Raster img(10, 7, Pixel{50, 60, 70, 255});
  const auto rgb = png_filter_stream(img, /*include_alpha=*/false);
  EXPECT_EQ(rgb.size(), 7u * (1u + 10u * 3u));  // filter byte + RGB per row
  const auto rgba = png_filter_stream(img, /*include_alpha=*/true);
  EXPECT_EQ(rgba.size(), 7u * (1u + 10u * 4u));
}

TEST(PngFilterStream, FlatImageFiltersToNearZeros) {
  Raster img(32, 32, Pixel{123, 45, 67, 255});
  const auto stream = png_filter_stream(img, false);
  // A flat image filters into long zero runs -> compresses to almost nothing.
  EXPECT_LT(net::gzip_size(stream), stream.size() / 20);
}

TEST(PngFilterStream, NoisyImageResistsFiltering) {
  Rng rng(1);
  Raster img(32, 32);
  for (auto& p : img.pixels()) {
    p = Pixel{static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
              static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
              static_cast<std::uint8_t>(rng.uniform_int(0, 255)), 255};
  }
  const auto stream = png_filter_stream(img, false);
  EXPECT_GT(net::gzip_size(stream), stream.size() * 2 / 3);
}

TEST(AlphaPlaneCost, FlatAlphaIsCheapVariedAlphaIsNot) {
  Raster opaque(48, 48, Pixel{10, 10, 10, 255});
  const Bytes flat_cost = alpha_plane_cost(opaque);
  Rng rng(2);
  Raster varied = opaque;
  for (auto& p : varied.pixels()) p.a = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  EXPECT_LT(flat_cost, alpha_plane_cost(varied) / 4);
}

TEST(LossyEncode, PayloadScaleScalesPayloadOnly) {
  Rng rng(3);
  const Raster img = synth_image(rng, ImageClass::kPhoto, 64, 64);
  LossyParams base{.format = ImageFormat::kJpeg,
                   .payload_scale = 1.0,
                   .hf_quant_scale = 1.0,
                   .header_bytes = 100,
                   .alpha = false};
  LossyParams half = base;
  half.payload_scale = 0.5;
  const Encoded full = lossy_encode(img, 80, base);
  const Encoded scaled = lossy_encode(img, 80, half);
  EXPECT_EQ(full.header_bytes, 100u);
  EXPECT_NEAR(static_cast<double>(scaled.payload_bytes()),
              static_cast<double>(full.payload_bytes()) * 0.5,
              static_cast<double>(full.payload_bytes()) * 0.02 + 2.0);
  // The decoded pixels are identical — payload_scale is a cost model knob,
  // not a quality knob.
  EXPECT_EQ(mean_abs_diff(full.decoded, scaled.decoded), 0.0);
}

TEST(LossyEncode, FlatterHighFrequencyTablesKeepMoreDetail) {
  Rng rng(4);
  const Raster img = synth_image(rng, ImageClass::kTextBanner, 64, 64);
  LossyParams coarse{.format = ImageFormat::kJpeg,
                     .payload_scale = 1.0,
                     .hf_quant_scale = 1.0,
                     .header_bytes = 0,
                     .alpha = false};
  LossyParams fine = coarse;
  fine.hf_quant_scale = 0.5;  // halve HF quantization steps
  const double ssim_coarse = ssim(img, lossy_encode(img, 50, coarse).decoded);
  const double ssim_fine = ssim(img, lossy_encode(img, 50, fine).decoded);
  EXPECT_GE(ssim_fine, ssim_coarse);
  // And costs more bytes, as it must.
  EXPECT_GE(lossy_encode(img, 50, fine).bytes, lossy_encode(img, 50, coarse).bytes);
}

TEST(LossyEncode, AlphaFlagControlsTransparencyAndCost) {
  Rng rng(5);
  Raster img = synth_image(rng, ImageClass::kLogo, 40, 40);
  img.at(0, 0).a = 0;
  LossyParams no_alpha{.format = ImageFormat::kJpeg,
                       .payload_scale = 1.0,
                       .hf_quant_scale = 1.0,
                       .header_bytes = 0,
                       .alpha = false};
  LossyParams with_alpha = no_alpha;
  with_alpha.alpha = true;
  const Encoded flat = lossy_encode(img, 80, no_alpha);
  const Encoded kept = lossy_encode(img, 80, with_alpha);
  EXPECT_FALSE(flat.decoded.has_alpha());
  EXPECT_TRUE(kept.decoded.has_alpha());
  EXPECT_GT(kept.bytes, flat.bytes);  // the alpha plane costs bytes
}

TEST(LossyEncode, QualityOneStillDecodes) {
  Rng rng(6);
  const Raster img = synth_image(rng, ImageClass::kGradient, 24, 24);
  LossyParams params{.format = ImageFormat::kJpeg,
                     .payload_scale = 1.0,
                     .hf_quant_scale = 1.0,
                     .header_bytes = 10,
                     .alpha = false};
  const Encoded enc = lossy_encode(img, 1, params);  // worst quality
  EXPECT_EQ(enc.decoded.width(), 24);
  EXPECT_GT(enc.bytes, 10u);
  EXPECT_LT(ssim(img, enc.decoded), 1.0);
}

// --- Bit-identity of the one-pass PNG filter choice ---

// The filter search as it ran before the one-pass rewrite: each of the five
// filters in turn, per byte through a switch, with the row-edge and
// first-row neighbors tested per byte. The oracle png_filter_stream must
// match byte for byte.
std::vector<std::uint8_t> png_filter_per_filter(const Raster& img, bool include_alpha) {
  const int channels = include_alpha ? 4 : 3;
  const int w = img.width();
  const int h = img.height();
  const int stride = w * channels;
  auto paeth = [](int a, int b, int c) {
    const int pr = a + b - c;
    const int pa = std::abs(pr - a);
    const int pb = std::abs(pr - b);
    const int pc = std::abs(pr - c);
    if (pa <= pb && pa <= pc) return a;
    if (pb <= pc) return b;
    return c;
  };
  auto byte_at = [&](int x, int y, int c) -> int {
    const Pixel p = img.at(x, y);
    return c == 0 ? p.r : c == 1 ? p.g : c == 2 ? p.b : p.a;
  };
  std::vector<std::uint8_t> out;
  std::vector<std::uint8_t> candidate(static_cast<std::size_t>(stride));
  std::vector<std::uint8_t> best(static_cast<std::size_t>(stride));
  for (int y = 0; y < h; ++y) {
    long best_score = -1;
    std::uint8_t best_filter = 0;
    for (std::uint8_t filter = 0; filter < 5; ++filter) {
      long score = 0;
      for (int i = 0; i < stride; ++i) {
        const int x = i / channels;
        const int c = i % channels;
        const int cur = byte_at(x, y, c);
        const int left = x > 0 ? byte_at(x - 1, y, c) : 0;
        const int up = y > 0 ? byte_at(x, y - 1, c) : 0;
        const int ul = (x > 0 && y > 0) ? byte_at(x - 1, y - 1, c) : 0;
        int predicted = 0;
        switch (filter) {
          case 0: predicted = 0; break;
          case 1: predicted = left; break;
          case 2: predicted = up; break;
          case 3: predicted = (left + up) / 2; break;
          default: predicted = paeth(left, up, ul); break;
        }
        const auto residual = static_cast<std::uint8_t>(cur - predicted);
        candidate[static_cast<std::size_t>(i)] = residual;
        score += std::abs(static_cast<std::int8_t>(residual));
      }
      if (best_score < 0 || score < best_score) {
        best_score = score;
        best_filter = filter;
        best = candidate;
      }
    }
    out.push_back(best_filter);
    out.insert(out.end(), best.begin(), best.end());
  }
  return out;
}

void expect_filter_stream_matches_oracle(const Raster& img, const std::string& what) {
  for (const bool alpha : {false, true}) {
    const auto got = png_filter_stream(img, alpha);
    const auto want = png_filter_per_filter(img, alpha);
    ASSERT_EQ(got.size(), want.size()) << what << (alpha ? " rgba" : " rgb");
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << what << (alpha ? " rgba" : " rgb") << " at byte " << i;
    }
  }
}

Raster noise_raster(Rng& rng, int w, int h, int lo, int hi) {
  Raster img(w, h);
  for (auto& p : img.pixels()) {
    p = Pixel{static_cast<std::uint8_t>(rng.uniform_int(lo, hi)),
              static_cast<std::uint8_t>(rng.uniform_int(lo, hi)),
              static_cast<std::uint8_t>(rng.uniform_int(lo, hi)),
              static_cast<std::uint8_t>(rng.uniform_int(lo, hi))};
  }
  return img;
}

TEST(PngFilterStream, OnePassChoiceMatchesPerFilterSearch) {
  Rng rng(7);
  for (const ImageClass cls : {ImageClass::kPhoto, ImageClass::kLogo, ImageClass::kTextBanner,
                               ImageClass::kGradient, ImageClass::kScreenshot}) {
    Raster img = synth_image(rng, cls, 37, 23);
    for (std::size_t i = 0; i < img.pixels().size(); i += 5) img.pixels()[i].a = 200;
    expect_filter_stream_matches_oracle(img, "class " + std::to_string(static_cast<int>(cls)));
  }
  // Full-range noise drives every residual through int8 wraparound; a narrow
  // band keeps Paeth's three-way comparison near its tie points.
  expect_filter_stream_matches_oracle(noise_raster(rng, 29, 17, 0, 255), "noise");
  expect_filter_stream_matches_oracle(noise_raster(rng, 29, 17, 126, 130), "narrow noise");
}

TEST(PngFilterStream, OnePassChoiceMatchesOnEdgeShapes) {
  Rng rng(8);
  // Width 1 (no left neighbor anywhere), a single first row (no up
  // neighbor), and 1x1.
  expect_filter_stream_matches_oracle(noise_raster(rng, 1, 19, 0, 255), "1 wide");
  expect_filter_stream_matches_oracle(noise_raster(rng, 31, 1, 0, 255), "1 high");
  expect_filter_stream_matches_oracle(noise_raster(rng, 1, 1, 0, 255), "1x1");
  // Constant rows: every filter but None scores 0 below the first row, and
  // an all-zero image ties all five everywhere — the first minimum wins.
  expect_filter_stream_matches_oracle(Raster(13, 6, Pixel{9, 200, 77, 128}), "constant");
  expect_filter_stream_matches_oracle(Raster(13, 6, Pixel{0, 0, 0, 0}), "zero");
  // Rows that tie between Sub and Up (a horizontal and vertical ramp with
  // equal steps) and between Up and Paeth (identical rows).
  Raster ramp(16, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 16; ++x) {
      const auto v = static_cast<std::uint8_t>(3 * (x + y));
      ramp.at(x, y) = Pixel{v, v, v, v};
    }
  }
  expect_filter_stream_matches_oracle(ramp, "ramp");
  Raster stripes(16, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 16; ++x) {
      const auto v = static_cast<std::uint8_t>(x * 17);
      stripes.at(x, y) = Pixel{v, static_cast<std::uint8_t>(255 - v), 0, 255};
    }
  }
  expect_filter_stream_matches_oracle(stripes, "stripes");
}

// --- Crafted coefficient planes ---

// JPEG zigzag scan: kZigzag[i] is the natural (row-major) index of the i-th
// coefficient in scan order.
constexpr int kZigzag[64] = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

CoeffPlane zero_plane(int w, int h) {
  CoeffPlane p;
  p.width = w;
  p.height = h;
  p.blocks_w = (w + 7) / 8;
  p.blocks_h = (h + 7) / 8;
  p.coeffs.assign(static_cast<std::size_t>(p.blocks_w) * p.blocks_h * 64, 0.0f);
  return p;
}

/// An opaque prepare of a single row of 8x8 luma blocks whose coefficients
/// are the given levels times `q`, so they quantize back to exactly those
/// levels where the quantizer step is `q`: every coefficient at quality
/// 100 (q = 1), the DC coefficients at quality 1 (q = 255). `luma_zz[b]`
/// lists block b's levels in zigzag order; every chroma block has DC level
/// `cb_dc` / `cr_dc` and no AC.
PreparedLossy crafted_prepare(const std::vector<std::array<int, 64>>& luma_zz, int cb_dc,
                              int cr_dc, float q) {
  const int w = 8 * static_cast<int>(luma_zz.size());
  PreparedLossy prep;
  prep.width = w;
  prep.height = 8;
  prep.opaque = true;
  prep.luma = zero_plane(w, 8);
  for (std::size_t b = 0; b < luma_zz.size(); ++b) {
    for (int i = 0; i < 64; ++i) {
      prep.luma.coeffs[b * 64 + static_cast<std::size_t>(kZigzag[i])] =
          static_cast<float>(luma_zz[b][static_cast<std::size_t>(i)]) * q;
    }
  }
  prep.cb = zero_plane((w + 1) / 2, 4);
  prep.cr = zero_plane((w + 1) / 2, 4);
  for (std::size_t b = 0; b * 64 < prep.cb.coeffs.size(); ++b) {
    prep.cb.coeffs[b * 64] = static_cast<float>(cb_dc) * q;
    prep.cr.coeffs[b * 64] = static_cast<float>(cr_dc) * q;
  }
  return prep;
}

std::array<int, 64> dc_block(int dc) {
  std::array<int, 64> zz{};
  zz[0] = dc;
  return zz;
}

// --- Reconstruction color convert at the clamp edges ---

// The color convert's byte quantization as it ran before the branch-free
// rewrite: clamp the float, then add 0.5 and truncate.
std::uint8_t clamp_u8_oracle(float v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0f, 255.0f) + 0.5f);
}

/// Every sample of a DC-only block with level `level` at step `q`, in the
/// +128 plane domain the color convert reads.
float dc_only_sample(int level, float q) {
  return idct8x8_dconly_value(static_cast<float>(level) * q) + 128.0f;
}

void expect_reconstruction_matches_oracle(const std::vector<int>& luma_levels, int cb_dc,
                                          int cr_dc, int quality, float q) {
  std::vector<std::array<int, 64>> blocks;
  for (const int level : luma_levels) blocks.push_back(dc_block(level));
  const PreparedLossy prep = crafted_prepare(blocks, cb_dc, cr_dc, q);
  // Constant chroma planes upsample to themselves.
  const float Cb = dc_only_sample(cb_dc, q) - 128.0f;
  const float Cr = dc_only_sample(cr_dc, q) - 128.0f;
  LossyParams params = lossy_params_for(ImageFormat::kJpeg);
  params.entropy = EntropyBackend::kRans;
  const Encoded enc = lossy_encode_prepared(prep, quality, params);
  const Raster decoded = lossy_decode(enc.payload);
  ASSERT_EQ(enc.decoded.width(), prep.width);
  ASSERT_TRUE(decoded.pixels() == enc.decoded.pixels());
  for (int x = 0; x < prep.width; ++x) {
    const float Y = dc_only_sample(luma_levels[static_cast<std::size_t>(x / 8)], q);
    const Pixel want{clamp_u8_oracle(Y + 1.402f * Cr),
                     clamp_u8_oracle(Y - 0.344136f * Cb - 0.714136f * Cr),
                     clamp_u8_oracle(Y + 1.772f * Cb), 255};
    for (int y = 0; y < 8; ++y) {
      ASSERT_EQ(enc.decoded.at(x, y), want)
          << "Y " << Y << " Cb " << Cb << " Cr " << Cr << " at x " << x;
    }
  }
}

TEST(LossyReconstruction, ColorConvertMatchesClampOracleAtTheEdges) {
  // At quality 100 every step is 1, so a luma DC level L lands near
  // 128 + L / 8: sweeping L over [-1040, -1000] and [1000, 1040] with
  // chroma offsets of a few eighths walks each channel across the clamp
  // edges. The sweep hits -0.5, 254.5 and 255.5 exactly, and -0.49 and
  // 255.49 within 6e-4.
  std::vector<int> levels;
  for (int level = -1040; level <= -1000; ++level) levels.push_back(level);
  for (int level = 1000; level <= 1040; ++level) levels.push_back(level);
  for (int cb = -4; cb <= 4; ++cb) {
    for (int cr = -4; cr <= 4; ++cr) {
      expect_reconstruction_matches_oracle(levels, cb, cr, 100, 1.0f);
    }
  }
}

TEST(LossyReconstruction, ColorConvertMatchesClampOracleFarOutOfRange) {
  // At quality 1 the DC steps saturate at 255, so small levels reach
  // samples near +-1e4 (and chroma pushes the other channels further).
  const std::vector<int> levels = {-320, -314, -200, -17, -1, 0, 1, 17, 200, 314, 320};
  for (const auto& [cb, cr] : {std::pair{0, 0}, std::pair{40, -40}, std::pair{-40, 40}}) {
    expect_reconstruction_matches_oracle(levels, cb, cr, 1, 255.0f);
  }
}

// --- Huffman-model AC walk ---

/// Bytes of a Huffman-model JPEG encode of one crafted luma block row.
Bytes huffman_bytes(const std::vector<std::array<int, 64>>& luma_zz) {
  return lossy_encode_prepared(crafted_prepare(luma_zz, 0, 0, 1.0f), 100,
                               lossy_params_for(ImageFormat::kJpeg))
      .bytes;
}

/// Sixteen copies of one block in zigzag order: its DC (alternating 12 and
/// -5, so the DC chain codes real differences) and the given AC nonzeros.
/// Repetition scales the pattern's symbol cost sixteenfold, so a symbol
/// miscounted once per block moves the byte total.
std::vector<std::array<int, 64>> row_of(std::initializer_list<std::pair<int, int>> nonzeros) {
  std::vector<std::array<int, 64>> row(16);
  for (std::size_t b = 0; b < row.size(); ++b) {
    row[b][0] = b % 2 ? -5 : 12;
    for (const auto& [index, level] : nonzeros) row[b][static_cast<std::size_t>(index)] = level;
  }
  return row;
}

TEST(HuffmanModel, AcWalkZeroRunsPinned) {
  // Each case isolates one run-length shape of the (run, size) walk: runs
  // just below, at and above the 16-zero ZRL split, two and two-plus ZRLs,
  // a leading run, a nonzero in the last slot (no EOB), and blocks with no
  // AC at all. Pinned to the bytes the per-slot walk produced.
  EXPECT_EQ(huffman_bytes(row_of({{1, 3}, {17, -2}})), 366u);     // run 15
  EXPECT_EQ(huffman_bytes(row_of({{1, 3}, {18, -2}})), 368u);     // run 16: one ZRL
  EXPECT_EQ(huffman_bytes(row_of({{1, 3}, {19, -2}})), 373u);     // run 17
  EXPECT_EQ(huffman_bytes(row_of({{1, 3}, {34, 5}})), 378u);      // run 32: two ZRLs
  EXPECT_EQ(huffman_bytes(row_of({{1, 3}, {49, -700}})), 392u);   // run 47
  EXPECT_EQ(huffman_bytes(row_of({{17, 1}, {40, 2}})), 374u);     // leading run 16
  EXPECT_EQ(huffman_bytes(row_of({{62, 4}})), 368u);              // run 61, EOB for one zero
  EXPECT_EQ(huffman_bytes(row_of({{63, 1}})), 356u);              // run 62, no EOB
  EXPECT_EQ(huffman_bytes(row_of({{2, -1}, {63, 90}})), 378u);    // run 60, no EOB
  EXPECT_EQ(huffman_bytes(row_of({})), 346u);                     // all-zero AC
  std::vector<std::array<int, 64>> dense(16);
  for (std::size_t b = 0; b < dense.size(); ++b) {
    for (std::size_t i = 0; i < 64; ++i) {
      const int magnitude = static_cast<int>((i * 37 + b * 11) % 1023) + 1;
      dense[b][i] = (i % 2 ? 1 : -1) * magnitude;  // every slot nonzero
    }
  }
  EXPECT_EQ(huffman_bytes(dense), 1737u);
  // A mixed row: the DC chain and the shared histograms across shapes.
  std::vector<std::array<int, 64>> mixed;
  for (const auto& row : {row_of({{1, 3}, {17, -2}}), row_of({{63, 1}}), row_of({}), dense,
                          row_of({{1, 3}, {49, -700}})}) {
    mixed.insert(mixed.end(), row.begin(), row.begin() + 3);
  }
  EXPECT_EQ(huffman_bytes(mixed), 657u);
}

}  // namespace
}  // namespace aw4a::imaging::detail
