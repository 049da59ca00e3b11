#include "imaging/resize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/error.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define AW4A_RESIZE_SIMD 1
#include <immintrin.h>
#endif

namespace aw4a::imaging {
namespace {

std::uint8_t to_u8(double v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0) + 0.5);
}

/// Horizontal lerps of one source row for output columns [begin, end) into
/// the channel-planar row `out` ([r | g | b (| a)], each `w` wide):
/// src[c0] * (1 - tx) + src[c1] * tx per channel.
template <int kChannels>
void horizontal_row(const Pixel* srow, const int* col0, const int* col1, const double* weight_x,
                    int begin, int end, int w, double* out) {
  double* r = out;
  double* g = r + w;
  double* b = g + w;
  double* a = b + w;  // one past the end when kChannels == 3; never written then
  for (int x = begin; x < end; ++x) {
    const double tx = weight_x[x];
    const Pixel p0 = srow[col0[x]];
    const Pixel p1 = srow[col1[x]];
    r[x] = double(p0.r) * (1 - tx) + double(p1.r) * tx;
    g[x] = double(p0.g) * (1 - tx) + double(p1.g) * tx;
    b[x] = double(p0.b) * (1 - tx) + double(p1.b) * tx;
    if constexpr (kChannels == 4) a[x] = double(p0.a) * (1 - tx) + double(p1.a) * tx;
  }
}

/// The vertical lerp of planar-row entry i, quantized to a byte.
inline std::uint8_t vertical_u8(const double* top, const double* bottom, std::size_t i,
                                double ty) {
  return to_u8(top[i] * (1 - ty) + bottom[i] * ty);
}

/// Output columns [begin, end) of one redisplayed row, straight to luma.
template <int kChannels>
void luma_row(const double* top, const double* bottom, double ty, std::size_t begin,
              std::size_t end, std::size_t w, float* dst) {
  for (std::size_t x = begin; x < end; ++x) {
    const Pixel p{vertical_u8(top, bottom, x, ty), vertical_u8(top, bottom, w + x, ty),
                  vertical_u8(top, bottom, 2 * w + x, ty),
                  kChannels == 4 ? vertical_u8(top, bottom, 3 * w + x, ty) : std::uint8_t{255}};
    dst[x] = luma_of(p);
  }
}

#if AW4A_RESIZE_SIMD
// AVX2 forms of horizontal_row and luma_row, four output columns per
// register. Each lane runs the scalar expression's IEEE operations in the
// scalar order — double lerps (the (1 - t) factor is the same double the
// scalar code forms), clamp to [0, 255], +0.5 and truncation for to_u8,
// then luma_of's float arithmetic — and FMA stays off (target "avx2" only),
// so every lane's result is bit-identical to the scalar loop's. Tails of
// fewer than four columns run the scalar loop.

bool resize_simd_supported() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

/// One channel (byte `shift / 8` of each gathered pixel) of four columns,
/// lerped horizontally.
__attribute__((target("avx2"), always_inline)) inline __m256d lerp_channel(__m128i p0, __m128i p1,
                                                                          int shift, __m256d wl,
                                                                          __m256d wr) {
  const __m128i mask = _mm_set1_epi32(0xFF);
  const __m256d v0 = _mm256_cvtepi32_pd(_mm_and_si128(_mm_srli_epi32(p0, shift), mask));
  const __m256d v1 = _mm256_cvtepi32_pd(_mm_and_si128(_mm_srli_epi32(p1, shift), mask));
  return _mm256_add_pd(_mm256_mul_pd(v0, wl), _mm256_mul_pd(v1, wr));
}

template <int kChannels>
__attribute__((target("avx2"))) void horizontal_row_avx2(const Pixel* srow, const int* col0,
                                                         const int* col1,
                                                         const double* weight_x, int w,
                                                         double* out) {
  // A Pixel is four bytes, r lowest: one 32-bit gather fetches all channels.
  const int* base = reinterpret_cast<const int*>(srow);
  const __m256d one = _mm256_set1_pd(1.0);
  int x = 0;
  for (; x + 4 <= w; x += 4) {
    const __m128i p0 =
        _mm_i32gather_epi32(base, _mm_loadu_si128(reinterpret_cast<const __m128i*>(col0 + x)), 4);
    const __m128i p1 =
        _mm_i32gather_epi32(base, _mm_loadu_si128(reinterpret_cast<const __m128i*>(col1 + x)), 4);
    const __m256d tx = _mm256_loadu_pd(weight_x + x);
    const __m256d ltx = _mm256_sub_pd(one, tx);
    for (int c = 0; c < kChannels; ++c) {
      _mm256_storeu_pd(out + static_cast<std::size_t>(c) * w + x,
                       lerp_channel(p0, p1, 8 * c, ltx, tx));
    }
  }
  horizontal_row<kChannels>(srow, col0, col1, weight_x, x, w, w, out);
}

/// to_u8 of four vertical lerps, as int32 lanes.
__attribute__((target("avx2"), always_inline)) inline __m128i vertical_u8x4(const double* top,
                                                                           const double* bottom,
                                                                           __m256d wt,
                                                                           __m256d wb) {
  const __m256d v = _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(top), wt),
                                  _mm256_mul_pd(_mm256_loadu_pd(bottom), wb));
  const __m256d clamped =
      _mm256_min_pd(_mm256_max_pd(v, _mm256_setzero_pd()), _mm256_set1_pd(255.0));
  return _mm256_cvttpd_epi32(_mm256_add_pd(clamped, _mm256_set1_pd(0.5)));
}

template <int kChannels>
__attribute__((target("avx2"))) void luma_row_avx2(const double* top, const double* bottom,
                                                   double ty, std::size_t w, float* dst) {
  const __m256d wt = _mm256_set1_pd(1 - ty);
  const __m256d wb = _mm256_set1_pd(ty);
  std::size_t x = 0;
  for (; x + 4 <= w; x += 4) {
    __m128 r = _mm_cvtepi32_ps(vertical_u8x4(top + x, bottom + x, wt, wb));
    __m128 g = _mm_cvtepi32_ps(vertical_u8x4(top + w + x, bottom + w + x, wt, wb));
    __m128 b = _mm_cvtepi32_ps(vertical_u8x4(top + 2 * w + x, bottom + 2 * w + x, wt, wb));
    if constexpr (kChannels == 4) {
      // luma_of's composite over white, operation for operation.
      const __m128 a = _mm_div_ps(
          _mm_cvtepi32_ps(vertical_u8x4(top + 3 * w + x, bottom + 3 * w + x, wt, wb)),
          _mm_set1_ps(255.0f));
      const __m128 white = _mm_mul_ps(_mm_set1_ps(255.0f), _mm_sub_ps(_mm_set1_ps(1.0f), a));
      r = _mm_add_ps(_mm_mul_ps(r, a), white);
      g = _mm_add_ps(_mm_mul_ps(g, a), white);
      b = _mm_add_ps(_mm_mul_ps(b, a), white);
    }
    // Opaque: a == 1.0f, so luma_of's v * a + 255.0f * 0.0f is exactly v.
    const __m128 luma = _mm_add_ps(
        _mm_add_ps(_mm_mul_ps(_mm_set1_ps(0.299f), r), _mm_mul_ps(_mm_set1_ps(0.587f), g)),
        _mm_mul_ps(_mm_set1_ps(0.114f), b));
    _mm_storeu_ps(dst + x, luma);
  }
  luma_row<kChannels>(top, bottom, ty, x, w, w, dst);
}
#endif  // AW4A_RESIZE_SIMD

/// The bilinear resample, factored into its two passes. Output pixel (x, y)
/// is v0 * (1 - ty) + v1 * ty, where v0 and v1 are the horizontal lerps
/// src[c0] * (1 - tx) + src[c1] * tx of the two source rows it samples. A
/// horizontal lerp depends only on (source row, x), so each source row is
/// interpolated once into a channel-planar double row ([r | g | b (| a)],
/// each new_w wide) and reused by every output row that samples it — the
/// same double operations in the same order as the per-pixel form, hence
/// bit-identical. `sink(y, top, bottom, ty)` finishes output row y with the
/// vertical lerp; bottom == top when both samples clamp to one row. With
/// kChannels == 3 the alpha channel is never read (opaque sources, whose
/// alpha interpolates to exactly 255 anyway).
template <int kChannels, class RowSink>
void bilinear_rows(const Raster& img, int new_w, int new_h, RowSink&& sink) {
  AW4A_EXPECTS(!img.empty() && new_w > 0 && new_h > 0);
  const double sx = static_cast<double>(img.width()) / new_w;
  const double sy = static_cast<double>(img.height()) / new_h;
  const Pixel* src = img.pixels().data();
  const int src_w = img.width();
  // Per-column sample positions are row-invariant: hoist the floor/clamp and
  // the interpolation weight out of the row loop. tx is derived from the
  // *unclamped* floor; only the fetch indices clamp.
  std::vector<int> col0(static_cast<std::size_t>(new_w)), col1(static_cast<std::size_t>(new_w));
  std::vector<double> weight_x(static_cast<std::size_t>(new_w));
  for (int x = 0; x < new_w; ++x) {
    const double fx = (x + 0.5) * sx - 0.5;
    const int x0 = static_cast<int>(std::floor(fx));
    weight_x[static_cast<std::size_t>(x)] = fx - x0;
    col0[static_cast<std::size_t>(x)] = std::clamp(x0, 0, src_w - 1);
    col1[static_cast<std::size_t>(x)] = std::clamp(x0 + 1, 0, src_w - 1);
  }
  const std::size_t row_len = static_cast<std::size_t>(kChannels) * new_w;
  std::vector<double> rowbuf_a(row_len);
  std::vector<double> rowbuf_b(row_len);
  int row_a_idx = -1;
  int row_b_idx = -1;
  auto interpolate_row = [&](int sy_row, std::vector<double>& buf) {
    const Pixel* srow = src + static_cast<std::size_t>(sy_row) * src_w;
#if AW4A_RESIZE_SIMD
    if (resize_simd_supported()) {
      horizontal_row_avx2<kChannels>(srow, col0.data(), col1.data(), weight_x.data(), new_w,
                                     buf.data());
      return;
    }
#endif
    horizontal_row<kChannels>(srow, col0.data(), col1.data(), weight_x.data(), 0, new_w, new_w,
                              buf.data());
  };
  for (int y = 0; y < new_h; ++y) {
    const double fy = (y + 0.5) * sy - 0.5;
    const int y0 = static_cast<int>(std::floor(fy));
    const double ty = fy - y0;
    const int sy0 = std::clamp(y0, 0, img.height() - 1);
    const int sy1 = std::clamp(y0 + 1, 0, img.height() - 1);
    // Advancing one source row turns the old bottom row into the new top
    // row: swap instead of reinterpolating.
    if (row_a_idx != sy0 && row_b_idx == sy0) {
      std::swap(rowbuf_a, rowbuf_b);
      std::swap(row_a_idx, row_b_idx);
    }
    if (row_a_idx != sy0) {
      interpolate_row(sy0, rowbuf_a);
      row_a_idx = sy0;
    }
    if (sy1 != sy0 && row_b_idx != sy1) {
      interpolate_row(sy1, rowbuf_b);
      row_b_idx = sy1;
    }
    const double* top = rowbuf_a.data();
    const double* bottom = sy1 == sy0 ? rowbuf_a.data() : rowbuf_b.data();
    sink(y, top, bottom, ty);
  }
}

/// A source index range [begin, end) one output column or row averages.
struct BoxSpan {
  int begin = 0;
  int end = 0;
};

/// The box downscale in integer arithmetic. Per output row, every source
/// column's four channel sums over the row span (one widening add per
/// source byte, which vectorizes); then each output pixel sums its column
/// span and rounds s / n half up exactly as floor((2s + n) / (2n)). That
/// equals the double form to_u8(s / n) bit for bit: s / n + 0.5 is either
/// an integer or at least 1 / (2n) away from one, far beyond the double
/// rounding error. `Sum` must hold 2s + n for the largest box.
template <class Sum>
void box_average(const Raster& img, const std::vector<BoxSpan>& rows,
                 const std::vector<BoxSpan>& cols, Raster& out) {
  const auto row_bytes = static_cast<std::size_t>(img.width()) * 4;
  const auto* src = reinterpret_cast<const std::uint8_t*>(img.pixels().data());
  std::vector<Sum> col_sums(row_bytes);
  Pixel* dst = out.pixels().data();
  for (const BoxSpan& row : rows) {
    std::fill(col_sums.begin(), col_sums.end(), Sum{0});
    for (int yy = row.begin; yy < row.end; ++yy) {
      const std::uint8_t* line = src + static_cast<std::size_t>(yy) * row_bytes;
      for (std::size_t i = 0; i < row_bytes; ++i) col_sums[i] += line[i];
    }
    for (const BoxSpan& col : cols) {
      Sum s[4] = {0, 0, 0, 0};
      for (int xx = col.begin; xx < col.end; ++xx) {
        const Sum* c = &col_sums[static_cast<std::size_t>(xx) * 4];
        for (int k = 0; k < 4; ++k) s[k] += c[k];
      }
      const auto n = static_cast<Sum>(row.end - row.begin) * static_cast<Sum>(col.end - col.begin);
      auto average = [&](int k) { return static_cast<std::uint8_t>((2 * s[k] + n) / (2 * n)); };
      *dst++ = Pixel{average(0), average(1), average(2), average(3)};
    }
  }
}

}  // namespace

Raster resize_box(const Raster& img, int new_w, int new_h) {
  AW4A_EXPECTS(!img.empty() && new_w > 0 && new_h > 0);
  const double sx = static_cast<double>(img.width()) / new_w;
  const double sy = static_cast<double>(img.height()) / new_h;
  // Output pixel (x, y) averages the source box cols[x] x rows[y]: spans
  // clipped to the source and never empty (x0 = int(x * sx) < width for
  // every x < new_w), each computed once.
  auto spans = [](int count, double step, int limit) {
    std::vector<BoxSpan> out(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      const int lo = static_cast<int>(i * step);
      const int hi = std::max(lo + 1, static_cast<int>((i + 1) * step));
      out[static_cast<std::size_t>(i)] = {lo, std::min(hi, limit)};
    }
    return out;
  };
  const std::vector<BoxSpan> cols = spans(new_w, sx, img.width());
  const std::vector<BoxSpan> rows = spans(new_h, sy, img.height());
  auto widest = [](const std::vector<BoxSpan>& v) {
    int n = 0;
    for (const BoxSpan& s : v) n = std::max(n, s.end - s.begin);
    return static_cast<std::uint64_t>(n);
  };
  Raster out(new_w, new_h);
  // The rounding numerator 2s + n is at most 511n: 32-bit sums hold every
  // box below ~8.4M source pixels, i.e. any reduction short of a giant
  // raster squeezed to a few pixels, which gets 64-bit sums instead.
  if (511 * widest(rows) * widest(cols) <= UINT32_MAX) {
    box_average<std::uint32_t>(img, rows, cols, out);
  } else {
    box_average<std::uint64_t>(img, rows, cols, out);
  }
  return out;
}

Raster resize_bilinear(const Raster& img, int new_w, int new_h) {
  Raster out(new_w, new_h);
  Pixel* dst = out.pixels().data();
  const auto w = static_cast<std::size_t>(new_w);
  bilinear_rows<4>(img, new_w, new_h,
                   [&](int y, const double* top, const double* bottom, double ty) {
                     Pixel* dst_row = dst + static_cast<std::size_t>(y) * w;
                     for (std::size_t x = 0; x < w; ++x) {
                       dst_row[x] = Pixel{vertical_u8(top, bottom, x, ty),
                                          vertical_u8(top, bottom, w + x, ty),
                                          vertical_u8(top, bottom, 2 * w + x, ty),
                                          vertical_u8(top, bottom, 3 * w + x, ty)};
                     }
                   });
  return out;
}

Raster reduce_resolution(const Raster& img, double scale) {
  AW4A_EXPECTS(scale > 0.0 && scale <= 1.0);
  const int nw = std::max(1, static_cast<int>(std::lround(img.width() * scale)));
  const int nh = std::max(1, static_cast<int>(std::lround(img.height() * scale)));
  if (nw == img.width() && nh == img.height()) return img;
  return resize_box(img, nw, nh);
}

Raster redisplay(const Raster& reduced, int w, int h) {
  if (reduced.width() == w && reduced.height() == h) return reduced;
  return resize_bilinear(reduced, w, h);
}

PlaneF redisplay_luma(const Raster& reduced, int w, int h) {
  if (reduced.width() == w && reduced.height() == h) return luma_plane(reduced);
  PlaneF out(w, h);
  const auto row_w = static_cast<std::size_t>(w);
  auto luma_rows = [&](auto channels) {
    constexpr int kChannels = decltype(channels)::value;
    bilinear_rows<kChannels>(
        reduced, w, h, [&](int y, const double* top, const double* bottom, double ty) {
          float* dst_row = out.v.data() + static_cast<std::size_t>(y) * row_w;
#if AW4A_RESIZE_SIMD
          if (resize_simd_supported()) {
            luma_row_avx2<kChannels>(top, bottom, ty, row_w, dst_row);
            return;
          }
#endif
          luma_row<kChannels>(top, bottom, ty, 0, row_w, row_w, dst_row);
        });
  };
  // An opaque raster's alpha lerps between 255s, which always quantizes
  // back to 255 — so the 3-channel pass sees the same pixels.
  if (reduced.has_alpha()) {
    luma_rows(std::integral_constant<int, 4>{});
  } else {
    luma_rows(std::integral_constant<int, 3>{});
  }
  return out;
}

}  // namespace aw4a::imaging
