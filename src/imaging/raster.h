// In-memory RGBA rasters and float planes.
//
// All image processing in AW4A (synthesis, codecs, SSIM, resizing, page
// rendering) happens on these two types. Pixels are 8-bit RGBA, interleaved;
// float planes carry one channel (e.g. luma) for the signal-processing paths.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/bytes.h"
#include "util/error.h"

namespace aw4a::imaging {

struct Pixel {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;
  std::uint8_t a = 255;

  friend bool operator==(const Pixel&, const Pixel&) = default;
};

/// An owned RGBA image.
class Raster {
 public:
  Raster() = default;
  Raster(int width, int height, Pixel fill = {0, 0, 0, 255});

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return width_ == 0 || height_ == 0; }
  std::size_t pixel_count() const {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }

  // Accessors are defined inline: the resize/codec/SSIM hot loops make tens
  // of millions of per-pixel calls, and an out-of-line definition would turn
  // each into a real function call across translation units.
  Pixel& at(int x, int y) {
    AW4A_EXPECTS(x >= 0 && x < width_ && y >= 0 && y < height_);
    return data_[static_cast<std::size_t>(y) * width_ + x];
  }
  const Pixel& at(int x, int y) const {
    AW4A_EXPECTS(x >= 0 && x < width_ && y >= 0 && y < height_);
    return data_[static_cast<std::size_t>(y) * width_ + x];
  }

  /// Clamped access (edge pixels repeat); used by filters near borders.
  const Pixel& at_clamped(int x, int y) const {
    const int cx = std::clamp(x, 0, width_ - 1);
    const int cy = std::clamp(y, 0, height_ - 1);
    return data_[static_cast<std::size_t>(cy) * width_ + cx];
  }

  /// True if any pixel has alpha < 255 (drives the PNG->WebP transparency
  /// rule: JPEG cannot represent these).
  bool has_alpha() const;

  /// Fills an axis-aligned rectangle (clipped to bounds).
  void fill_rect(int x, int y, int w, int h, Pixel p);

  /// Alpha-composites `src` over this raster with its top-left at (x, y).
  void composite(const Raster& src, int x, int y);

  const std::vector<Pixel>& pixels() const { return data_; }
  std::vector<Pixel>& pixels() { return data_; }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<Pixel> data_;
};

/// One float channel.
struct PlaneF {
  int width = 0;
  int height = 0;
  std::vector<float> v;

  PlaneF() = default;
  PlaneF(int w, int h, float fill = 0.0f)
      : width(w), height(h), v(static_cast<std::size_t>(w) * static_cast<std::size_t>(h), fill) {
    AW4A_EXPECTS(w >= 0 && h >= 0);
  }
  float& at(int x, int y) { return v[static_cast<std::size_t>(y) * width + x]; }
  float at(int x, int y) const { return v[static_cast<std::size_t>(y) * width + x]; }
  float at_clamped(int x, int y) const {
    const int cx = std::clamp(x, 0, width - 1);
    const int cy = std::clamp(y, 0, height - 1);
    return v[static_cast<std::size_t>(cy) * width + cx];
  }
};

/// BT.601 luma of one pixel, in [0, 255]. Transparent pixels are composited
/// over white first (what a page background shows through). The single
/// definition behind luma_plane() and redisplay_luma(), so the two cannot
/// round differently.
inline float luma_of(const Pixel& p) {
  const float a = static_cast<float>(p.a) / 255.0f;
  const float r = p.r * a + 255.0f * (1.0f - a);
  const float g = p.g * a + 255.0f * (1.0f - a);
  const float b = p.b * a + 255.0f * (1.0f - a);
  return 0.299f * r + 0.587f * g + 0.114f * b;
}

/// luma_of() over every pixel of an RGBA raster.
PlaneF luma_plane(const Raster& img);

/// Extracts one channel (0=R,1=G,2=B,3=A) as floats in [0,255].
PlaneF channel_plane(const Raster& img, int channel);

/// Mean absolute difference of two same-sized rasters over RGB (ignores
/// alpha); used by tests as a coarse distortion check independent of SSIM.
double mean_abs_diff(const Raster& a, const Raster& b);

}  // namespace aw4a::imaging
