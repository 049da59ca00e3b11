#include "imaging/raster.h"

#include <algorithm>
#include <cmath>

namespace aw4a::imaging {

Raster::Raster(int width, int height, Pixel fill)
    : width_(width),
      height_(height),
      data_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height), fill) {
  AW4A_EXPECTS(width >= 0 && height >= 0);
}

bool Raster::has_alpha() const {
  // No early exit: opaque rasters, the common case, are scanned to the end
  // anyway, and the branch-free AND-reduce vectorizes.
  std::uint8_t all = 255;
  for (const Pixel& p : data_) all &= p.a;
  return all != 255;
}

void Raster::fill_rect(int x, int y, int w, int h, Pixel p) {
  const int x0 = std::max(0, x);
  const int y0 = std::max(0, y);
  const int x1 = std::min(width_, x + w);
  const int y1 = std::min(height_, y + h);
  for (int yy = y0; yy < y1; ++yy) {
    for (int xx = x0; xx < x1; ++xx) {
      data_[static_cast<std::size_t>(yy) * width_ + xx] = p;
    }
  }
}

void Raster::composite(const Raster& src, int x, int y) {
  const int x0 = std::max(0, x);
  const int y0 = std::max(0, y);
  const int x1 = std::min(width_, x + src.width());
  const int y1 = std::min(height_, y + src.height());
  for (int yy = y0; yy < y1; ++yy) {
    for (int xx = x0; xx < x1; ++xx) {
      const Pixel s = src.at(xx - x, yy - y);
      Pixel& d = data_[static_cast<std::size_t>(yy) * width_ + xx];
      const int a = s.a;
      const int ia = 255 - a;
      d.r = static_cast<std::uint8_t>((s.r * a + d.r * ia + 127) / 255);
      d.g = static_cast<std::uint8_t>((s.g * a + d.g * ia + 127) / 255);
      d.b = static_cast<std::uint8_t>((s.b * a + d.b * ia + 127) / 255);
      d.a = static_cast<std::uint8_t>(std::max<int>(d.a, a));
    }
  }
}

PlaneF luma_plane(const Raster& img) {
  PlaneF out(img.width(), img.height());
  const auto& px = img.pixels();
  for (std::size_t i = 0; i < px.size(); ++i) out.v[i] = luma_of(px[i]);
  return out;
}

PlaneF channel_plane(const Raster& img, int channel) {
  AW4A_EXPECTS(channel >= 0 && channel <= 3);
  PlaneF out(img.width(), img.height());
  const auto& px = img.pixels();
  for (std::size_t i = 0; i < px.size(); ++i) {
    const Pixel& p = px[i];
    const std::uint8_t c = channel == 0 ? p.r : channel == 1 ? p.g : channel == 2 ? p.b : p.a;
    out.v[i] = static_cast<float>(c);
  }
  return out;
}

double mean_abs_diff(const Raster& a, const Raster& b) {
  AW4A_EXPECTS(a.width() == b.width() && a.height() == b.height());
  if (a.pixel_count() == 0) return 0.0;
  double sum = 0.0;
  const auto& pa = a.pixels();
  const auto& pb = b.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    sum += std::abs(int(pa[i].r) - int(pb[i].r)) + std::abs(int(pa[i].g) - int(pb[i].g)) +
           std::abs(int(pa[i].b) - int(pb[i].b));
  }
  return sum / (3.0 * static_cast<double>(pa.size()));
}

}  // namespace aw4a::imaging
