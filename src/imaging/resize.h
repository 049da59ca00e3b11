// Resampling: box downscale (the "resolution reduction" optimization the
// paper's RBR applies) and bilinear upscale (what the browser does when the
// reduced image is displayed at its CSS size). SSIM of a reduced image is
// always measured after redisplay at the original dimensions.
#pragma once

#include "imaging/raster.h"

namespace aw4a::imaging {

/// Box-filter resize to exactly (new_w, new_h). Requires positive dims.
Raster resize_box(const Raster& img, int new_w, int new_h);

/// Bilinear resize to exactly (new_w, new_h). Requires positive dims.
Raster resize_bilinear(const Raster& img, int new_w, int new_h);

/// Downscales by `scale` in (0, 1]; dimensions are rounded, min 1 px.
Raster reduce_resolution(const Raster& img, double scale);

/// Upscales `reduced` back to (w, h) bilinearly — the browser's redisplay.
Raster redisplay(const Raster& reduced, int w, int h);

/// luma_plane(redisplay(reduced, w, h)), bit for bit, without building the
/// full-size RGBA raster: the SSIM input of a reduced-resolution variant.
PlaneF redisplay_luma(const Raster& reduced, int w, int h);

}  // namespace aw4a::imaging
