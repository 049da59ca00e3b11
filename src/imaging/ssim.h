// Structural Similarity Index (Wang et al. 2004), the quality metric behind
// QSS/QFS in the paper. Computed on BT.601 luma with an 8x8 sliding window
// (stride configurable for speed), using the standard stabilization constants
// C1=(0.01*255)^2, C2=(0.03*255)^2.
//
// Implementation: summed-area tables (integral images) of the mean-centered
// planes make every window O(1) regardless of stride, so dense (stride-1)
// SSIM costs the same per window as strided. Mean-centering keeps the tables
// numerically tame (the raw second-moment tables of a large plane would eat
// the variance's low bits); equivalence with the direct O(window^2) sum is
// pinned to <= 1e-9 by tests against ssim_reference below.
//
// The tables cost ~5 multiply-adds per *pixel* to build, paid whether or not
// the windows ever look at most pixels. At the default stride of 4 the
// windows only touch 1/16th of the positions, and directly re-summing every
// window is cheaper than building tables over the full plane — measured
// 0.78ms direct vs 1.06ms integral on the 448x336 bench plane. ssim()
// therefore dispatches on estimated work (ssim_uses_integral below): sparse
// window grids take the direct path, dense grids the integral one.
#pragma once

#include <vector>

#include "imaging/raster.h"

namespace aw4a::imaging {

struct SsimOptions {
  int window = 8;  ///< square window side
  int stride = 4;  ///< window step; 1 = full dense SSIM, >1 trades accuracy
};

/// Mean SSIM of two same-sized luma planes, in [-1, 1] (≈[0,1] for natural
/// content; exactly 1 for identical inputs).
double ssim(const PlaneF& a, const PlaneF& b, const SsimOptions& opts = {});

/// Convenience: SSIM over the luma of two same-sized rasters.
double ssim(const Raster& a, const Raster& b, const SsimOptions& opts = {});

/// One side of many ssim() calls against the same plane: a ladder scores
/// every rung against its original. Owns the original's luma and, for the
/// direct (per-window) path, each window's Σa and Σa², summed once here, so
/// score() accumulates only Σb, Σb² and Σab. score(b) is bit-identical to
/// ssim(luma(), b, opts): the cached sums are the same serial chains the
/// direct path would run, and the integral path (dense grids) simply calls
/// ssim().
class SsimReference {
 public:
  explicit SsimReference(PlaneF a, const SsimOptions& opts = {});

  const PlaneF& luma() const { return a_; }

  /// ssim(luma(), b, opts), bit for bit.
  double score(const PlaneF& b) const;

 private:
  PlaneF a_;
  SsimOptions opts_;
  bool integral_ = false;
  std::vector<double> sum_a_;   ///< Σa per direct-path window, visit order
  std::vector<double> sum_aa_;  ///< Σa² per direct-path window, visit order
};

/// The retained pre-integral-image implementation: every window re-summed
/// directly, O(window^2) per window. The equivalence oracle for the test
/// suite, the baseline for bench_perf_pipeline — and, since the dispatch
/// heuristic landed, what ssim() itself runs for sparse window grids.
double ssim_reference(const PlaneF& a, const PlaneF& b, const SsimOptions& opts = {});

/// The dispatch predicate of ssim(): true when the window grid is dense
/// enough that building summed-area tables over the whole plane beats
/// re-summing each window directly. Exposed so tests can pin the decision
/// on both sides of the crossover (dense stride-1 -> integral, default
/// stride-4 -> direct).
bool ssim_uses_integral(int width, int height, const SsimOptions& opts = {});

/// Multi-scale SSIM (Wang et al. 2003): SSIM evaluated at `scales` dyadic
/// resolutions and combined with the standard (renormalized) exponents.
/// More tolerant of high-frequency loss the eye cannot resolve — the kind of
/// "newer quality metric" the paper's §6.2 says can be plugged in.
/// Downsample buffers are reused across scales (no per-scale reallocation).
double ms_ssim(const PlaneF& a, const PlaneF& b, int scales = 3);
double ms_ssim(const Raster& a, const Raster& b, int scales = 3);

/// The 2x2 box-filter downsample between MS-SSIM scales, writing into a
/// caller-owned buffer (resized as needed; capacity is reused). Exposed so
/// tests can rebuild the per-scale pyramid independently of ms_ssim's
/// internal buffer reuse.
void downsample2_into(const PlaneF& in, PlaneF& out);

/// The pluggable image-quality metric of the optimization framework.
enum class QualityMetric { kSsim, kMsSsim };

const char* to_string(QualityMetric m);

/// Dispatches to the chosen metric. (VariantLadder scores its rungs through
/// an SsimReference of the original instead, paying the original's luma and
/// window sums once per ladder.)
double compare_images(const Raster& a, const Raster& b, QualityMetric metric);

}  // namespace aw4a::imaging
