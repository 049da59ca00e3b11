// Page quality metrics: QSS and QFS (paper §6.2, after QLUE).
//
// QSS (QLUE Similarity Score) is the area-weighted mean SSIM of the page's
// images (Eq. 5): changes to large images hurt more. QFS (QLUE Functionality
// Score) triggers every event on the original and transcoded page with the
// interaction bot, screenshots both, and averages the whole-page SSIMs — a
// transcoded page retaining all (visually observable) functionality scores 1.
#pragma once

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "obs/context.h"
#include "web/bot.h"
#include "web/page.h"
#include "web/render.h"

namespace aw4a::core {

/// Relative weights of QSS and QFS in the overall page quality. The paper
/// leaves the split to the developer (a news site may weigh looks higher).
struct QualityWeights {
  double qss = 0.5;
  double qfs = 0.5;
};

/// Eq. 5: sum(a_i * s_i) / sum(a_i) over image objects. Dropped images score
/// s_i = 0; inventory images (no raster) count as unchanged unless dropped.
/// Pages with no images score 1.
double compute_qss(const web::ServedPage& served);

/// Memo of QFS's per-event screenshot SSIMs for the views of one page
/// (DESIGN.md §10, "Page-invariant QFS work"). Each score is keyed on the
/// render inputs of its two screenshots (original, served), so a view whose
/// post-event inputs repeat one already scored renders nothing. The original
/// page's per-event inputs are computed once, when the memo first sees the
/// page. Scores only, never rasters. One LadderCache — one page, one build —
/// owns one memo; a memo handed a different page starts over. Not
/// thread-safe (like the LadderCache that owns it).
class QfsMemo {
 public:
  explicit QfsMemo(web::RenderOptions render = {}) : render_(render) {}

  /// Screenshots rasterized so far (two per distinct pair scored).
  std::size_t renders() const { return renders_; }
  /// Per-event scores answered from the memo.
  std::size_t hits() const { return hits_; }

 private:
  friend double compute_qfs(const web::ServedPage& served, QfsMemo& memo);

  /// Points the memo at `page`, dropping every score of another page.
  void bind(const web::WebPage& page);

  web::RenderOptions render_;
  const web::WebPage* page_ = nullptr;
  std::vector<web::BotEvent> events_;
  std::vector<web::RenderInputs> original_;  ///< per event, original page
  std::map<std::pair<web::RenderInputs, web::RenderInputs>, double> ssim_;
  std::size_t renders_ = 0;
  std::size_t hits_ = 0;
};

/// Bot-driven functionality similarity. For each event on the *original*
/// page, render post-event screenshots of original and served page and take
/// SSIM; QFS is the mean over events (pages without events score 1). Each
/// distinct screenshot pair is rendered and scored once per memo.
double compute_qfs(const web::ServedPage& served, QfsMemo& memo);

/// Same score through a call-local memo.
double compute_qfs(const web::ServedPage& served, const web::RenderOptions& render = {});

/// Weighted combination, normalized by the weight sum.
double overall_quality(double qss, double qfs, const QualityWeights& weights = {});

/// Convenience: full quality evaluation of a serving decision.
struct QualityReport {
  double qss = 1.0;
  double qfs = 1.0;
  double quality = 1.0;
};
/// With a memo (a build's LadderCache::qfs_memo()) every evaluation of the
/// build shares QFS scores; without one QFS uses a call-local memo. The QFS
/// work runs under a "quality.qfs" span of `ctx`.
QualityReport evaluate_quality(const web::ServedPage& served, const QualityWeights& weights = {},
                               bool measure_qfs = true, QfsMemo* memo = nullptr,
                               const obs::RequestContext& ctx = obs::RequestContext::none());

}  // namespace aw4a::core
