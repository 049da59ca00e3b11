#include "core/quality.h"

#include "imaging/ssim.h"
#include "util/error.h"

namespace aw4a::core {

double compute_qss(const web::ServedPage& served) {
  AW4A_EXPECTS(served.page != nullptr);
  double weighted = 0.0;
  double total_area = 0.0;
  for (const auto& object : served.page->objects) {
    if (object.type != web::ObjectType::kImage) continue;
    // Eq. 3's w_i: the CSS footprint when known (byte size on inventory
    // pages), scaled by the developer-assigned priority (§5.4).
    const double area = (object.image != nullptr
                             ? object.image->display_area()
                             : static_cast<double>(object.transfer_bytes)) *
                        object.developer_weight;
    double s = 1.0;
    if (served.is_dropped(object.id)) {
      s = 0.0;
    } else if (const auto it = served.images.find(object.id); it != served.images.end()) {
      if (it->second.variant) s = it->second.variant->ssim;
    }
    weighted += area * s;
    total_area += area;
  }
  if (total_area == 0.0) return 1.0;
  return weighted / total_area;
}

void QfsMemo::bind(const web::WebPage& page) {
  if (page_ == &page) return;
  page_ = nullptr;
  ssim_.clear();
  // With images pinned to their originals (see compute_qfs) the original
  // page's post-event screenshots depend only on the page and the event.
  const web::ServedPage original = web::serve_original(page);
  const web::RenderInputs view = web::view_inputs(original);
  events_ = web::enumerate_events(page);
  original_.clear();
  original_.reserve(events_.size());
  for (const web::BotEvent& event : events_) {
    original_.push_back(web::with_state(view, page, web::state_after_event(original, event)));
  }
  page_ = &page;
}

double compute_qfs(const web::ServedPage& served, QfsMemo& memo) {
  AW4A_EXPECTS(served.page != nullptr);
  const web::WebPage& page = *served.page;

  // QFS isolates *functionality*: compare post-event screenshots with image
  // decisions pinned to the originals, so static image degradation (QSS's
  // territory) never leaks in. This is why image-only reductions score QFS
  // exactly 1 (paper §7.2). Script/CSS/font damage — dead widgets, missing
  // repaints, collapsed styling — does show, both statically and per event.
  web::ServedPage functional_view = served;
  functional_view.images.clear();
  const bool page_untouched = functional_view.scripts.empty() &&
                              functional_view.dropped.empty();
  if (page_untouched) return 1.0;

  memo.bind(page);
  if (memo.events_.empty()) return 1.0;

  const web::RenderInputs view = web::view_inputs(functional_view);
  double total = 0.0;
  for (std::size_t i = 0; i < memo.events_.size(); ++i) {
    const web::RenderState state = web::state_after_event(functional_view, memo.events_[i]);
    auto key = std::make_pair(memo.original_[i], web::with_state(view, page, state));
    if (const auto it = memo.ssim_.find(key); it != memo.ssim_.end()) {
      ++memo.hits_;
      total += it->second;
      continue;
    }
    const double s = imaging::ssim(web::rasterize(page, key.first, memo.render_),
                                   web::rasterize(page, key.second, memo.render_));
    memo.renders_ += 2;
    memo.ssim_.emplace(std::move(key), s);
    total += s;
  }
  return total / static_cast<double>(memo.events_.size());
}

double compute_qfs(const web::ServedPage& served, const web::RenderOptions& render) {
  QfsMemo memo(render);
  return compute_qfs(served, memo);
}

double overall_quality(double qss, double qfs, const QualityWeights& weights) {
  AW4A_EXPECTS(weights.qss >= 0.0 && weights.qfs >= 0.0);
  AW4A_EXPECTS(weights.qss + weights.qfs > 0.0);
  return (weights.qss * qss + weights.qfs * qfs) / (weights.qss + weights.qfs);
}

QualityReport evaluate_quality(const web::ServedPage& served, const QualityWeights& weights,
                               bool measure_qfs, QfsMemo* memo,
                               const obs::RequestContext& ctx) {
  QualityReport report;
  report.qss = compute_qss(served);
  if (measure_qfs) {
    AW4A_SPAN(ctx, "quality.qfs");
    report.qfs = memo != nullptr ? compute_qfs(served, *memo) : compute_qfs(served);
  }
  report.quality = overall_quality(report.qss, report.qfs, weights);
  return report;
}

}  // namespace aw4a::core
