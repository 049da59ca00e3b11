#include "baselines/baseline.h"

#include "util/error.h"
#include "web/bot.h"
#include "web/render.h"

namespace aw4a::baselines {

void cascade_injected_drops(web::ServedPage& served) {
  AW4A_EXPECTS(served.page != nullptr);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& object : served.page->objects) {
      if (object.injected_by == 0 || served.is_dropped(object.id)) continue;
      if (served.is_dropped(object.injected_by)) {
        served.dropped.insert(object.id);
        changed = true;
      }
    }
  }
}

void finalize(BaselineResult& result) {
  AW4A_EXPECTS(result.served.page != nullptr);
  cascade_injected_drops(result.served);
  const web::WebPage& page = *result.served.page;
  result.result_bytes = result.served.transfer_size();
  const Bytes original = page.transfer_size();
  result.reduction_pct =
      original == 0 ? 0.0
                    : (1.0 - static_cast<double>(result.result_bytes) /
                                 static_cast<double>(original)) *
                          100.0;

  // "Broken": the page had interactive widgets and none survive.
  const web::RenderInputs inputs = web::view_inputs(result.served);
  bool had_widget = false;
  bool any_alive = false;
  for (std::size_t i = 0; i < page.layout.size(); ++i) {
    if (page.layout[i].kind != web::LayoutBlock::Kind::kWidget) continue;
    had_widget = true;
    if (inputs.blocks[i] & web::RenderInputs::kFunctional) {
      any_alive = true;
      break;
    }
  }
  result.page_broken = had_widget && !any_alive;
}

}  // namespace aw4a::baselines
