// Page renderer: rasterizes a ServedPage to a screenshot.
//
// QFS needs whole-page screenshots before and after each user event, on both
// the original and the transcoded page. This renderer provides those
// screenshots. It is a layout *model*, not a browser: text paragraphs render
// as deterministic glyph stripes, images composite their original rasters,
// JS-controlled widgets draw only when the controlling function is actually
// served, and dropping CSS collapses the styled layout — enough structure for
// SSIM to respond to every functional change the paper applies. Image
// variants are QSS's territory (per-image SSIM), so the screenshot pins every
// served image to its original raster; only a drop shows.
//
// Rendering is split in two: render_inputs() reduces a served view plus its
// dynamic state to the few bits the renderer reads, and rasterize() draws the
// page from those bits alone. Equal inputs therefore give identical rasters,
// which is what lets core::compute_qfs score each distinct screenshot pair
// once per build (DESIGN.md §10, "Page-invariant QFS work").
#pragma once

#include <compare>
#include <cstdint>
#include <set>
#include <vector>

#include "imaging/raster.h"
#include "web/page.h"

namespace aw4a::web {

struct RenderOptions {
  /// Canvas pixels per CSS pixel (0.5 keeps screenshot SSIM fast).
  double canvas_scale = 0.5;
};

/// Dynamic page state produced by user interaction (toggled widgets).
struct RenderState {
  std::set<js::WidgetId> toggled;
};

/// Everything the renderer reads besides the page itself.
struct RenderInputs {
  /// Per-block bits of `blocks`.
  static constexpr std::uint8_t kDropped = 1;     ///< image/ad block: object not served
  static constexpr std::uint8_t kFunctional = 2;  ///< widget block: a served script drives it
  static constexpr std::uint8_t kToggled = 4;     ///< widget block: functional and toggled

  bool css_present = true;    ///< false collapses the styled layout
  bool fonts_present = true;  ///< false switches to fallback text metrics
  /// One entry per WebPage::layout block, in order (text blocks carry 0).
  std::vector<std::uint8_t> blocks;

  friend auto operator<=>(const RenderInputs&, const RenderInputs&) = default;
};

/// True if some served (non-dropped) script still controls `widget`.
bool widget_functional(const ServedPage& served, js::WidgetId widget);

/// The event-independent inputs of a served view: CSS/font presence, drops,
/// and which widgets work. Every kToggled bit is clear. One pass over the
/// page's scripts, however many widget blocks the layout holds.
RenderInputs view_inputs(const ServedPage& served);

/// `view` (from view_inputs on a view of `page`) under dynamic state `state`:
/// sets kToggled exactly on the functional widget blocks `state` toggles.
RenderInputs with_state(RenderInputs view, const WebPage& page, const RenderState& state);

/// Shorthand: with_state(view_inputs(served), *served.page, state).
RenderInputs render_inputs(const ServedPage& served, const RenderState& state = {});

/// Draws `page` as `inputs` describe it (`inputs` must come from a view of
/// `page`). Reads nothing else, so equal inputs give identical rasters.
imaging::Raster rasterize(const WebPage& page, const RenderInputs& inputs,
                          const RenderOptions& options = {});

/// Renders the page under the given serving decisions and dynamic state:
/// rasterize(*served.page, render_inputs(served, state), options).
imaging::Raster render_page(const ServedPage& served, const RenderState& state = {},
                            const RenderOptions& options = {});

}  // namespace aw4a::web
