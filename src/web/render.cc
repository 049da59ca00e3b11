#include "web/render.h"

#include <algorithm>
#include <cmath>

#include "imaging/resize.h"
#include "util/error.h"
#include "util/rng.h"

namespace aw4a::web {
namespace {

using imaging::Pixel;
using imaging::Raster;

struct Canvas {
  Raster img;
  double scale;

  int sx(int css) const { return static_cast<int>(std::lround(css * scale)); }

  void rect(const Rect& r, Pixel p) { img.fill_rect(sx(r.x), sx(r.y), sx(r.w), sx(r.h), p); }

  void outline(const Rect& r, Pixel p) {
    const int t = std::max(1, sx(2));
    img.fill_rect(sx(r.x), sx(r.y), sx(r.w), t, p);
    img.fill_rect(sx(r.x), sx(r.y + r.h) - t, sx(r.w), t, p);
    img.fill_rect(sx(r.x), sx(r.y), t, sx(r.h), p);
    img.fill_rect(sx(r.x + r.w) - t, sx(r.y), t, sx(r.h), p);
  }
};

// Deterministic text texture: glyph-stripe rows whose run lengths derive from
// the block's style seed, so the same block renders identically across runs
// and differs between blocks.
void draw_text_block(Canvas& canvas, const LayoutBlock& block, bool fonts_present) {
  Rng rng(0xABCD0000u ^ block.style_seed);
  const Pixel ink = fonts_present ? Pixel{45, 45, 50, 255} : Pixel{85, 85, 95, 255};
  const int line_pitch = 9;
  const int line_h = 4;
  const int x_shift = fonts_present ? 0 : 1;  // fallback font metrics shift
  for (int y = block.rect.y + 2; y + line_h <= block.rect.y + block.rect.h; y += line_pitch) {
    int x = block.rect.x + x_shift;
    const int x_end = block.rect.x + block.rect.w;
    while (x < x_end) {
      const int word = static_cast<int>(rng.uniform_int(8, 30));
      const int gap = static_cast<int>(rng.uniform_int(3, 7));
      canvas.rect({x, y, std::min(word, x_end - x), line_h}, ink);
      x += word + gap;
    }
    // Last line of a paragraph is short.
    if (rng.bernoulli(0.25)) y += line_pitch;
  }
}

void draw_image_block(Canvas& canvas, const WebPage& page, const LayoutBlock& block,
                      bool dropped) {
  if (dropped) {
    // Broken-image placeholder.
    canvas.rect(block.rect, Pixel{236, 236, 238, 255});
    canvas.outline(block.rect, Pixel{200, 200, 204, 255});
    return;
  }
  const WebObject* object = page.find(block.object_id);
  if (object->image == nullptr) {
    // Inventory page (no raster): flat proxy tinted by the object id.
    const auto tint = static_cast<std::uint8_t>(120 + (object->id % 80));
    canvas.rect(block.rect, Pixel{tint, static_cast<std::uint8_t>(tint / 2 + 60), 120, 255});
    return;
  }
  const int w = std::max(1, canvas.sx(block.rect.w));
  const int h = std::max(1, canvas.sx(block.rect.h));
  Raster scaled = imaging::resize_bilinear(object->image->original, w, h);
  canvas.img.composite(scaled, canvas.sx(block.rect.x), canvas.sx(block.rect.y));
}

void draw_widget_block(Canvas& canvas, const LayoutBlock& block, std::uint8_t bits) {
  if (!(bits & RenderInputs::kFunctional)) {
    // Dead widget: an inert outline where the control used to be.
    canvas.outline(block.rect, Pixel{210, 210, 214, 255});
    return;
  }
  const bool toggled = (bits & RenderInputs::kToggled) != 0;
  const Pixel fill = toggled ? Pixel{235, 140, 52, 255} : Pixel{66, 110, 180, 255};
  canvas.rect(block.rect, fill);
  // Label stripe.
  canvas.rect({block.rect.x + 6, block.rect.y + block.rect.h / 2 - 2,
               std::max(4, block.rect.w * 2 / 3), 4},
              Pixel{255, 255, 255, 255});
}

void draw_ad_block(Canvas& canvas, const LayoutBlock& block, bool dropped) {
  if (dropped) return;  // blocked ad leaves white space
  canvas.rect(block.rect, Pixel{252, 242, 212, 255});
  canvas.outline(block.rect, Pixel{216, 186, 110, 255});
  canvas.rect({block.rect.x + 8, block.rect.y + block.rect.h / 3, block.rect.w / 2, 5},
              Pixel{150, 120, 60, 255});
}

/// Every widget some served script function still drives.
std::set<js::WidgetId> functional_widgets(const ServedPage& served) {
  AW4A_EXPECTS(served.page != nullptr);
  std::set<js::WidgetId> widgets;
  for (const auto& object : served.page->objects) {
    if (object.type != ObjectType::kJs || object.script == nullptr) continue;
    if (served.is_dropped(object.id)) continue;
    for (const auto& f : object.script->functions) {
      if (served.function_live(object.id, f.id)) widgets.insert(f.visual_widget);
    }
  }
  return widgets;
}

}  // namespace

bool widget_functional(const ServedPage& served, js::WidgetId widget) {
  return functional_widgets(served).count(widget) > 0;
}

RenderInputs view_inputs(const ServedPage& served) {
  AW4A_EXPECTS(served.page != nullptr);
  const WebPage& page = *served.page;
  RenderInputs inputs;

  // CSS gone => unstyled document; fonts gone => fallback text metrics.
  // Pages without CSS render as-is, pages without web fonts use system fonts.
  bool css_present = false;
  bool fonts_present = false;
  bool css_exists = false;
  bool fonts_exist = false;
  for (const auto& object : page.objects) {
    if (object.type == ObjectType::kCss) {
      css_exists = true;
      css_present |= !served.is_dropped(object.id);
    }
    if (object.type == ObjectType::kFont) {
      fonts_exist = true;
      fonts_present |= !served.is_dropped(object.id);
    }
  }
  inputs.css_present = css_present || !css_exists;
  inputs.fonts_present = fonts_present || !fonts_exist;

  const std::set<js::WidgetId> widgets = functional_widgets(served);
  inputs.blocks.reserve(page.layout.size());
  for (const LayoutBlock& block : page.layout) {
    std::uint8_t bits = 0;
    switch (block.kind) {
      case LayoutBlock::Kind::kText:
        break;
      case LayoutBlock::Kind::kImage:
        if (page.find(block.object_id) == nullptr || served.is_dropped(block.object_id)) {
          bits = RenderInputs::kDropped;
        }
        break;
      case LayoutBlock::Kind::kWidget:
        if (widgets.count(block.widget) > 0) bits = RenderInputs::kFunctional;
        break;
      case LayoutBlock::Kind::kAdSlot:
        if (served.is_dropped(block.object_id)) bits = RenderInputs::kDropped;
        break;
    }
    inputs.blocks.push_back(bits);
  }
  return inputs;
}

RenderInputs with_state(RenderInputs view, const WebPage& page, const RenderState& state) {
  AW4A_EXPECTS(view.blocks.size() == page.layout.size());
  for (std::size_t i = 0; i < page.layout.size(); ++i) {
    const LayoutBlock& block = page.layout[i];
    std::uint8_t& bits = view.blocks[i];
    if (block.kind != LayoutBlock::Kind::kWidget) continue;
    // A dead widget draws the same outline whether or not it was toggled, so
    // the bit is set only where it changes pixels.
    const bool toggled =
        (bits & RenderInputs::kFunctional) && state.toggled.count(block.widget) > 0;
    bits = toggled ? (bits | RenderInputs::kToggled)
                   : static_cast<std::uint8_t>(bits & ~RenderInputs::kToggled);
  }
  return view;
}

RenderInputs render_inputs(const ServedPage& served, const RenderState& state) {
  AW4A_EXPECTS(served.page != nullptr);
  return with_state(view_inputs(served), *served.page, state);
}

imaging::Raster rasterize(const WebPage& page, const RenderInputs& inputs,
                          const RenderOptions& options) {
  AW4A_EXPECTS(options.canvas_scale > 0.0 && options.canvas_scale <= 2.0);
  AW4A_EXPECTS(inputs.blocks.size() == page.layout.size());

  Canvas canvas{Raster(std::max(1, static_cast<int>(page.viewport_w * options.canvas_scale)),
                       std::max(1, static_cast<int>(page.page_height * options.canvas_scale)),
                       Pixel{255, 255, 255, 255}),
                options.canvas_scale};

  for (std::size_t i = 0; i < page.layout.size(); ++i) {
    LayoutBlock block = page.layout[i];
    const std::uint8_t bits = inputs.blocks[i];
    if (!inputs.css_present) {
      // Unstyled document: everything collapses to a left-aligned column at
      // half width.
      block.rect.x = 4;
      block.rect.w = std::max(16, page.viewport_w / 2);
    }
    switch (block.kind) {
      case LayoutBlock::Kind::kText:
        draw_text_block(canvas, block, inputs.fonts_present);
        break;
      case LayoutBlock::Kind::kImage:
        draw_image_block(canvas, page, block, (bits & RenderInputs::kDropped) != 0);
        break;
      case LayoutBlock::Kind::kWidget:
        draw_widget_block(canvas, block, bits);
        break;
      case LayoutBlock::Kind::kAdSlot:
        draw_ad_block(canvas, block, (bits & RenderInputs::kDropped) != 0);
        break;
    }
  }
  return std::move(canvas.img);
}

imaging::Raster render_page(const ServedPage& served, const RenderState& state,
                            const RenderOptions& options) {
  AW4A_EXPECTS(served.page != nullptr);
  return rasterize(*served.page, render_inputs(served, state), options);
}

}  // namespace aw4a::web
