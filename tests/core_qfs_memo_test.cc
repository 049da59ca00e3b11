// The QFS memo (DESIGN.md §10, "Page-invariant QFS work"): compute_qfs keys
// each bot event's screenshot SSIM on the render inputs of its two shots and
// renders only on a miss. Pinned here, with every comparison bitwise:
//   (a) memoized QFS equals the pre-memo computation — a test-local copy of
//       the renderer and compute_qfs as they were before the renderer split —
//       for every kind of served view, with one memo shared per page;
//   (b) equal render inputs give identical rasters, the rasterizer matches
//       the pre-split renderer, and each single decision the renderer reads
//       changes the inputs;
//   (c) every tier of a QFS-on build_tiers (HBS+Huffman, HBS+rANS+ultra,
//       Grid Search) carries the pre-memo quality of its served page;
//   (d) the memo's counters: a repeated evaluation renders nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/adjustable_js.h"
#include "core/hbs.h"
#include "core/pipeline.h"
#include "core/quality.h"
#include "core/stage1.h"
#include "core/ultra_low.h"
#include "dataset/corpus.h"
#include "imaging/resize.h"
#include "imaging/ssim.h"
#include "util/rng.h"
#include "web/bot.h"
#include "web/render.h"

namespace aw4a::core {
namespace {

using imaging::Pixel;
using imaging::Raster;
using web::LayoutBlock;
using web::RenderInputs;
using web::ServedPage;

// --- The renderer and compute_qfs before the split, kept verbatim in
// behaviour: every screenshot re-derives CSS/font presence and walks every
// script per widget block, and every event renders two fresh screenshots. ---
namespace legacy {

struct Canvas {
  Raster img;
  double scale;

  int sx(int css) const { return static_cast<int>(std::lround(css * scale)); }
  void rect(const web::Rect& r, Pixel p) {
    img.fill_rect(sx(r.x), sx(r.y), sx(r.w), sx(r.h), p);
  }
  void outline(const web::Rect& r, Pixel p) {
    const int t = std::max(1, sx(2));
    img.fill_rect(sx(r.x), sx(r.y), sx(r.w), t, p);
    img.fill_rect(sx(r.x), sx(r.y + r.h) - t, sx(r.w), t, p);
    img.fill_rect(sx(r.x), sx(r.y), t, sx(r.h), p);
    img.fill_rect(sx(r.x + r.w) - t, sx(r.y), t, sx(r.h), p);
  }
};

void draw_text_block(Canvas& canvas, const LayoutBlock& block, bool fonts_present) {
  Rng rng(0xABCD0000u ^ block.style_seed);
  const Pixel ink = fonts_present ? Pixel{45, 45, 50, 255} : Pixel{85, 85, 95, 255};
  const int line_pitch = 9;
  const int line_h = 4;
  const int x_shift = fonts_present ? 0 : 1;
  for (int y = block.rect.y + 2; y + line_h <= block.rect.y + block.rect.h; y += line_pitch) {
    int x = block.rect.x + x_shift;
    const int x_end = block.rect.x + block.rect.w;
    while (x < x_end) {
      const int word = static_cast<int>(rng.uniform_int(8, 30));
      const int gap = static_cast<int>(rng.uniform_int(3, 7));
      canvas.rect({x, y, std::min(word, x_end - x), line_h}, ink);
      x += word + gap;
    }
    if (rng.bernoulli(0.25)) y += line_pitch;
  }
}

void draw_image_block(Canvas& canvas, const ServedPage& served, const LayoutBlock& block) {
  const web::WebObject* object = served.page->find(block.object_id);
  const bool dropped = object == nullptr || served.is_dropped(block.object_id);
  if (dropped) {
    canvas.rect(block.rect, Pixel{236, 236, 238, 255});
    canvas.outline(block.rect, Pixel{200, 200, 204, 255});
    return;
  }
  if (object->image == nullptr) {
    const auto tint = static_cast<std::uint8_t>(120 + (object->id % 80));
    canvas.rect(block.rect, Pixel{tint, static_cast<std::uint8_t>(tint / 2 + 60), 120, 255});
    return;
  }
  Raster shown = object->image->original;
  if (const auto it = served.images.find(block.object_id); it != served.images.end()) {
    if (it->second.variant && !it->second.variant->is_original) {
      shown = imaging::render_variant(*object->image, *it->second.variant);
    }
  }
  const int w = std::max(1, canvas.sx(block.rect.w));
  const int h = std::max(1, canvas.sx(block.rect.h));
  Raster scaled = imaging::resize_bilinear(shown, w, h);
  canvas.img.composite(scaled, canvas.sx(block.rect.x), canvas.sx(block.rect.y));
}

bool widget_functional(const ServedPage& served, js::WidgetId widget) {
  for (const auto& object : served.page->objects) {
    if (object.type != web::ObjectType::kJs || object.script == nullptr) continue;
    if (served.is_dropped(object.id)) continue;
    for (const auto& f : object.script->functions) {
      if (f.visual_widget == widget && served.function_live(object.id, f.id)) return true;
    }
  }
  return false;
}

void draw_widget_block(Canvas& canvas, const ServedPage& served, const web::RenderState& state,
                       const LayoutBlock& block) {
  if (!legacy::widget_functional(served, block.widget)) {
    canvas.outline(block.rect, Pixel{210, 210, 214, 255});
    return;
  }
  const bool toggled = state.toggled.count(block.widget) > 0;
  const Pixel fill = toggled ? Pixel{235, 140, 52, 255} : Pixel{66, 110, 180, 255};
  canvas.rect(block.rect, fill);
  canvas.rect({block.rect.x + 6, block.rect.y + block.rect.h / 2 - 2,
               std::max(4, block.rect.w * 2 / 3), 4},
              Pixel{255, 255, 255, 255});
}

void draw_ad_block(Canvas& canvas, const ServedPage& served, const LayoutBlock& block) {
  if (served.is_dropped(block.object_id)) return;
  canvas.rect(block.rect, Pixel{252, 242, 212, 255});
  canvas.outline(block.rect, Pixel{216, 186, 110, 255});
  canvas.rect({block.rect.x + 8, block.rect.y + block.rect.h / 3, block.rect.w / 2, 5},
              Pixel{150, 120, 60, 255});
}

Raster render_page(const ServedPage& served, const web::RenderState& state,
                   const web::RenderOptions& options = {}) {
  const web::WebPage& page = *served.page;
  Canvas canvas{Raster(std::max(1, static_cast<int>(page.viewport_w * options.canvas_scale)),
                       std::max(1, static_cast<int>(page.page_height * options.canvas_scale)),
                       Pixel{255, 255, 255, 255}),
                options.canvas_scale};
  bool css_present = false;
  bool fonts_present = false;
  bool css_exists = false;
  bool fonts_exist = false;
  for (const auto& object : page.objects) {
    if (object.type == web::ObjectType::kCss) {
      css_exists = true;
      css_present |= !served.is_dropped(object.id);
    }
    if (object.type == web::ObjectType::kFont) {
      fonts_exist = true;
      fonts_present |= !served.is_dropped(object.id);
    }
  }
  if (!css_exists) css_present = true;
  if (!fonts_exist) fonts_present = true;
  for (const LayoutBlock& original_block : page.layout) {
    LayoutBlock block = original_block;
    if (!css_present) {
      block.rect.x = 4;
      block.rect.w = std::max(16, page.viewport_w / 2);
    }
    switch (block.kind) {
      case LayoutBlock::Kind::kText:
        draw_text_block(canvas, block, fonts_present);
        break;
      case LayoutBlock::Kind::kImage:
        draw_image_block(canvas, served, block);
        break;
      case LayoutBlock::Kind::kWidget:
        draw_widget_block(canvas, served, state, block);
        break;
      case LayoutBlock::Kind::kAdSlot:
        draw_ad_block(canvas, served, block);
        break;
    }
  }
  return std::move(canvas.img);
}

double compute_qfs(const ServedPage& served) {
  const ServedPage original = web::serve_original(*served.page);
  ServedPage functional_view = served;
  functional_view.images.clear();
  if (functional_view.scripts.empty() && functional_view.dropped.empty()) return 1.0;
  const auto events = web::enumerate_events(*served.page);
  if (events.empty()) return 1.0;
  double total = 0.0;
  for (const auto& event : events) {
    const web::RenderState state_orig = web::state_after_event(original, event);
    const web::RenderState state_served = web::state_after_event(functional_view, event);
    total += imaging::ssim(legacy::render_page(original, state_orig),
                           legacy::render_page(functional_view, state_served));
  }
  return total / static_cast<double>(events.size());
}

}  // namespace legacy

web::WebPage rich_page(std::uint64_t seed, double mb = 0.4) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = seed, .rich = true});
  Rng rng(seed);
  return gen.make_page(rng, from_mb(mb), gen.global_profile());
}

ServedPage drop_all(const web::WebPage& page, web::ObjectType type, bool ads_only = false) {
  ServedPage served = web::serve_original(page);
  for (const auto& o : page.objects) {
    if (o.type == type && (!ads_only || o.is_ad)) served.dropped.insert(o.id);
  }
  return served;
}

imaging::LadderOptions ultra_ladder_options() {
  DeveloperConfig config;
  config.ultra_low.text_only = true;
  config.ultra_low.markup_rewrite = true;
  return Aw4aPipeline(config).ladder_options();
}

/// Every kind of served view the pipeline and the analyses produce.
std::vector<std::pair<std::string, ServedPage>> served_variants(const web::WebPage& page,
                                                                LadderCache& ladders) {
  std::vector<std::pair<std::string, ServedPage>> out;
  out.emplace_back("original", web::serve_original(page));

  ServedPage muzeel = web::serve_original(page);
  apply_muzeel(muzeel);
  out.emplace_back("muzeel", muzeel);

  ServedPage adjustable = web::serve_original(page);
  apply_adjustable_js(adjustable, page.transfer_size() * 85 / 100);
  out.emplace_back("adjustable-js", adjustable);

  out.emplace_back("css-drop", drop_all(page, web::ObjectType::kCss));
  out.emplace_back("font-drop", drop_all(page, web::ObjectType::kFont));
  out.emplace_back("ad-drop", drop_all(page, web::ObjectType::kImage, /*ads_only=*/true));
  out.emplace_back("image-drop", drop_all(page, web::ObjectType::kImage));
  out.emplace_back("script-drop", drop_all(page, web::ObjectType::kJs));

  ServedPage one_script = web::serve_original(page);
  for (const auto& o : page.objects) {
    if (o.type == web::ObjectType::kJs) {
      one_script.dropped.insert(o.id);
      break;
    }
  }
  out.emplace_back("one-script-drop", one_script);

  ServedPage muzeel_css = muzeel;
  for (const auto& o : page.objects) {
    if (o.type == web::ObjectType::kCss) muzeel_css.dropped.insert(o.id);
  }
  out.emplace_back("muzeel+css-drop", muzeel_css);

  ServedPage stage1 = web::serve_original(page);
  apply_stage1(stage1, ladders);
  out.emplace_back("stage1", stage1);

  out.emplace_back("text-only", build_text_only(page, ladders, {}, {}, false).served);
  out.emplace_back("markup-rewrite", build_markup_rewrite(page, ladders, {}, false).served);
  return out;
}

constexpr std::uint64_t kSeeds[] = {3, 5, 8, 9, 11, 17, 23, 42};

// (a) ------------------------------------------------------------------------

TEST(QfsMemo, MatchesThePreMemoQfsOnEveryServedVariant) {
  std::size_t events_seen = 0;
  for (const std::uint64_t seed : kSeeds) {
    const web::WebPage page = rich_page(seed);
    LadderCache ladders(ultra_ladder_options());
    QfsMemo& memo = ladders.qfs_memo();
    const auto variants = served_variants(page, ladders);
    for (const auto& [name, served] : variants) {
      EXPECT_EQ(compute_qfs(served, memo), legacy::compute_qfs(served))
          << "seed " << seed << " variant " << name;
      // The call-local memo is the same computation.
      EXPECT_EQ(compute_qfs(served), legacy::compute_qfs(served))
          << "seed " << seed << " variant " << name;
    }
    // A second pass over the same views is answered from the memo alone.
    const std::size_t renders = memo.renders();
    for (const auto& [name, served] : variants) {
      EXPECT_EQ(compute_qfs(served, memo), legacy::compute_qfs(served))
          << "seed " << seed << " variant " << name << " (memoized)";
    }
    EXPECT_EQ(memo.renders(), renders) << "seed " << seed;
    EXPECT_GT(memo.hits(), 0u) << "seed " << seed;
    events_seen += web::enumerate_events(page).size();
  }
  EXPECT_GT(events_seen, 0u) << "no seed exercises the bot";
}

TEST(QfsMemo, RebindsToANewPage) {
  const web::WebPage a = rich_page(5);
  const web::WebPage b = rich_page(8);
  QfsMemo memo;
  const ServedPage a_css = drop_all(a, web::ObjectType::kCss);
  const ServedPage b_css = drop_all(b, web::ObjectType::kCss);
  EXPECT_EQ(compute_qfs(a_css, memo), legacy::compute_qfs(a_css));
  EXPECT_EQ(compute_qfs(b_css, memo), legacy::compute_qfs(b_css));
  EXPECT_EQ(compute_qfs(a_css, memo), legacy::compute_qfs(a_css));
}

// (b) ------------------------------------------------------------------------

TEST(RenderInputs, RasterizerMatchesThePreSplitRenderer) {
  for (const std::uint64_t seed : kSeeds) {
    const web::WebPage page = rich_page(seed);
    LadderCache ladders(ultra_ladder_options());
    for (auto [name, served] : served_variants(page, ladders)) {
      served.images.clear();  // the screenshot pins images (QSS scores variants)
      for (const auto& event : web::enumerate_events(page)) {
        const web::RenderState state = web::state_after_event(served, event);
        EXPECT_EQ(imaging::mean_abs_diff(web::render_page(served, state),
                                         legacy::render_page(served, state)),
                  0.0)
            << "seed " << seed << " variant " << name;
      }
      EXPECT_EQ(imaging::mean_abs_diff(web::render_page(served), legacy::render_page(served, {})),
                0.0)
          << "seed " << seed << " variant " << name;
    }
  }
}

TEST(RenderInputs, EqualInputsGiveIdenticalRasters) {
  const web::WebPage page = rich_page(8);
  LadderCache ladders(ultra_ladder_options());
  const auto variants = served_variants(page, ladders);
  std::vector<std::pair<RenderInputs, Raster>> seen;
  std::size_t repeats = 0;
  for (const auto& [name, served] : variants) {
    for (const auto& event : web::enumerate_events(page)) {
      const RenderInputs inputs =
          web::render_inputs(served, web::state_after_event(served, event));
      const Raster shot = web::rasterize(page, inputs);
      for (const auto& [other_inputs, other_shot] : seen) {
        if (other_inputs != inputs) continue;
        ++repeats;
        EXPECT_EQ(imaging::mean_abs_diff(shot, other_shot), 0.0) << name;
      }
      seen.emplace_back(inputs, shot);
    }
  }
  EXPECT_GT(repeats, 0u) << "no two views shared inputs";

  // Image variants and drops the renderer never shows leave the inputs (and
  // so the raster) of the original.
  ServedPage variants_only = web::serve_original(page);
  for (const auto& [name, served] : variants) {
    if (name == "stage1") variants_only.images = served.images;
  }
  ASSERT_TRUE(std::any_of(variants_only.images.begin(), variants_only.images.end(),
                          [](const auto& entry) {
                            return entry.second.variant && !entry.second.variant->is_original;
                          }))
      << "stage-1 transcoded no image; change the seed";
  for (const auto& o : page.objects) {
    if (o.type == web::ObjectType::kMedia || o.type == web::ObjectType::kIframe) {
      variants_only.dropped.insert(o.id);
    }
  }
  const ServedPage original = web::serve_original(page);
  EXPECT_EQ(web::render_inputs(variants_only), web::render_inputs(original));
  EXPECT_EQ(imaging::mean_abs_diff(web::render_page(variants_only), web::render_page(original)),
            0.0);
}

TEST(RenderInputs, EachDecisionTheRendererReadsChangesTheInputs) {
  const web::WebPage page = rich_page(8);
  const ServedPage original = web::serve_original(page);
  const RenderInputs base = web::render_inputs(original);
  const Raster base_shot = web::rasterize(page, base);
  ASSERT_EQ(base.blocks.size(), page.layout.size());

  const RenderInputs no_css = web::render_inputs(drop_all(page, web::ObjectType::kCss));
  EXPECT_NE(no_css, base);
  EXPECT_FALSE(no_css.css_present);
  EXPECT_EQ(no_css.blocks, base.blocks);
  EXPECT_GT(imaging::mean_abs_diff(web::rasterize(page, no_css), base_shot), 0.0);

  const RenderInputs no_fonts = web::render_inputs(drop_all(page, web::ObjectType::kFont));
  EXPECT_NE(no_fonts, base);
  EXPECT_FALSE(no_fonts.fonts_present);
  EXPECT_EQ(no_fonts.blocks, base.blocks);
  EXPECT_GT(imaging::mean_abs_diff(web::rasterize(page, no_fonts), base_shot), 0.0);

  std::size_t flipped = 0;
  for (std::size_t i = 0; i < page.layout.size(); ++i) {
    const LayoutBlock& block = page.layout[i];
    RenderInputs expected = base;
    RenderInputs got;
    if (block.kind == LayoutBlock::Kind::kImage || block.kind == LayoutBlock::Kind::kAdSlot) {
      ServedPage served = web::serve_original(page);
      served.dropped.insert(block.object_id);
      got = web::render_inputs(served);
      expected.blocks[i] |= RenderInputs::kDropped;
    } else if (block.kind == LayoutBlock::Kind::kWidget) {
      ASSERT_TRUE(base.blocks[i] & RenderInputs::kFunctional);
      web::RenderState state;
      state.toggled.insert(block.widget);
      got = web::render_inputs(original, state);
      // Every block driven by the same widget toggles with it.
      for (std::size_t j = 0; j < page.layout.size(); ++j) {
        if (page.layout[j].kind == LayoutBlock::Kind::kWidget &&
            page.layout[j].widget == block.widget) {
          expected.blocks[j] |= RenderInputs::kToggled;
        }
      }
    } else {
      continue;
    }
    EXPECT_NE(got, base) << "block " << i;
    EXPECT_EQ(got, expected) << "block " << i;
    EXPECT_GT(imaging::mean_abs_diff(web::rasterize(page, got), base_shot), 0.0)
        << "block " << i;
    ++flipped;
  }
  EXPECT_GT(flipped, 0u);

  // Killing a widget's scripts clears its functional bit (and a toggle on a
  // dead widget sets nothing: a dead widget draws the same either way).
  const ServedPage no_js = drop_all(page, web::ObjectType::kJs);
  std::size_t widgets = 0;
  for (std::size_t i = 0; i < page.layout.size(); ++i) {
    if (page.layout[i].kind != LayoutBlock::Kind::kWidget) continue;
    ++widgets;
    web::RenderState state;
    state.toggled.insert(page.layout[i].widget);
    const RenderInputs dead = web::render_inputs(no_js, state);
    EXPECT_EQ(dead.blocks[i], 0) << "block " << i;
    EXPECT_EQ(web::widget_functional(no_js, page.layout[i].widget), false);
    EXPECT_EQ(legacy::widget_functional(original, page.layout[i].widget),
              web::widget_functional(original, page.layout[i].widget));
  }
  EXPECT_GT(widgets, 0u) << "page has no widgets; change the seed";
}

// (c) ------------------------------------------------------------------------

DeveloperConfig qfs_config(const std::string& name) {
  DeveloperConfig config;  // QFS on, as by default
  if (name == "hbs+rans+ultra") {
    config.entropy_backend = imaging::EntropyBackend::kRans;
    config.ultra_low.text_only = true;
    config.ultra_low.markup_rewrite = true;
  } else if (name == "grid") {
    config.stage2 = DeveloperConfig::Stage2::kGridSearch;
    config.grid_timeout_seconds = 120.0;
  }
  return config;
}

TEST(QfsMemo, BuildTiersCarryThePreMemoQualityOfEveryTier) {
  std::size_t functional_losses = 0;
  for (const std::string name : {"hbs+huffman", "hbs+rans+ultra", "grid"}) {
    const DeveloperConfig config = qfs_config(name);
    ASSERT_TRUE(config.measure_qfs);
    for (const std::uint64_t seed : {5, 8}) {
      const web::WebPage page = rich_page(seed);
      const std::vector<Tier> tiers = Aw4aPipeline(config).build_tiers(page);
      for (std::size_t t = 0; t < tiers.size(); ++t) {
        const TranscodeResult& r = tiers[t].result;
        const double qss = compute_qss(r.served);
        const double qfs = legacy::compute_qfs(r.served);
        EXPECT_EQ(r.quality.qss, qss) << name << " seed " << seed << " tier " << t;
        EXPECT_EQ(r.quality.qfs, qfs) << name << " seed " << seed << " tier " << t;
        EXPECT_EQ(r.quality.quality, overall_quality(qss, qfs, config.quality_weights))
            << name << " seed " << seed << " tier " << t;
        if (qfs < 1.0) ++functional_losses;
      }
    }
  }
  EXPECT_GT(functional_losses, 0u) << "no tier reached the renderer";
}

// (d) ------------------------------------------------------------------------

TEST(QfsMemo, CountsRendersAndHits) {
  const web::WebPage page = rich_page(8);
  const auto events = web::enumerate_events(page);
  ASSERT_FALSE(events.empty());
  QfsMemo memo;

  // An untouched page never reaches the renderer.
  static_cast<void>(evaluate_quality(web::serve_original(page), {}, true, &memo));
  EXPECT_EQ(memo.renders(), 0u);
  EXPECT_EQ(memo.hits(), 0u);

  // A miss renders both shots of each distinct (original, served) pair.
  const ServedPage no_css = drop_all(page, web::ObjectType::kCss);
  std::set<std::pair<RenderInputs, RenderInputs>> pairs;
  const ServedPage original = web::serve_original(page);
  for (const auto& event : events) {
    pairs.emplace(web::render_inputs(original, web::state_after_event(original, event)),
                  web::render_inputs(no_css, web::state_after_event(no_css, event)));
  }
  const QualityReport first = evaluate_quality(no_css, {}, true, &memo);
  EXPECT_EQ(memo.renders(), 2 * pairs.size());
  EXPECT_EQ(memo.hits(), events.size() - pairs.size());

  // A different served page with equal inputs (the same drop, plus media
  // drops no layout block shows) renders nothing.
  const std::size_t renders = memo.renders();
  const std::size_t hits = memo.hits();
  ServedPage equal_inputs = no_css;
  for (const auto& o : page.objects) {
    if (o.type == web::ObjectType::kMedia) equal_inputs.dropped.insert(o.id);
  }
  const QualityReport second = evaluate_quality(equal_inputs, {}, true, &memo);
  EXPECT_EQ(memo.renders(), renders);
  EXPECT_EQ(memo.hits(), hits + events.size());
  EXPECT_EQ(second.qfs, first.qfs);

  // The build's cache owns one memo that every evaluation of the build
  // shares: a second transcode to the same target renders nothing. (HBS is
  // the solver that reaches the renderer: Stage-1 and Grid Search change
  // images only, which QFS pins.)
  const Aw4aPipeline pipeline;
  LadderCache ladders(pipeline.ladder_options(), nullptr, pipeline.ladder_families());
  const Bytes target = page.transfer_size() / 2;
  const TranscodeResult a = pipeline.transcode_to_target(page, target, ladders);
  const std::size_t build_renders = ladders.qfs_memo().renders();
  EXPECT_GT(build_renders, 0u);
  const TranscodeResult b = pipeline.transcode_to_target(page, target, ladders);
  EXPECT_EQ(ladders.qfs_memo().renders(), build_renders);
  EXPECT_EQ(a.quality.qfs, b.quality.qfs);
  EXPECT_EQ(a.quality.quality, b.quality.quality);
}

}  // namespace
}  // namespace aw4a::core
