#include "core/ultra_low.h"

#include "util/error.h"
#include "web/markup.h"

namespace aw4a::core {
namespace {

TranscodeResult finish(web::ServedPage served, Bytes original_bytes, LadderCache& ladders,
                       const QualityWeights& weights, bool measure_qfs, const char* algorithm,
                       const obs::RequestContext& ctx, double elapsed) {
  TranscodeResult result;
  result.served = std::move(served);
  result.result_bytes = result.served.transfer_size();
  // Ultra tiers are constructions, not target searches: the tier's own size
  // is its target, and it is met by definition.
  result.target_bytes = result.result_bytes;
  result.met_target = result.result_bytes <= original_bytes;
  result.quality =
      evaluate_quality(result.served, weights, measure_qfs, &ladders.qfs_memo(), ctx);
  result.algorithm = algorithm;
  result.elapsed_seconds = elapsed;
  return result;
}

}  // namespace

TranscodeResult build_text_only(const web::WebPage& page, LadderCache& ladders,
                                const Stage1Options& stage1, const QualityWeights& weights,
                                bool measure_qfs, const obs::RequestContext& ctx) {
  AW4A_EXPECTS(ladders.options().placeholder_rung);
  AW4A_SPAN(ctx, "ultra.text_only");
  const double started = ctx.now();

  web::ServedPage served = web::serve_original(page);
  // Stage-1's lossless wins (minify, WebP, font subsetting) apply at any
  // tier; a deadline firing inside it leaves the decisions made so far, the
  // same anytime contract the pipeline uses.
  try {
    apply_stage1(served, ladders, stage1, ctx);
  } catch (const DeadlineExceeded&) {
  }

  for (const web::WebObject& o : page.objects) {
    switch (o.type) {
      case web::ObjectType::kImage:
        if (o.is_ad || o.image == nullptr) {
          // Ads ship nothing at this depth; rasterless inventory images have
          // no asset to placeholder against.
          served.images[o.id] = web::ServedImage{std::nullopt, true};
        } else if (const auto ph = ladders.placeholder_rung(o)) {
          served.images[o.id] = web::ServedImage{*ph, false};
        }
        break;
      case web::ObjectType::kMedia:
      case web::ObjectType::kIframe:
        // No playback, no embeds — neither occupies a layout block, so QFS
        // (which compares rendered interactions) is untouched by the shed.
        served.dropped.insert(o.id);
        break;
      default:
        break;  // html/css/js/fonts stay: the page keeps working
    }
  }

  return finish(std::move(served), page.transfer_size(), ladders, weights, measure_qfs,
                "ultra/text-only", ctx, ctx.now() - started);
}

TranscodeResult build_markup_rewrite(const web::WebPage& page, LadderCache& ladders,
                                     const QualityWeights& weights, bool measure_qfs,
                                     const obs::RequestContext& ctx) {
  AW4A_SPAN(ctx, "ultra.markup_rewrite");
  const double started = ctx.now();
  ctx.check("ultra.markup_rewrite");

  web::ServedPage served = web::serve_original(page);
  web::apply_markup_rewrite(served, ladders.options());

  return finish(std::move(served), page.transfer_size(), ladders, weights, measure_qfs,
                "ultra/markup-rewrite", ctx, ctx.now() - started);
}

}  // namespace aw4a::core
