// The ultra-low tiers below the image ladder (DESIGN.md §14).
//
// The image tiers bottom out at the lowest encode rung; these two tiers keep
// going, following the related work the ROADMAP names:
//
//   text-only       every image becomes its alt-text placeholder rung,
//                   media and iframes are shed, scripts stay — the page keeps
//                   working (QFS = 1 by construction) but ships no pixels.
//
//   markup-rewrite  the whole page collapses into ONE self-contained AWML
//                   blob (web/markup.h): visible prose, placeholders, inert
//                   widgets, inlined critical CSS. The deepest rung — the
//                   blob's gzip size is the entire page transfer.
//
// Both are deterministic constructions, not searches: the solvers' job at
// these depths is already done by the rung definition itself. They reuse the
// pipeline's Stage-1 and quality machinery so their TranscodeResults are
// directly comparable to (and servable exactly like) image-tier results.
#pragma once

#include "core/objective.h"
#include "core/stage1.h"

namespace aw4a::core {

/// Builds the text-only tier. Stage-1 runs first (its lossless wins apply at
/// any tier); a Stage-1 deadline is absorbed exactly as the pipeline absorbs
/// it. Requires `ladders.options().placeholder_rung` (checked) — the rung
/// space must include placeholders for this tier to exist.
TranscodeResult build_text_only(const web::WebPage& page, LadderCache& ladders,
                                const Stage1Options& stage1, const QualityWeights& weights,
                                bool measure_qfs,
                                const obs::RequestContext& ctx = obs::RequestContext::none());

/// Builds the markup-rewrite tier: one AWML blob plus per-object decisions
/// consistent with its contents (web::apply_markup_rewrite). The blob follows
/// `ladders.options()`; the tier's QFS shares `ladders.qfs_memo()` with the
/// rest of the build. Encodes nothing.
TranscodeResult build_markup_rewrite(const web::WebPage& page, LadderCache& ladders,
                                     const QualityWeights& weights, bool measure_qfs,
                                     const obs::RequestContext& ctx = obs::RequestContext::none());

}  // namespace aw4a::core
