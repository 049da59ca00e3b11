// The AW4A optimization problem (paper §6.1, Eqs. 3-4) and shared optimizer
// plumbing: the generic weighted-quality objective, the result record every
// solver returns, and the per-page ladder cache that memoizes image variant
// enumeration across solver passes.
#pragma once

#include <map>
#include <span>
#include <string>

#include "core/quality.h"
#include "imaging/variants.h"
#include "obs/context.h"
#include "web/page.h"

namespace aw4a::core {

/// One term of Eq. 3: an object's developer-assigned weight and its quality.
struct ObjectiveTerm {
  double weight = 1.0;
  double quality = 1.0;
};

/// Eq. 3: sum(w_i * Q_i) / sum(w_i). Requires a positive weight sum.
double weighted_quality(std::span<const ObjectiveTerm> terms);

/// What every solver returns.
struct TranscodeResult {
  web::ServedPage served;
  bool met_target = false;
  Bytes result_bytes = 0;
  Bytes target_bytes = 0;
  QualityReport quality;
  double elapsed_seconds = 0.0;
  std::string algorithm;
  /// True when a Stage-2 failure or an exhausted deadline made the pipeline
  /// fall back to its Stage-1 (anytime) result; `degradation_reason` says why.
  bool degraded = false;
  std::string degradation_reason;

  double reduction_factor() const {
    return result_bytes == 0
               ? 0.0
               : static_cast<double>(served.page->transfer_size()) /
                     static_cast<double>(result_bytes);
  }
};

/// Memoized VariantLadders for the rich image objects of one page. Solvers
/// share one cache so Grid Search and RBR pay enumeration cost once.
///
/// With an AssetLadderSource attached (the serving asset store), the first
/// ladder_for of each object additionally probes the source by asset
/// *content* and adopts the shared memo on a hit, so an asset another site
/// already built skips enumeration entirely. The probe happens once per
/// object (hit or miss); a nullptr result just leaves the ladder lazy.
///
/// `families` is the solver's move set (Aw4aPipeline::ladder_families): every
/// ladder, prewarm and asset-source probe measures that set eagerly, and any
/// other family only if a caller reads it.
class LadderCache {
 public:
  explicit LadderCache(imaging::LadderOptions options = {},
                       imaging::AssetLadderSource* assets = nullptr,
                       imaging::LadderFamilies families = {});

  /// Ladder for an image object (requires object.image != nullptr). The
  /// context feeds the asset-source probe (spans, deadline union) — callers
  /// without one get the probe without tracing.
  imaging::VariantLadder& ladder_for(
      const web::WebObject& object,
      const obs::RequestContext& ctx = obs::RequestContext::none());

  /// Enumerates every rich image's variant families (the cache's families,
  /// via VariantLadder::warm()) across ctx.workers() threads, so the serial
  /// solvers that follow hit a fully memoized cache.
  /// Safe because each asset's ladder is independent: ladders are *created*
  /// serially up front, then each worker fills exactly one ladder. Enumeration
  /// failures (injected codec faults, an expired ctx deadline) are swallowed —
  /// nothing is memoized for the failed pass, and the serial path
  /// re-attempts it under the pipeline's normal retry/degradation machinery,
  /// so results and error handling are identical to a cold serial run.
  /// Emits a "prewarm" span, plus the workers' encode/ssim spans (the trace
  /// buffer and sink are thread-safe). The context's deadline/cancellation
  /// is polled between ladders: once the budget is gone no further ladder
  /// starts, and the overrun itself is swallowed here (best-effort) — the
  /// serial path re-raises it with tier context.
  void prewarm(const web::WebPage& page, const obs::RequestContext& ctx);

  /// Worker-count shorthand for callers without a context (benches, tests).
  void prewarm(const web::WebPage& page, unsigned workers) {
    prewarm(page, obs::RequestContext().with_workers(workers));
  }

  /// The placeholder rung of an image object (DESIGN.md §14), or nullopt when
  /// the options don't enable it. Lives here rather than on VariantLadder
  /// because the alt text is a *page-object* property while ladders are keyed
  /// by asset content (the same logo shared across sites can carry different
  /// alt text on each); the rung is pure arithmetic, so nothing is memoized
  /// and asset-store sharing is unaffected.
  std::optional<imaging::ImageVariant> placeholder_rung(const web::WebObject& object) const;

  const imaging::LadderOptions& options() const { return options_; }

  /// QFS scores of this cache's page: every evaluate_quality of one build
  /// shares them, and they live exactly as long as the ladders.
  QfsMemo& qfs_memo() { return qfs_memo_; }

 private:
  struct Slot {
    explicit Slot(imaging::VariantLadder l) : ladder(std::move(l)) {}
    imaging::VariantLadder ladder;
    bool probed = false;  ///< asset source consulted (prewarm or ladder_for)
  };

  /// Creates (or finds) the slot without probing the asset source — prewarm
  /// separates creation (serial) from probing/enumeration (parallel).
  Slot& slot_for(const web::WebObject& object);

  imaging::LadderOptions options_;
  imaging::AssetLadderSource* assets_ = nullptr;
  imaging::LadderFamilies families_;
  std::map<std::uint64_t, Slot> ladders_;
  QfsMemo qfs_memo_;
};

/// Rich image objects of a page (those carrying rasters), in page order.
std::vector<const web::WebObject*> rich_images(const web::WebPage& page);

}  // namespace aw4a::core
