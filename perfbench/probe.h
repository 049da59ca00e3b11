// The layer probe of a traced run: the benchmark builds every site's ladder
// itself through core::Aw4aPipeline::build_tiers with an obs::TraceBuffer on
// the context, so the spans the library already emits (build_tiers, stage1,
// stage2.*, prewarm, ultra.*, encode.*, ssim, serving.asset.*) give the
// per-build core and imaging breakdown. The ladders it builds are the ones
// core::answer_page_request is timed on, and are checked against the
// origin's answers.
#pragma once

#include <vector>

#include "core/pipeline.h"
#include "inputs.h"

namespace perfbench {

struct Probe {
  /// Per site, the ladder of the probe's last build round.
  std::vector<std::vector<aw4a::core::Tier>> ladders;
  // Per-build means over the reported round, in milliseconds: the build_tiers
  // span, inclusive span totals by family, and build_tiers time covered by
  // no other span.
  double build_tiers_ms = 0.0;
  double stage1_ms = 0.0;
  double stage2_ms = 0.0;
  double prewarm_ms = 0.0;
  double ultra_ms = 0.0;
  double encode_ms = 0.0;
  double ssim_ms = 0.0;
  double prepare_ms = 0.0;
  double unattributed_ms = 0.0;
  // Per-build imaging work counts of the reported round (exact).
  double encodes = 0.0;
  double prepares = 0.0;
  double encoded_bytes = 0.0;
  /// core::evaluate_quality (QSS + QFS) per tier of the ladders, ms.
  double quality_ms = 0.0;
};

/// Builds every site in index order against one fresh serving::AssetStore,
/// `rounds` times (round 2 adopts round 1's memos, as a content-push rebuild
/// does), and reports the spans and work counts of the last round.
Probe run_probe(const Inputs& inputs, int rounds);

}  // namespace perfbench
