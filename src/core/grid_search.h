// Grid Search (paper §7.1): brute force over the discretized quality space.
//
// The SSIM interval [Qt, 1] is discretized into `levels` uniformly spaced
// values; for each image, each level maps to the cheapest variant (any
// format, resolution or quality reduction) whose SSIM clears the level. The
// search then enumerates all combinations, maximizing QSS (the area-weighted
// mean SSIM, Eq. 5) subject to the page-size constraint. Worst case O(v^n),
// so the implementation adds branch-and-bound pruning and a wall-clock
// timeout — the paper itself ran Grid Search with a 3 h timeout and reports
// it timing out on 40/171 runs.
#pragma once

#include <algorithm>

#include "core/objective.h"

namespace aw4a::core {

struct GridSearchOptions {
  /// Qt: minimum per-image SSIM.
  double quality_threshold = 0.9;
  /// Number of discretized SSIM levels in [Qt, 1] (paper: 11).
  int levels = 11;
  /// Wall-clock budget; 0 disables the limit.
  double timeout_seconds = 10.0;
  /// Prune with QSS upper bounds and byte lower bounds. The paper's Grid
  /// Search enumerates every combination (which is why it times out on image
  ///-heavy pages); pruning is this implementation's improvement. Disable to
  /// reproduce the paper's runtime behaviour (Fig. 9b); on timeout the best
  /// feasible combination found so far is served, exactly as a deadline-
  /// bounded brute force would.
  bool branch_and_bound = true;
};

/// The ladder floor (LadderOptions::min_ssim) Grid Search needs at threshold
/// `qt`: each level takes the cheapest of *every* quality rung that clears it,
/// not a prefix, and SSIM is non-monotone in codec quality (Fig. 8), so its
/// quality families are measured 0.15 below Qt.
inline double grid_ladder_min_ssim(double qt) { return std::max(0.0, qt - 0.15); }

struct GridSearchOutcome {
  bool met_target = false;
  bool timed_out = false;
  Bytes bytes_after = 0;
  double qss = 1.0;
  /// Search-tree nodes explored (for the perf benches).
  std::uint64_t nodes_explored = 0;
};

/// Optimizes the page's rich images on top of the decisions already in
/// `served`; writes the best feasible combination found into `served`.
/// If no combination meets the target within Qt, `served` is left with the
/// lowest-byte combination and met_target is false.
/// Anytime under a context deadline: the DFS treats `ctx.expired()` exactly
/// like its own wall-clock timeout — it stops and serves the best feasible
/// combination found so far (timed_out is set either way), so one request
/// deadline bounds Grid Search without per-call timeout plumbing.
GridSearchOutcome grid_search(web::ServedPage& served, Bytes target_bytes,
                              LadderCache& ladders, const GridSearchOptions& options = {},
                              const obs::RequestContext& ctx = obs::RequestContext::none());

}  // namespace aw4a::core
