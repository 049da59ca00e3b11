#include "probe.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "core/quality.h"
#include "imaging/variants.h"
#include "obs/context.h"
#include "serving/asset_store.h"
#include "stats.h"

namespace perfbench {
namespace {

using namespace aw4a;

bool starts_with(std::string_view name, std::string_view prefix) {
  return name.substr(0, prefix.size()) == prefix;
}

struct BuildSpans {
  double build_tiers = 0.0;
  double stage1 = 0.0;
  double stage2 = 0.0;
  double prewarm = 0.0;
  double ultra = 0.0;
  double encode = 0.0;
  double ssim = 0.0;
  double prepare = 0.0;
  double unattributed = 0.0;
};

/// Sums one build's spans by family. Parallel prewarm workers may emit
/// overlapping spans, so unattributed time is the root span minus the union
/// of every other span's interval clipped to the root.
BuildSpans summarize(const std::vector<obs::Span>& spans) {
  BuildSpans out;
  double root_start = 0.0;
  double root_end = 0.0;
  std::vector<std::pair<double, double>> covered;
  for (const obs::Span& span : spans) {
    const std::string_view name = span.name;
    const double d = span.duration_seconds;
    if (name == "build_tiers") {
      out.build_tiers += d;
      root_start = span.start_seconds;
      root_end = span.start_seconds + d;
      continue;
    }
    covered.emplace_back(span.start_seconds, span.start_seconds + d);
    if (name == "stage1") {
      out.stage1 += d;
    } else if (starts_with(name, "stage2.")) {
      out.stage2 += d;
    } else if (name == "prewarm") {
      out.prewarm += d;
    } else if (starts_with(name, "ultra.")) {
      out.ultra += d;
    } else if (name == "encode.prepare") {
      out.prepare += d;
    } else if (starts_with(name, "encode.")) {
      out.encode += d;
    } else if (name == "ssim") {
      out.ssim += d;
    }
  }
  std::sort(covered.begin(), covered.end());
  double union_seconds = 0.0;
  double reach = root_start;
  for (auto [start, end] : covered) {
    start = std::max(start, reach);
    end = std::min(end, root_end);
    if (end > start) {
      union_seconds += end - start;
      reach = end;
    }
  }
  out.unattributed = std::max(0.0, out.build_tiers - union_seconds);
  return out;
}

}  // namespace

Probe run_probe(const Inputs& inputs, int rounds) {
  Probe probe;
  probe.ladders.resize(inputs.sites.size());
  serving::AssetStore store;
  BuildSpans total;
  imaging::BuildWorkStats work_before;
  for (int round = 0; round < rounds; ++round) {
    const bool reported = round + 1 == rounds;
    if (reported) work_before = imaging::build_work_stats();
    for (std::size_t site = 0; site < inputs.sites.size(); ++site) {
      const serving::OriginSite& origin_site = inputs.sites[site];
      obs::TraceBuffer trace;
      const obs::RequestContext ctx = obs::RequestContext().with_trace(&trace);
      probe.ladders[site] =
          core::Aw4aPipeline(origin_site.config).build_tiers(origin_site.page, ctx, &store);
      if (!reported) continue;
      const BuildSpans spans = summarize(trace.snapshot());
      total.build_tiers += spans.build_tiers;
      total.stage1 += spans.stage1;
      total.stage2 += spans.stage2;
      total.prewarm += spans.prewarm;
      total.ultra += spans.ultra;
      total.encode += spans.encode;
      total.ssim += spans.ssim;
      total.prepare += spans.prepare;
      total.unattributed += spans.unattributed;
    }
  }
  const imaging::BuildWorkStats work_after = imaging::build_work_stats();
  const auto builds = static_cast<double>(inputs.sites.size());
  const auto per_build_ms = [&](double seconds) { return 1e3 * seconds / builds; };
  probe.build_tiers_ms = per_build_ms(total.build_tiers);
  probe.stage1_ms = per_build_ms(total.stage1);
  probe.stage2_ms = per_build_ms(total.stage2);
  probe.prewarm_ms = per_build_ms(total.prewarm);
  probe.ultra_ms = per_build_ms(total.ultra);
  probe.encode_ms = per_build_ms(total.encode);
  probe.ssim_ms = per_build_ms(total.ssim);
  probe.prepare_ms = per_build_ms(total.prepare);
  probe.unattributed_ms = per_build_ms(total.unattributed);
  probe.encodes = static_cast<double>(work_after.encodes - work_before.encodes) / builds;
  probe.prepares = static_cast<double>(work_after.prepares - work_before.prepares) / builds;
  probe.encoded_bytes =
      static_cast<double>(work_after.encoded_bytes - work_before.encoded_bytes) / builds;

  // QFS (the web/js interaction bot) plus QSS on every tier actually served.
  Mean quality;
  for (std::size_t site = 0; site < inputs.sites.size(); ++site) {
    for (const core::Tier& tier : probe.ladders[site]) {
      const auto started = Clock::now();
      static_cast<void>(core::evaluate_quality(
          tier.result.served, inputs.sites[site].config.quality_weights, true));
      quality.add(1e3 * seconds_between(started, Clock::now()));
    }
  }
  probe.quality_ms = quality.mean();
  return probe;
}

}  // namespace perfbench
