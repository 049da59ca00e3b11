// Perf-regression bench for the cold-build fast path (PR 3).
//
// Times the three layers the fast path touches, on one rich page with the
// default 4-tier ladder:
//
//   cold build   per-tier fresh LadderCache (the pre-PR build_tiers behavior,
//                reconstructed via the public single-shot API) vs. the shared
//                cross-tier cache, with and without parallel prewarm
//   dense SSIM   integral-image ssim() vs. the retained ssim_reference()
//                at stride 1 and the default stride 4
//   breakdown    prewarm stage vs. solver stage of the shared build
//   QFS on       the default DeveloperConfig (QFS measured) with the shared
//                cache, whose QFS memo every quality evaluation of the build
//                shares; each tier's quality is checked against a fresh
//                evaluation of its served page
//   encode-once  a full JPEG quality ladder encoded single-shot per rung vs.
//                one prepare() + per-rung encode_prepared() (PR 5), with the
//                rungs checked bit-identical
//   rANS A/B     the same ladder under both entropy backends (PR 8): encode
//                and decode wall time per backend plus the payload-byte
//                reduction at equal SSIM (decoded rasters are checked
//                pixel-identical across backends, so "equal SSIM" is exact,
//                not approximate). Exits nonzero if rANS saves < 5% payload
//                bytes or its ladder decode exceeds 1.5x its ladder encode.
//
// Every timed pair is also checked for equivalence: tier bytes/QSS must be
// identical across build modes, and integral SSIM must match the reference
// to 1e-9 — a perf bench that silently changed answers would be worse than
// a slow one.
//
// Writes machine-readable results (stable schema: name, unit, value) to
// BENCH_pipeline.json — or --json=PATH — so later PRs have a trajectory.
//
//   build/bench/bench_perf_pipeline [--kb=600] [--repeat=3] [--workers=4]
//                                   [--json=BENCH_pipeline.json]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "dataset/corpus.h"
#include "imaging/codec.h"
#include "imaging/codec_detail.h"
#include "imaging/ssim.h"
#include "imaging/synth.h"
#include "util/rng.h"

namespace {

using namespace aw4a;

struct BenchOptions {
  double kb = 600.0;
  int repeat = 3;
  unsigned workers = 4;
  std::string json_path = "BENCH_pipeline.json";
};

struct Entry {
  std::string name;
  std::string unit;
  double value = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Best-of-`repeat` wall time of fn(), in milliseconds.
double time_best_ms(int repeat, const std::function<void()>& fn) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double elapsed = seconds_since(start);
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best * 1000.0;
}

struct TierSummary {
  Bytes bytes = 0;
  double qss = 0.0;
  std::string algorithm;
  bool met_target = false;
};

bool same(const std::vector<TierSummary>& a, const std::vector<TierSummary>& b,
          const char* what) {
  if (a.size() != b.size()) {
    std::fprintf(stderr, "FAIL: %s: tier count %zu vs %zu\n", what, a.size(), b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].bytes != b[i].bytes || a[i].qss != b[i].qss ||
        a[i].algorithm != b[i].algorithm || a[i].met_target != b[i].met_target) {
      std::fprintf(stderr,
                   "FAIL: %s: tier %zu diverged (bytes %llu vs %llu, qss %.17g vs %.17g, "
                   "algorithm '%s' vs '%s')\n",
                   what, i, static_cast<unsigned long long>(a[i].bytes),
                   static_cast<unsigned long long>(b[i].bytes), a[i].qss, b[i].qss,
                   a[i].algorithm.c_str(), b[i].algorithm.c_str());
      return false;
    }
  }
  return true;
}

TierSummary summarize(const core::TranscodeResult& result) {
  return TierSummary{result.result_bytes, result.quality.qss, result.algorithm,
                     result.met_target};
}

void write_json(const std::string& path, const std::vector<Entry>& entries) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.6g", entries[i].value);
    out << "  {\"name\": \"" << entries[i].name << "\", \"unit\": \"" << entries[i].unit
        << "\", \"value\": " << value << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--kb=")) {
      options.kb = std::strtod(arg.substr(5).data(), nullptr);
    } else if (arg.starts_with("--repeat=")) {
      options.repeat = static_cast<int>(std::strtol(arg.substr(9).data(), nullptr, 10));
    } else if (arg.starts_with("--workers=")) {
      options.workers =
          static_cast<unsigned>(std::strtoul(arg.substr(10).data(), nullptr, 10));
    } else if (arg.starts_with("--json=")) {
      options.json_path = std::string(arg.substr(7));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  std::printf("# bench_perf_pipeline: %.0f KB rich page, repeat=%d, prewarm workers=%u\n",
              options.kb, options.repeat, options.workers);
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 1729, .rich = true});
  Rng rng(1729);
  const web::WebPage page = gen.make_page(rng, from_kb(options.kb), gen.global_profile());

  core::DeveloperConfig config;
  config.measure_qfs = false;  // isolate the enumeration/solver cost under test
  const core::Aw4aPipeline pipeline(config);
  const Bytes original = page.transfer_size();

  std::vector<Entry> entries;
  bool ok = true;

  // --- Cold tier-ladder build: per-tier fresh cache (pre-PR behavior) vs.
  // shared cross-tier cache vs. shared + prewarm. ---
  std::vector<TierSummary> baseline, shared, prewarmed;
  const double baseline_ms = time_best_ms(options.repeat, [&] {
    baseline.clear();
    for (const double reduction : config.tier_reductions) {
      const Bytes target = static_cast<Bytes>(static_cast<double>(original) / reduction);
      baseline.push_back(summarize(pipeline.transcode_to_target(page, target)));
    }
  });
  const double shared_ms = time_best_ms(options.repeat, [&] {
    shared.clear();
    for (const core::Tier& tier : pipeline.build_tiers(page)) {
      shared.push_back(summarize(tier.result));
    }
  });
  core::DeveloperConfig prewarm_config = config;
  prewarm_config.prewarm_workers = static_cast<int>(options.workers);
  const core::Aw4aPipeline prewarm_pipeline(prewarm_config);
  const double prewarm_build_ms = time_best_ms(options.repeat, [&] {
    prewarmed.clear();
    for (const core::Tier& tier : prewarm_pipeline.build_tiers(page)) {
      prewarmed.push_back(summarize(tier.result));
    }
  });
  ok = same(baseline, shared, "shared-cache build vs per-tier baseline") && ok;
  ok = same(baseline, prewarmed, "prewarmed build_tiers vs per-tier baseline") && ok;

  // Stage breakdown of the shared build: prewarm (all enumeration) vs. the
  // serial solver passes over the warm cache.
  double prewarm_stage_ms = 0.0, solver_stage_ms = 0.0;
  for (int r = 0; r < options.repeat; ++r) {
    core::LadderCache ladders(pipeline.ladder_options());
    auto start = std::chrono::steady_clock::now();
    ladders.prewarm(page, options.workers);
    const double warm = seconds_since(start) * 1000.0;
    start = std::chrono::steady_clock::now();
    for (const double reduction : config.tier_reductions) {
      const Bytes target = static_cast<Bytes>(static_cast<double>(original) / reduction);
      (void)pipeline.transcode_to_target(page, target, ladders);
    }
    const double solve = seconds_since(start) * 1000.0;
    if (r == 0 || warm + solve < prewarm_stage_ms + solver_stage_ms) {
      prewarm_stage_ms = warm;
      solver_stage_ms = solve;
    }
  }

  // The default config measures QFS: the bot's post-event screenshots, scored
  // once per distinct render-input pair through the build's QFS memo.
  const core::DeveloperConfig qfs_config;
  const core::Aw4aPipeline qfs_pipeline(qfs_config);
  std::vector<core::Tier> qfs_tiers;
  const double qfs_build_ms = time_best_ms(options.repeat, [&] {
    qfs_tiers = qfs_pipeline.build_tiers(page);
  });
  for (const core::Tier& tier : qfs_tiers) {
    const core::QualityReport fresh =
        core::evaluate_quality(tier.result.served, qfs_config.quality_weights);
    if (fresh.qfs != tier.result.quality.qfs || fresh.quality != tier.result.quality.quality) {
      std::fprintf(stderr, "FAIL: QFS-on tier %.2fx: build quality %.17g vs fresh %.17g\n",
                   tier.requested_reduction, tier.result.quality.quality, fresh.quality);
      ok = false;
    }
  }

  // Headline: the default build_tiers path (shared cache, prewarm off) vs. the
  // pre-PR per-tier rebuild. The prewarmed time is reported alongside — it wins
  // on multi-core origins but regresses on single-core boxes, where the extra
  // threads only add scheduling overhead, so it is not the headline.
  const double build_speedup = shared_ms == 0.0 ? 0.0 : baseline_ms / shared_ms;
  entries.push_back({"cold_build_tiers_per_tier_cache", "ms", baseline_ms});
  entries.push_back({"cold_build_tiers_shared_cache", "ms", shared_ms});
  entries.push_back({"cold_build_tiers_prewarmed", "ms", prewarm_build_ms});
  entries.push_back({"cold_build_speedup", "x", build_speedup});
  entries.push_back({"cold_build_prewarm_stage", "ms", prewarm_stage_ms});
  entries.push_back({"cold_build_solver_stage", "ms", solver_stage_ms});
  entries.push_back({"cold_build_tiers_qfs", "ms", qfs_build_ms});

  // --- SSIM: integral-image vs. the retained reference, dense and strided,
  // on a JPEG-roundtripped photo (realistic correlated distortion). ---
  Rng img_rng(42);
  const imaging::Raster photo = imaging::synth_image(img_rng, imaging::ImageClass::kPhoto,
                                                     448, 336);
  const imaging::Encoded degraded = imaging::jpeg_encode(photo, 40);
  const imaging::PlaneF luma_a = imaging::luma_plane(photo);
  const imaging::PlaneF luma_b = imaging::luma_plane(degraded.decoded);

  const imaging::SsimOptions dense{8, 1};
  const imaging::SsimOptions strided{8, 4};
  double dense_integral = 0.0, dense_reference = 0.0;
  double strided_integral = 0.0, strided_reference = 0.0;
  const double ssim_dense_ms = time_best_ms(options.repeat, [&] {
    dense_integral = imaging::ssim(luma_a, luma_b, dense);
  });
  const double ssim_dense_ref_ms = time_best_ms(options.repeat, [&] {
    dense_reference = imaging::ssim_reference(luma_a, luma_b, dense);
  });
  const double ssim_strided_ms = time_best_ms(options.repeat, [&] {
    strided_integral = imaging::ssim(luma_a, luma_b, strided);
  });
  const double ssim_strided_ref_ms = time_best_ms(options.repeat, [&] {
    strided_reference = imaging::ssim_reference(luma_a, luma_b, strided);
  });
  const double msssim_ms = time_best_ms(options.repeat, [&] {
    (void)imaging::ms_ssim(luma_a, luma_b);
  });
  if (std::fabs(dense_integral - dense_reference) > 1e-9 ||
      std::fabs(strided_integral - strided_reference) > 1e-9) {
    std::fprintf(stderr, "FAIL: integral SSIM diverged from reference (dense %.17g vs %.17g, "
                 "strided %.17g vs %.17g)\n",
                 dense_integral, dense_reference, strided_integral, strided_reference);
    ok = false;
  }

  const double dense_speedup = ssim_dense_ms == 0.0 ? 0.0 : ssim_dense_ref_ms / ssim_dense_ms;
  entries.push_back({"ssim_dense_integral", "ms", ssim_dense_ms});
  entries.push_back({"ssim_dense_reference", "ms", ssim_dense_ref_ms});
  entries.push_back({"ssim_dense_speedup", "x", dense_speedup});
  entries.push_back({"ssim_strided_integral", "ms", ssim_strided_ms});
  entries.push_back({"ssim_strided_reference", "ms", ssim_strided_ref_ms});
  entries.push_back({"msssim_default", "ms", msssim_ms});

  // --- Encode-once quality ladder: N single-shot encodes vs. one prepare()
  // plus N encode_prepared() rungs, on the same photo. The rungs must be
  // bit-identical (bytes and every decoded pixel) — the whole design rests
  // on quality only touching the post-DCT half of the pipeline. ---
  const std::vector<int> ladder_steps = {92, 85, 75, 65, 55, 45, 35};
  const imaging::Codec& jpeg = imaging::codec_for(imaging::ImageFormat::kJpeg);
  std::vector<imaging::Encoded> single_shot, factored;
  const double ladder_single_ms = time_best_ms(options.repeat, [&] {
    single_shot.clear();
    for (const int q : ladder_steps) single_shot.push_back(jpeg.encode(photo, q));
  });
  const double ladder_factored_ms = time_best_ms(options.repeat, [&] {
    factored.clear();
    const imaging::Codec::PreparedPtr prep = jpeg.prepare(photo);
    for (const int q : ladder_steps) factored.push_back(jpeg.encode_prepared(*prep, q));
  });
  for (std::size_t i = 0; i < ladder_steps.size(); ++i) {
    if (single_shot[i].bytes != factored[i].bytes ||
        single_shot[i].decoded.pixels() != factored[i].decoded.pixels()) {
      std::fprintf(stderr,
                   "FAIL: factored encode diverged from single-shot at q=%d "
                   "(bytes %llu vs %llu)\n",
                   ladder_steps[i], static_cast<unsigned long long>(single_shot[i].bytes),
                   static_cast<unsigned long long>(factored[i].bytes));
      ok = false;
    }
  }
  const double factored_speedup =
      ladder_factored_ms == 0.0 ? 0.0 : ladder_single_ms / ladder_factored_ms;
  entries.push_back({"encode_ladder_single_shot", "ms", ladder_single_ms});
  entries.push_back({"encode_ladder_factored", "ms", ladder_factored_ms});
  entries.push_back({"dct_factored_speedup", "x", factored_speedup});

  // --- rANS entropy backend A/B: the same factored ladder with a real
  // interleaved-rANS payload, plus the decode side of both backends. The
  // Huffman backend has no bitstream (its payload is an analytic cost), so
  // its "decode" is the dequantize+IDCT reconstruction on pre-parsed levels;
  // the rANS decode additionally entropy-parses its payload blob. ---
  std::vector<imaging::Encoded> rans_ladder;
  const double ladder_rans_ms = time_best_ms(options.repeat, [&] {
    rans_ladder.clear();
    const imaging::Codec::PreparedPtr prep = jpeg.prepare(photo);
    for (const int q : ladder_steps) {
      rans_ladder.push_back(
          jpeg.encode_prepared(*prep, q, imaging::EntropyBackend::kRans));
    }
  });

  // Equal SSIM, proven not measured: entropy coding is lossless, so every
  // rung must reconstruct the exact pixels of its Huffman twin.
  double huff_payload = 0.0, rans_payload = 0.0;
  for (std::size_t i = 0; i < ladder_steps.size(); ++i) {
    if (rans_ladder[i].decoded.pixels() != factored[i].decoded.pixels()) {
      std::fprintf(stderr, "FAIL: rANS rung q=%d decoded differently from Huffman\n",
                   ladder_steps[i]);
      ok = false;
    }
    huff_payload += static_cast<double>(factored[i].payload_bytes());
    rans_payload += static_cast<double>(rans_ladder[i].payload_bytes());
  }
  const double rans_reduction =
      huff_payload == 0.0 ? 0.0 : 1.0 - rans_payload / huff_payload;

  // Decode inputs prepared outside the timers: levels for the Huffman path,
  // payload blobs for the rANS path.
  const imaging::detail::LossyParams jpeg_params =
      imaging::detail::lossy_params_for(imaging::ImageFormat::kJpeg);
  const imaging::detail::PreparedLossy prep_lossy =
      imaging::detail::prepare_lossy(photo, jpeg_params);
  std::vector<imaging::detail::DecodedLossy> ladder_levels;
  for (const int q : ladder_steps) {
    ladder_levels.push_back(imaging::detail::quantize_levels(prep_lossy, q, jpeg_params));
  }
  const double decode_huffman_ms = time_best_ms(options.repeat, [&] {
    for (const auto& levels : ladder_levels) {
      (void)imaging::detail::reconstruct_lossy(levels);
    }
  });
  const double decode_rans_ms = time_best_ms(options.repeat, [&] {
    for (const imaging::Encoded& enc : rans_ladder) {
      (void)imaging::lossy_decode(enc.payload);
    }
  });
  // Decode equivalence: the blob round-trips to the encoder's exact levels
  // and pixels.
  for (std::size_t i = 0; i < ladder_steps.size(); ++i) {
    const imaging::detail::DecodedLossy parsed = imaging::detail::rans_parse_payload(
        rans_ladder[i].payload.data(), rans_ladder[i].payload.size());
    if (parsed.luma != ladder_levels[i].luma || parsed.cb != ladder_levels[i].cb ||
        parsed.cr != ladder_levels[i].cr) {
      std::fprintf(stderr, "FAIL: rANS payload q=%d did not round-trip its levels\n",
                   ladder_steps[i]);
      ok = false;
    }
    if (imaging::lossy_decode(rans_ladder[i].payload).pixels() !=
        rans_ladder[i].decoded.pixels()) {
      std::fprintf(stderr, "FAIL: lossy_decode q=%d diverged from Encoded.decoded\n",
                   ladder_steps[i]);
      ok = false;
    }
  }
  if (rans_reduction < 0.05) {
    std::fprintf(stderr, "FAIL: rANS payload reduction %.1f%% below the 5%% floor\n",
                 rans_reduction * 100.0);
    ok = false;
  }
  if (decode_rans_ms > 1.5 * ladder_rans_ms) {
    std::fprintf(stderr, "FAIL: rANS ladder decode %.2fms exceeds 1.5x encode %.2fms\n",
                 decode_rans_ms, ladder_rans_ms);
    ok = false;
  }
  entries.push_back({"encode_ladder_rans", "ms", ladder_rans_ms});
  entries.push_back({"decode_ladder_huffman", "ms", decode_huffman_ms});
  entries.push_back({"decode_ladder_rans", "ms", decode_rans_ms});
  entries.push_back({"rans_payload_reduction", "ratio", rans_reduction});

  // Decode throughput over the rANS ladder: decoded raster bytes per second.
  double decoded_bytes = 0.0;
  for (const imaging::Encoded& enc : rans_ladder) {
    decoded_bytes += static_cast<double>(enc.decoded.width()) * enc.decoded.height() *
                     sizeof(imaging::Pixel);
  }
  const double rans_decode_mb_per_s =
      decode_rans_ms == 0.0 ? 0.0 : decoded_bytes / 1.0e6 / (decode_rans_ms / 1.0e3);
  entries.push_back({"rans_decode_mb_per_s", "MB/s", rans_decode_mb_per_s});

  std::printf("\n%-34s %10s %10s\n", "benchmark", "value", "unit");
  for (const Entry& e : entries) {
    std::printf("%-34s %10.3f %10s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  std::printf("\ncold build: %.1fx faster; dense SSIM: %.1fx faster; "
              "rANS payload: %.1f%% smaller at equal SSIM\n",
              build_speedup, dense_speedup, rans_reduction * 100.0);

  write_json(options.json_path, entries);
  std::printf("wrote %s\n", options.json_path.c_str());

  if (!ok) {
    std::fprintf(stderr, "bench_perf_pipeline: EQUIVALENCE FAILURE (see above)\n");
    return 1;
  }
  return 0;
}
