#!/usr/bin/env bash
# Tier-1 gate: the full test suite in the standard configuration, plus the
# robustness, asset-store, rANS-coder, and markup suites under ASan+UBSan
# (fault injection, eviction churn, attacker-controlled entropy-coded
# payloads, and the length-prefixed AWML parser on truncated/tampered blobs
# exercise the error paths — exactly where lifetime and UB bugs hide) and the
# resize, SSIM and ladder suites (the redisplay and SSIM kernels make raw
# contiguous SIMD loads at row ends and window-grid edges) and the codec and
# raster suites (the PNG filter reads its zero-padded rows at i - channels,
# and the color convert copies packed 32-bit rows into Pixel storage), plus
# the demand-driven ladder-family differential (concurrent prewarm workers
# adopting asset-store memos of partial family sets), the QFS memo and
# renderer suites (render inputs index the layout per block, and memo keys
# outlive the served views they were derived from), plus
# the full suite under UBSan alone (cheap enough to run everything), plus
# the serving suite and the rANS coder under TSan (the tier cache,
# single-flight, and the content-addressed asset store are the concurrent
# core; the coder's thread-local scratch must stay race-free under the
# ladder's worker pool). Every ctest run carries a per-test timeout so a
# deadline-propagation bug hangs the suite loudly instead of forever.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
(cd build && ctest --output-on-failure --timeout 300 -j "$(nproc)")

cmake -B build-asan -S . -DAW4A_SANITIZE=ON >/dev/null
cmake --build build-asan -j --target robustness_test serving_asset_store_test imaging_ans_test web_markup_test \
  imaging_resize_test imaging_ssim_test imaging_variants_test imaging_codec_test imaging_codec_detail_test \
  imaging_raster_test core_ladder_families_test core_qfs_memo_test web_render_test >/dev/null
(cd build-asan && ctest --output-on-failure --timeout 300 -R '^(robustness_test|serving_asset_store_test|imaging_ans_test|web_markup_test|imaging_(resize|ssim|variants|codec|codec_detail|raster)_test|core_ladder_families_test|core_qfs_memo_test|web_render_test)$')

cmake -B build-ubsan -S . -DAW4A_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j >/dev/null
(cd build-ubsan && ctest --output-on-failure --timeout 300 -j "$(nproc)")

cmake -B build-tsan -S . -DAW4A_SANITIZE=thread >/dev/null
cmake --build build-tsan -j --target serving_test serving_stress_test serving_overload_test serving_asset_store_test imaging_ans_test >/dev/null
(cd build-tsan && ctest --output-on-failure --timeout 300 -R '^(serving_(test|stress_test|overload_test|asset_store_test)|imaging_ans_test)$')

# Release-mode perf smoke: the cold-build fast path must keep its speedups
# (bench_perf_pipeline exits nonzero if any build mode, the integral SSIM, or
# the factored encode ladder diverges from its reference) and the serving
# build plane must keep its overload contract (bench_serve_overload exits
# nonzero when 4x overload produces any non-200 answer, drops goodput below
# 80% of 1x, or blows the shed fast-path bound). Fresh numbers are measured
# into a scratch file first and gated against the committed trajectory by
# bench_guard (>25% regression on a guarded metric fails the gate); only
# then do they overwrite the repo-root JSONs.
cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-perf -j --target bench_perf_pipeline bench_serve_overload bench_asset_dedup bench_ext04_ultra_low_tiers >/dev/null
fresh_dir="$(mktemp -d)"
trap 'rm -rf "$fresh_dir"' EXIT
./build-perf/bench/bench_perf_pipeline --repeat=2 --json="$fresh_dir/BENCH_pipeline.json"
./build-perf/bench/bench_serve_overload --json="$fresh_dir/BENCH_serving.json"
# bench_asset_dedup exits nonzero on its own acceptance criteria (< 20%
# bytes/time saved at 30% duplication, or the store changing any served
# length); the guard then pins the bytes-built trajectory, which is a
# deterministic function of the corpus — regressions here are algorithmic,
# never noise.
./build-perf/bench/bench_asset_dedup --json="$fresh_dir/BENCH_dedup.json"
# bench_ext04 exits nonzero on its own acceptance criteria (markup tier mean
# savings < 85%, markup shallower than the image ladder on any page, ultra
# tiers losing PAW reachability in any band, or a rewrite-blob round-trip
# mismatch); the guard then pins the markup reduction and build-time
# trajectories, deterministic functions of the seeded corpus.
./build-perf/bench/bench_ext04_ultra_low_tiers --json="$fresh_dir/BENCH_ultra.json"
python3 tools/bench_guard.py \
  --committed BENCH_pipeline.json --fresh "$fresh_dir/BENCH_pipeline.json" \
  --metric cold_build_tiers_shared_cache --metric ssim_dense_integral \
  --metric encode_ladder_rans --metric decode_ladder_huffman \
  --metric decode_ladder_rans --metric rans_payload_reduction \
  --metric 'rans_decode_mb_per_s:higher'
python3 tools/bench_guard.py \
  --committed BENCH_serving.json --fresh "$fresh_dir/BENCH_serving.json" \
  --metric 'overload_2x/goodput' \
  --metric 'overload_4x/shed_service_p99_ms' \
  --metric 'overload_4x/shed_rate:lower'
python3 tools/bench_guard.py \
  --committed BENCH_dedup.json --fresh "$fresh_dir/BENCH_dedup.json" \
  --metric 'dedup_30/bytes_built:lower' \
  --metric 'dedup_30/bytes_saved_ratio'
# Wider tolerance here: markup builds are sub-millisecond, so scheduler
# noise dominates the build-time metric at the default 25%; an algorithmic
# regression overshoots 50% by orders of magnitude anyway.
python3 tools/bench_guard.py \
  --committed BENCH_ultra.json --fresh "$fresh_dir/BENCH_ultra.json" \
  --metric 'ultra_low/bytes_reduction' \
  --metric 'ultra_low/markup_build_ms' \
  --metric 'ultra_low/paw_reachable_ratio' \
  --tolerance 0.5
cp "$fresh_dir/BENCH_pipeline.json" BENCH_pipeline.json
cp "$fresh_dir/BENCH_serving.json" BENCH_serving.json
cp "$fresh_dir/BENCH_dedup.json" BENCH_dedup.json
cp "$fresh_dir/BENCH_ultra.json" BENCH_ultra.json

echo "tier1: OK"
