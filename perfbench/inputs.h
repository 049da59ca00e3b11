// Inputs of the end-to-end benchmark, generated during set-up only. The site
// population is part of the benchmark's definition and fixed by kCorpusSeed:
// the corpus (dataset::CorpusGenerator), each site's Zipf popularity rank, and
// the condition matrix the outcome guards are computed on. So the guards
// compare served tiers, not corpora. The traffic comes from the workload
// seed: the Zipf request stream as wire text, the per-build requests and pass
// orders of cold_build, and the content-push sequence of push_storm.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/countries.h"
#include "net/http.h"
#include "serving/origin.h"

namespace perfbench {

constexpr std::size_t kSites = 40;
constexpr std::uint64_t kCorpusSeed = 20230910;
constexpr double kZipfExponent = 1.0;
/// Requests in the shared read stream; each client cycles through it.
constexpr std::size_t kStreamRequests = 16384;
/// AW4A-Savings levels of the condition matrix (percent).
constexpr int kMatrixSavingsLevels[] = {10, 20, 30, 40, 50, 60, 70, 80, 90};

struct Inputs {
  std::vector<aw4a::serving::OriginSite> sites;
  /// Wire text of the read stream (Zipf hosts, 75/15/10 header mix).
  std::vector<std::string> stream;
  /// cold_build: one data-saving request per site and pass slot, by site.
  std::vector<std::string> build_requests;
  /// push_storm: Zipf-drawn site index of each content push, in order.
  std::vector<std::size_t> pushes;
  /// Every site x (every priced country, every savings level, Save-Data
  /// off): the requests savings_ratio and paw_met_ratio are computed on.
  std::vector<std::string> matrix;
};

/// The corpus and request streams for one seed. `measure_qfs` is the one
/// knob the workloads set differently (cold_build builds without QFS).
Inputs make_inputs(std::uint64_t seed, bool measure_qfs);

/// Index of a request's site (from its Host header), or kSites when unknown.
std::size_t site_of(const Inputs& inputs, const aw4a::net::HttpRequest& request);

}  // namespace perfbench
