// The three workloads of the end-to-end benchmark, each driving
// serving::OriginServer through the wire path net::parse_request ->
// OriginServer::handle -> net::serialize from at most four client threads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  /// Off: end-to-end metrics. On: per-layer metrics from a traced run.
  bool trace = false;
  /// Fixed offered load: reads/s of warm_read and push_storm, and
  /// push_storm's content pushes/s.
  double read_rps = 0.0;
  double push_hz = 0.0;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Outcome fields reported beside the metrics (never compared by bound).
  std::vector<Metric> detail;
  /// Digest over every condition-matrix answer: equal seeds, equal digest.
  std::uint64_t outcome_digest = 0;
  std::string first_failure;
};

RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
