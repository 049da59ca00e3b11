// aw4a_perfbench: the end-to-end AW4A origin benchmark binary (see README.md).
//
//   aw4a_perfbench --workload <warm_read|cold_build|push_storm> --seed <n>
//       --seconds <s> --trace <0|1> --read-rps <r> --push-hz <h>
//
// Prints a {"detail": ...} line, then as its last line the result object
// {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when every
// output check passed, 1 when one failed (the result is still printed), 2 on
// a usage or set-up error (no result).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "workloads.h"

#ifndef AW4A_PERFBENCH_BUILD_TYPE
#define AW4A_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef AW4A_PERFBENCH_COMPILER
#define AW4A_PERFBENCH_COMPILER "unknown"
#endif

namespace {

using perfbench::json_string;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "aw4a_perfbench: %s\n"
               "usage: aw4a_perfbench --workload <warm_read|cold_build|push_storm> --seed <n>\n"
               "       --seconds <s> --trace <0|1>\n"
               "       --read-rps <r> --push-hz <h>\n",
               why.c_str());
  std::exit(2);
}

double number(std::string_view flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') usage("bad value for " + std::string(flag));
  return value;
}

perfbench::RunOptions parse(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      char* end = nullptr;
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("bad value for --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = number(flag, value);
      have_seconds = true;
    } else if (flag == "--trace") {
      options.trace = number(flag, value) != 0.0;
      have_trace = true;
    } else if (flag == "--read-rps") {
      options.read_rps = number(flag, value);
    } else if (flag == "--push-hz") {
      options.push_hz = number(flag, value);
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  if (!(options.read_rps > 0.0 && options.push_hz > 0.0)) {
    usage("--read-rps and --push-hz must be positive");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunOptions options = parse(argc, argv);
  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aw4a_perfbench: %s\n", e.what());
    return 2;
  }
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(result.outcome_digest));
  std::printf("{\"detail\": {\"metrics\": %s, \"outcome_digest\": \"%s\", "
              "\"first_failure\": %s, \"build_type\": %s, \"compiler\": %s}}\n",
              perfbench::metrics_json(result.detail).c_str(), digest,
              json_string(result.first_failure).c_str(),
              json_string(AW4A_PERFBENCH_BUILD_TYPE).c_str(),
              json_string(AW4A_PERFBENCH_COMPILER).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              perfbench::metrics_json(result.metrics).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
