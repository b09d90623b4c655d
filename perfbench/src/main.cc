// End-to-end benchmark of the top-k join library, driven through its
// public API:
//   perfbench --workload <cold-topk|hot-serving|live-update> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metric table (end-to-end metrics untraced,
// per-layer metrics with --trace 1). Diagnostics go to standard error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/common.h"
#include "src/workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <cold-topk|hot-serving|"
               "live-update> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || !(options.seconds > 0)) {
    Usage();
    return 2;
  }
  perfbench::RunResult result;
  if (!perfbench::RunWorkload(options, &result)) {
    Usage();
    return 2;
  }
  bool finite = true;
  std::string metrics;
  for (const auto& e : result.metrics.entries()) {
    if (!std::isfinite(e.value)) {
      finite = false;
      std::fprintf(stderr, "metric %s is not finite\n", e.name.c_str());
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", e.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + e.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               e.unit + "\"}";
  }
  const bool correct = result.failed == 0 && finite;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics.c_str());
  return 0;
}
