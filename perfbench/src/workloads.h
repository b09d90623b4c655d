// The three workloads. Each sets up its data and engine several times
// (setup_s is the median), measures for Options::seconds, checks the
// outputs, and fills the metric table: end-to-end metrics untraced, or
// per-layer metrics in the traced run.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "src/common.h"

namespace perfbench {

struct RunResult {
  MetricTable metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Runs `options.workload`; false when the name is unknown.
bool RunWorkload(const Options& options, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
