#ifndef TSBENCH_WORKLOADS_H_
#define TSBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "stats.h"

namespace tsbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  // Where the traced run writes its spans (Chrome trace JSON).
  std::string trace_out;
};

// Runs one workload. Progress and reference figures go to stdout as
// "# "-prefixed lines; the caller prints the result line. nullopt for an
// unknown workload.
std::optional<RunResult> RunTrainWorkload(const RunOptions& options);
std::optional<RunResult> RunPlanWorkload(const RunOptions& options);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace tsbench

#endif  // TSBENCH_WORKLOADS_H_
