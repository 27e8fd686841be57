// tsbench: the repository's benchmark program.
//
//   tsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--trace-out <file>]
//   tsbench --self-check
//
// Prints "# "-prefixed progress lines, then one JSON result line:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end set, with --trace 1 the per-layer set (metrics.h);
// run.py checks the line against BENCHMARK.json.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "metrics.h"
#include "stats.h"
#include "workloads.h"

namespace tsbench {

// One kernel thread: with the async copy engine's thread that is two of
// the host's four cores, and one thread gave the steadiest step times.
constexpr int kKernelThreads = 1;

namespace {

// The workload names, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames() {
  return {"train-resnet50-tight", "train-gpt-split", "plan-resnet50-paper"};
}

int Usage(const std::string& error) {
  std::cerr << "tsbench: " << error << "\n"
            << "usage: tsbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n"
            << "       tsbench --self-check\n"
            << "workloads:";
  for (const auto& name : WorkloadNames()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--self-check") {
      bool ok = SelfCheckStats();
      RunResult sample;
      sample.attempted = 1;
      for (const auto& [name, unit] : EndToEndMetrics()) sample.Add(name, 1.5);
      std::cout << (ok ? "# self-check ok" : "# self-check FAILED") << "\n"
                << sample.ToJson() << "\n";
      return ok ? 0 : 1;
    }
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0 && options.seconds <= 600;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage("unknown argument " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds (0, 600] and --trace 0|1 "
                 "are required");
  }

  tsplit::core::SetNumThreads(kKernelThreads);
  std::cout << "# workload " << options.workload << " seed " << options.seed
            << " seconds " << options.seconds << " trace " << options.trace
            << " kernel threads " << kKernelThreads << std::endl;
  std::optional<RunResult> result = RunTrainWorkload(options);
  if (!result) result = RunPlanWorkload(options);
  if (!result) return Usage("unknown workload " + options.workload);
  std::cout << result->ToJson() << std::endl;
  return 0;
}

}  // namespace
}  // namespace tsbench

int main(int argc, char** argv) { return tsbench::Main(argc, argv); }
