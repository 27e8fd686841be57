#ifndef TSBENCH_METRICS_H_
#define TSBENCH_METRICS_H_

// The metrics every run prints, by name and unit: the end-to-end set with
// --trace 0 and the per-layer set with --trace 1, in BENCHMARK.json order.
// main() refuses a result whose names or units differ from these lists.

#include <string>
#include <utility>
#include <vector>

namespace tsbench {

using MetricList = std::vector<std::pair<std::string, std::string>>;

inline const MetricList& EndToEndMetrics() {
  static const MetricList kList = {
      {"setup_s", "s"},
      {"step_s.p50", "s"},
      {"step_s.p90", "s"},
      {"samples_per_s", "1/s"},
      {"peak_device_bytes", "B"},
      {"plan_s", "s"},
      {"search_s", "s"},
      {"max_batch", "samples"},
      {"sim_samples_per_s", "1/sim_s"},
  };
  return kList;
}

inline const MetricList& PerLayerMetrics() {
  static const MetricList kList = [] {
    MetricList list = {
        {"models.build_s", "s"},
        {"graph.schedule_s", "s"},
        {"planner.profile_s", "s"},
        {"planner.plan_s", "s"},
        {"planner.pcie_s", "s"},
        {"planner.enumerate_s", "s"},
        {"planner.score_s", "s"},
        {"planner.apply_s", "s"},
        {"planner.sync_s", "s"},
        {"planner.rounds", "count"},
        {"planner.candidates_scored", "count"},
        {"planner.pcie_hit_rate", "ratio"},
        {"planner.transient_hit_rate", "ratio"},
        {"plan.swap_tensors", "count"},
        {"plan.recompute_tensors", "count"},
        {"plan.split_tensors", "count"},
        {"plan.planned_peak_bytes", "B"},
        {"rewrite.generate_s", "s"},
        {"rewrite.program_steps", "count"},
        {"rewrite.swap_bytes", "B"},
        {"rewrite.recompute_steps", "count"},
        {"rewrite.micro_steps", "count"},
        {"runtime.compile_s", "s"},
    };
    for (const char* pass : {"dce", "color", "autotune", "reorder", "batch"}) {
      list.push_back({std::string("runtime.pass.") + pass + ".s", "s"});
      list.push_back(
          {std::string("runtime.pass.") + pass + ".instrs_removed", "count"});
    }
    MetricList rest = {
        {"runtime.compiled.instrs", "count"},
        {"runtime.compiled.slots", "count"},
        {"runtime.compiled.static_bytes", "B"},
        {"runtime.executor.bind_s", "s"},
        {"runtime.executor.run_s", "s"},
        {"runtime.executor.readback_s", "s"},
        {"runtime.executor.host_bytes", "B"},
        {"runtime.optimizer.step_s", "s"},
        {"runtime.interpreter.run_s", "s"},
        {"train.zero_grad_share", "ratio"},
        {"sim.execute_s", "s"},
        {"sim.iter_s", "sim_s"},
        {"sim.compute_busy_s", "sim_s"},
        {"sim.d2h_busy_s", "sim_s"},
        {"sim.h2d_busy_s", "sim_s"},
        {"sim.compute_idle_fraction", "ratio"},
        {"sim.swap_out_bytes", "B"},
        {"sim.recompute_s", "sim_s"},
        {"trace.step_self_s", "s"},
        {"trace.overhead", "ratio"},
    };
    list.insert(list.end(), rest.begin(), rest.end());
    return list;
  }();
  return kList;
}

inline const std::string& UnitOf(const std::string& name) {
  static const std::string kNone;
  for (const MetricList* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const auto& [n, unit] : *list) {
      if (n == name) return unit;
    }
  }
  return kNone;
}

}  // namespace tsbench

#endif  // TSBENCH_METRICS_H_
