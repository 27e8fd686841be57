#include "layers.h"

#include <algorithm>
#include <iostream>
#include <map>

#include "planner/memory_sim.h"

namespace tsbench {

using namespace tsplit;  // NOLINT: the benchmark drives the whole library

void Checks::Expect(bool cond, const std::string& what) {
  if (!cond) {
    std::cout << "# CHECK FAILED: " << what << "\n";
    correct = false;
  }
}

void AddPlanningLayers(const Tracer& tracer,
                       const std::vector<planner::PlannerStats>& planner_stats,
                       const models::Model& model, const Schedule& schedule,
                       const planner::Plan& plan,
                       const rewrite::Program& program, RunResult* result) {
  std::map<std::string, std::vector<double>> items;
  for (const auto& s : planner_stats) {
    for (const auto& [key, value] : s.Items()) items[key].push_back(value);
    items["pcie_hit_rate"].push_back(s.PcieHitRate());
    items["transient_hit_rate"].push_back(s.TransientHitRate());
  }
  auto stat = [&](const char* key) { return Median(items[key]); };
  std::vector<size_t> memory = planner::PlannedMemory(
      model.graph, schedule, planner::ComputeTensorFacts(model.graph, schedule),
      plan);
  int recompute_steps = 0;
  for (const auto& step : program.steps) recompute_steps += step.is_recompute;

  result->Add("models.build_s", tracer.MedianSelf("models.build"));
  result->Add("graph.schedule_s", tracer.MedianSelf("graph.schedule"));
  result->Add("planner.profile_s", tracer.MedianSelf("planner.profile"));
  result->Add("planner.plan_s", tracer.MedianSelf("planner.plan"));
  result->Add("planner.pcie_s", stat("pcie_seconds"));
  result->Add("planner.enumerate_s", stat("enumerate_seconds"));
  result->Add("planner.score_s", stat("score_seconds"));
  result->Add("planner.apply_s", stat("apply_seconds"));
  result->Add("planner.sync_s", stat("sync_seconds"));
  result->Add("planner.rounds", stat("rounds"));
  result->Add("planner.candidates_scored", stat("candidates_scored"));
  result->Add("planner.pcie_hit_rate", stat("pcie_hit_rate"));
  result->Add("planner.transient_hit_rate", stat("transient_hit_rate"));
  result->Add("plan.swap_tensors", plan.CountOpt(MemOpt::kSwap));
  result->Add("plan.recompute_tensors", plan.CountOpt(MemOpt::kRecompute));
  result->Add("plan.split_tensors", plan.CountSplit());
  result->Add("plan.planned_peak_bytes",
              memory.empty() ? 0.0
                             : static_cast<double>(*std::max_element(
                                   memory.begin(), memory.end())));
  result->Add("rewrite.generate_s", tracer.MedianSelf("rewrite.generate"));
  result->Add("rewrite.program_steps",
              static_cast<double>(program.steps.size()));
  result->Add("rewrite.swap_bytes",
              static_cast<double>(program.swap_out_bytes +
                                  program.swap_in_bytes));
  result->Add("rewrite.recompute_steps", recompute_steps);
  result->Add("rewrite.micro_steps", program.num_micro_computes);
}

void AddSimLayers(const Tracer& tracer, const runtime::IterationStats& stats,
                  RunResult* result) {
  result->Add("sim.execute_s", tracer.MedianSelf("sim.execute"));
  result->Add("sim.iter_s", stats.iteration_seconds);
  result->Add("sim.compute_busy_s", stats.compute_busy_seconds);
  result->Add("sim.d2h_busy_s", stats.d2h_busy_seconds);
  result->Add("sim.h2d_busy_s", stats.h2d_busy_seconds);
  result->Add("sim.compute_idle_fraction", stats.compute_idle_fraction);
  result->Add("sim.swap_out_bytes", static_cast<double>(stats.swap_out_bytes));
  result->Add("sim.recompute_s", stats.recompute_seconds);
}

}  // namespace tsbench
