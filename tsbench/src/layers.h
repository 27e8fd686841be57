#ifndef TSBENCH_LAYERS_H_
#define TSBENCH_LAYERS_H_

// Pieces both kinds of workload share: output checks and the per-layer
// metrics of the layers every workload runs (models, graph, planner,
// rewrite, sim).

#include <string>
#include <vector>

#include "graph/schedule.h"
#include "models/model.h"
#include "planner/plan.h"
#include "rewrite/program.h"
#include "runtime/sim_executor.h"
#include "stats.h"
#include "trace.h"

namespace tsbench {

// Collects a run's output checks; a failed one is printed and clears
// `correct`.
struct Checks {
  bool correct = true;
  void Expect(bool cond, const std::string& what);
};

// models.*, graph.*, planner.*, plan.* and rewrite.* metrics: span self
// times from `tracer`, PlannerStats items as medians over `planner_stats`,
// and counts of `plan` and `program`.
void AddPlanningLayers(const Tracer& tracer,
                       const std::vector<tsplit::planner::PlannerStats>&
                           planner_stats,
                       const tsplit::models::Model& model,
                       const tsplit::Schedule& schedule,
                       const tsplit::planner::Plan& plan,
                       const tsplit::rewrite::Program& program,
                       RunResult* result);

// sim.* metrics: sim.execute span self time and the simulated iteration.
void AddSimLayers(const Tracer& tracer,
                  const tsplit::runtime::IterationStats& stats,
                  RunResult* result);

}  // namespace tsbench

#endif  // TSBENCH_LAYERS_H_
