// The plan-resnet50-paper workload: ImageNet-scale ResNet-50 on the 24 GB
// TITAN RTX model. No tensor arithmetic runs; planner, rewrite, models and
// sim do all the work.
//
// One run is a sequence of whole rounds until --seconds have passed (at
// least kMinRounds). A round is:
//   1. kSetUpsPerRound set-ups: model build at batch 1024 -> schedule ->
//      profile;
//   2. kSearchesPerRound runtime::MaxSampleScale searches (Table IV);
//   3. kCyclesPerRound plan -> program -> simulate cycles at batch 1024 on
//      the first round's set-up.
// The traced run wraps every call in a span and alternates a traced block
// of cycles with an untraced one to measure the tracing overhead.

#include <algorithm>
#include <iostream>

#include "graph/schedule.h"
#include "models/model.h"
#include "planner/planner.h"
#include "planner/profile.h"
#include "rewrite/program.h"
#include "runtime/session.h"
#include "runtime/sim_executor.h"

#include "calibrate.h"
#include "layers.h"
#include "metrics.h"
#include "trace.h"
#include "workloads.h"

namespace tsbench {
namespace {

using namespace tsplit;  // NOLINT: the benchmark drives the whole library

constexpr char kModel[] = "ResNet-50";
constexpr int kBatch = 1024;
constexpr int kMinRounds = 3;
constexpr int kCyclesPerRound = 40;
constexpr int kCyclesPerSample = 2;  // cycles per calibrator sample
constexpr int kSetUpsPerRound = 5;
constexpr int kSearchesPerRound = 2;

struct SetUp {
  models::Model model;
  Schedule schedule;
  planner::GraphProfile profile;
};

Result<SetUp> MakeSetUp(const runtime::SessionOptions& session,
                        Tracer* tracer) {
  ScopedSpan setup(tracer, "setup");
  SetUp out;
  {
    ScopedSpan span(tracer, "models.build");
    ASSIGN_OR_RETURN(out.model, models::BuildByName(kModel, kBatch));
  }
  {
    ScopedSpan span(tracer, "graph.schedule");
    ASSIGN_OR_RETURN(out.schedule, BuildSchedule(out.model.graph));
  }
  {
    ScopedSpan span(tracer, "planner.profile");
    out.profile = planner::ProfileGraph(out.model.graph, session.device);
  }
  return out;
}

struct Cycle {
  planner::Plan plan;
  rewrite::Program program;
  runtime::IterationStats stats;
  Clock::time_point plan_start;
  double plan_seconds = 0;
};

// Plan -> program -> simulate, as runtime::SimulateIteration does it, at
// the session's planning budget.
Result<Cycle> RunCycle(const SetUp& s, const runtime::SessionOptions& session,
                       Tracer* tracer) {
  ScopedSpan cycle(tracer, "cycle");
  Cycle out;
  const auto budget = static_cast<size_t>(
      static_cast<double>(session.device.memory_bytes) *
      session.planner_headroom);
  {
    ScopedSpan span(tracer, "planner.plan");
    out.plan_start = Clock::now();
    ASSIGN_OR_RETURN(out.plan, planner::MakePlanner(session.planner_name)
                                   ->BuildPlan(s.model.graph, s.schedule,
                                               s.profile, budget));
    out.plan_seconds = SecondsSince(out.plan_start);
  }
  {
    ScopedSpan span(tracer, "rewrite.generate");
    ASSIGN_OR_RETURN(out.program,
                     rewrite::GenerateProgram(s.model.graph, s.schedule,
                                              out.plan, s.profile,
                                              session.program_options));
  }
  {
    ScopedSpan span(tracer, "sim.execute");
    runtime::SimExecutor sim(session.device);
    ASSIGN_OR_RETURN(out.stats, sim.Execute(s.model.graph, out.program));
  }
  return out;
}

// Properties the result must have, probed apart from the timed calls.
void CheckResults(const runtime::SessionOptions& session, int max_batch,
                  const Cycle& cycle, Checks* checks) {
  bool fits = runtime::SimulateModel(kModel, max_batch, 1.0, session).ok();
  bool next_fits =
      runtime::SimulateModel(kModel, max_batch + 1, 1.0, session).ok();
  checks->Expect(fits && !next_fits,
                 "SimulateModel succeeds at max_batch and fails at +1");
  runtime::SessionOptions base = session;
  base.planner_name = "Base";
  auto base_max = runtime::MaxSampleScale(kModel, base);
  checks->Expect(base_max.ok() && *base_max <= max_batch,
                 "TSPLIT's max_batch >= the Base planner's");
  if (base_max.ok()) {
    std::cout << "# max_batch TSPLIT " << max_batch << ", Base " << *base_max
              << "\n";
  }
  checks->Expect(cycle.stats.peak_memory_bytes > 0 &&
                     cycle.stats.peak_memory_bytes <=
                         session.device.memory_bytes,
                 "simulated peak within the 24 GiB device");
  checks->Expect(
      cycle.stats.iteration_seconds >= cycle.stats.compute_busy_seconds,
      "simulated iteration time >= compute-stream busy time");
}

bool SameCycle(const Cycle& a, const Cycle& b) {
  return a.program.steps.size() == b.program.steps.size() &&
         a.stats.iteration_seconds == b.stats.iteration_seconds &&
         a.stats.peak_memory_bytes == b.stats.peak_memory_bytes;
}

}  // namespace

std::optional<RunResult> RunPlanWorkload(const RunOptions& options) {
  if (options.workload != "plan-resnet50-paper") return std::nullopt;
  RunResult result;
  Checks checks;
  Tracer tracer;
  Tracer* t = options.trace ? &tracer : nullptr;
  const runtime::SessionOptions session;  // TSPLIT on TITAN RTX
  const auto start = Clock::now();

  std::optional<SetUp> main;
  std::optional<Cycle> first_cycle;
  HostSpeed speed({.float_loops = 2, .map_churns = 1});
  TimedSeries setup_s, search_s, cycle_s, plan_s;
  std::vector<planner::PlannerStats> planner_stats;
  double traced_seconds = 0, untraced_seconds = 0;
  int max_batch = -1;

  for (int round = 0;
       round < kMinRounds || SecondsSince(start) < options.seconds; ++round) {
    speed.Sample();
    for (int i = 0; i < kSetUpsPerRound; ++i) {
      auto t0 = Clock::now();
      auto setup = MakeSetUp(session, t);
      setup_s.AddSince(t0);
      if (!setup.ok()) {
        checks.Expect(false, "set-up: " + setup.status().ToString());
        break;
      }
      if (!main) main = std::move(*setup);
    }
    if (!main) break;

    for (int i = 0; i < kSearchesPerRound; ++i) {
      speed.Sample();
      ++result.attempted;
      auto t0 = Clock::now();
      Result<int> found = 0;
      {
        ScopedSpan span(t, "search");
        found = runtime::MaxSampleScale(kModel, session);
      }
      search_s.AddSince(t0);
      if (!found.ok()) {
        ++result.failed;
        checks.Expect(false, "MaxSampleScale: " + found.status().ToString());
        break;
      }
      checks.Expect(max_batch < 0 || *found == max_batch,
                    "max_batch is the same on every search");
      max_batch = *found;
    }
    if (result.failed > 0) break;

    // Untraced runs time every cycle; the traced run also times an
    // untraced block of the same cycles for the overhead.
    for (int pass = 0; pass < (options.trace ? 2 : 1); ++pass) {
      const bool traced_pass = options.trace && pass == 0;
      for (int i = 0; i < kCyclesPerRound; ++i) {
        if (i % kCyclesPerSample == 0) speed.Sample();
        ++result.attempted;
        auto c0 = Clock::now();
        auto cycle = RunCycle(*main, session, traced_pass ? t : nullptr);
        double seconds = SecondsSince(c0);
        if (!cycle.ok()) {
          ++result.failed;
          checks.Expect(false, "cycle: " + cycle.status().ToString());
          break;
        }
        if (traced_pass) {
          traced_seconds += seconds;
          planner_stats.push_back(cycle->plan.stats);
        } else {
          untraced_seconds += seconds;
          cycle_s.Add(c0, seconds);
          plan_s.Add(cycle->plan_start, cycle->plan_seconds);
        }
        if (!first_cycle) {
          first_cycle = std::move(*cycle);
        } else {
          checks.Expect(SameCycle(*first_cycle, *cycle),
                        "every cycle gives the same program and iteration");
        }
      }
    }
    speed.Sample();
    if (result.failed > 0) break;
  }
  if (!first_cycle || max_batch < 0) {
    result.correct = false;
    return result;
  }
  CheckResults(session, max_batch, *first_cycle, &checks);

  const Cycle& c = *first_cycle;
  std::cout << "# " << kModel << " @" << kBatch << ": "
            << c.program.steps.size() << " program steps, "
            << c.plan.CountOpt(MemOpt::kSwap) << " swap, "
            << c.plan.CountOpt(MemOpt::kRecompute) << " recompute, "
            << c.plan.CountSplit() << " split tensors, "
            << c.plan.stats.rounds << " planner rounds, "
            << c.plan.stats.candidates_scored << " candidates; "
            << cycle_s.size() << " timed cycles, " << search_s.size()
            << " searches\n# raw step_s.p50 " << Median(cycle_s.raw())
            << " s; median host-speed scale " << speed.MedianScale() << "\n";

  if (!options.trace) {
    const std::vector<double> cycles = cycle_s.Scaled(speed);
    std::optional<double> p90 = TailP90(cycles);
    checks.Expect(p90.has_value(), "enough timed cycles for step_s.p90");
    result.correct = checks.correct;
    result.Add("setup_s", Median(setup_s.Scaled(speed)));
    result.Add("step_s.p50", Median(cycles));
    result.Add("step_s.p90", p90.value_or(0));
    result.Add("samples_per_s",
               static_cast<double>(kBatch) *
                   static_cast<double>(cycles.size()) / Sum(cycles));
    result.Add("peak_device_bytes",
               static_cast<double>(c.stats.peak_memory_bytes));
    result.Add("plan_s", Median(plan_s.Scaled(speed)));
    result.Add("search_s", Median(search_s.Scaled(speed)));
    result.Add("max_batch", max_batch);
    result.Add("sim_samples_per_s", c.stats.throughput(kBatch));
    return result;
  }

  result.correct = checks.correct;
  if (!options.trace_out.empty() &&
      !tracer.WriteChromeTrace(options.trace_out)) {
    std::cout << "# could not write " << options.trace_out << "\n";
  }
  AddPlanningLayers(tracer, planner_stats, main->model, main->schedule,
                    c.plan, c.program, &result);
  // No executor, optimizer or kernel runs on this workload: its runtime
  // and training layers do no work and read 0.
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (name.starts_with("runtime.") || name.starts_with("train.")) {
      result.Add(name, 0);
    }
  }
  AddSimLayers(tracer, c.stats, &result);
  result.Add("trace.step_self_s", tracer.MedianSelf("cycle"));
  // Both blocks ran the same number of cycles in the same rounds.
  result.Add("trace.overhead", traced_seconds / untraced_seconds - 1);
  return result;
}

}  // namespace tsbench
