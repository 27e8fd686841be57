// The train-* workloads: a model trained through runtime::Trainer under a
// device-memory budget, on a learnable synthetic task whose batches the
// seed orders (see MakeTask).
//
// One run is a sequence of whole rounds until --seconds have passed (at
// least kMinRounds, and spec.min_timed_steps timed steps). Untraced, a
// round is:
//   1. one fresh set-up: model build -> Trainer::Create -> first Step;
//   2. one BuildPlan of the workload's model at its budget;
//   3. one largest-batch search at the workload's budget;
//   4. a block of spec.block_steps timed Trainer::Step calls on the main
//      trainer, then an unmanaged Interpreter run on the parameters and
//      batch of the block's first step, whose loss must match.
// Every sample of every metric is thus spread over the whole run, and a
// calibrator sample every few steps gives the host-speed scale of each
// (calibrate.h).
//
// Traced, the round replaces Trainer with the same pipeline spelled out
// call by call (schedule, profile, plan, generate; bind, Run, gradient
// read-back, SGD), each call inside a span, and alternates a traced block
// with an untraced Trainer block to measure the tracing overhead.

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <random>

#include "graph/liveness.h"
#include "graph/schedule.h"
#include "models/model.h"
#include "planner/planner.h"
#include "planner/profile.h"
#include "rewrite/program.h"
#include "runtime/functional_executor.h"
#include "runtime/interpreter.h"
#include "runtime/optimizer.h"
#include "runtime/sim_executor.h"
#include "runtime/trainer.h"
#include "sim/device.h"

#include "calibrate.h"
#include "layers.h"
#include "trace.h"
#include "workloads.h"

namespace tsbench {
namespace {

using namespace tsplit;  // NOLINT: the benchmark drives the whole library

constexpr int kMinRounds = 5;
constexpr int kPoolBatches = 32;   // distinct batches, cycled
constexpr int kSearchLimit = 256;  // largest batch the search probes
constexpr size_t kTaskTokens = 16;  // token task: tokens in use
// The parameters and the task's batches are fixed draws (see MakeTask).
constexpr uint64_t kInitSeed = 1;
constexpr uint64_t kTaskSeed = 2;

struct TrainSpec {
  int batch = 0;
  double activation_fraction = 0;
  sim::DeviceProfile device;
  // Token task (next token along a fixed cycle of tokens) or image task
  // (class prototypes plus noise).
  bool tokens = false;
  int classes = 0;  // image classes, or vocabulary size
  // Plain SGD (no momentum) at a rate where the loss falls steadily.
  float learning_rate = 0;
  // Timed steps per round. A run keeps adding rounds until it has timed
  // at least min_timed_steps (>= 100, so that step_s.p90 has 10 steps
  // beyond it). The loss check reads exactly the first min_timed_steps,
  // so its verdict depends on the seed alone, not on the host's speed.
  int block_steps = 0;
  int min_timed_steps = 0;
  int steps_per_sample = 0;  // timed steps per calibrator sample
  CalibratorMix calibrator;
  std::function<Result<models::Model>(int batch)> build;
};

TrainSpec MakeSpec(const std::string& name) {
  TrainSpec spec;
  if (name == "train-resnet50-tight") {
    // The executor bench's ResNet-50 row: batch 2, 32x32, channels x1/16.
    spec.batch = 2;
    spec.activation_fraction = 0.3;
    spec.device = sim::TitanRtx();
    spec.classes = 3;
    spec.learning_rate = 0.002f;
    spec.block_steps = 40;
    spec.min_timed_steps = 1000;
    spec.steps_per_sample = 5;
    spec.calibrator = {.float_loops = 2, .map_churns = 1};
    spec.build = [](int batch) {
      models::CnnConfig config;
      config.batch = batch;
      config.image_size = 32;
      config.num_classes = 3;
      config.channel_scale = 4.0 / 64.0;
      return models::BuildResNet(50, config);
    };
  } else if (name == "train-gpt-split") {
    spec.batch = 4;
    spec.activation_fraction = 0.1;
    spec.device = sim::TitanRtx();
    spec.device.pcie_gbps = 1.0;  // a slow link pushes the plan to split
    spec.tokens = true;
    spec.classes = 256;
    spec.learning_rate = 0.05f;
    spec.block_steps = 10;
    spec.min_timed_steps = 100;
    spec.steps_per_sample = 2;
    spec.calibrator = {.float_loops = 0, .map_churns = 3};
    spec.build = [](int batch) {
      models::GptConfig config;
      config.num_layers = 2;
      config.batch = batch;
      config.seq_len = 64;
      config.hidden = 128;
      config.num_heads = 4;
      config.vocab = 256;
      return models::BuildGpt(config);
    };
  }
  return spec;
}

struct Batch {
  Tensor input;
  Tensor labels;
};

// A learnable task: the labels are a function of the input the model can
// fit, so the loss falls at a small learning rate and the gradients stay
// dense (a diverging run zeroes them, which changes the cost of a step
// partway through). The batches are one fixed draw and the seed sets the
// order the run visits them in. A seeded draw would change how many
// gradients are zero, and conv2d's backward skips zero gradients: the
// cost of a step would then differ from seed to seed by up to ~10%.
std::vector<Batch> MakeTask(const TrainSpec& spec, const models::Model& model,
                            uint64_t seed) {
  std::mt19937_64 rng(kTaskSeed);
  std::uniform_real_distribution<float> uniform(-1.0f, 1.0f);
  const Shape in_shape = model.graph.tensor(model.input).shape;
  const Shape label_shape = model.graph.tensor(model.labels).shape;
  const int64_t batch = in_shape.dim(0);
  std::vector<Batch> pool;
  if (spec.tokens) {
    // Sequences walk a fixed cycle through kTaskTokens of the vocabulary:
    // the model first learns which tokens occur, then which follows which.
    std::vector<int> vocab(static_cast<size_t>(spec.classes));
    for (int v = 0; v < spec.classes; ++v) vocab[static_cast<size_t>(v)] = v;
    std::shuffle(vocab.begin(), vocab.end(), rng);
    vocab.resize(kTaskTokens);
    const int64_t seq = in_shape.dim(1);
    for (int b = 0; b < kPoolBatches; ++b) {
      Batch out{Tensor(in_shape), Tensor(label_shape)};
      for (int64_t row = 0; row < batch; ++row) {
        size_t at = rng() % kTaskTokens;
        for (int64_t t = 0; t < seq; ++t) {
          out.input.at(row * seq + t) = static_cast<float>(vocab[at]);
          at = (at + 1) % kTaskTokens;
          out.labels.at(row * seq + t) = static_cast<float>(vocab[at]);
        }
      }
      pool.push_back(std::move(out));
    }
  } else {
    // Each image is its class prototype plus noise.
    const int64_t per_sample = in_shape.num_elements() / batch;
    std::vector<std::vector<float>> prototypes(
        static_cast<size_t>(spec.classes));
    for (auto& proto : prototypes) {
      proto.resize(static_cast<size_t>(per_sample));
      for (float& v : proto) v = uniform(rng);
    }
    for (int b = 0; b < kPoolBatches; ++b) {
      Batch out{Tensor(in_shape), Tensor(label_shape)};
      for (int64_t row = 0; row < batch; ++row) {
        int label =
            static_cast<int>(rng() % static_cast<uint64_t>(spec.classes));
        out.labels.at(row) = static_cast<float>(label);
        const auto& proto = prototypes[static_cast<size_t>(label)];
        for (int64_t i = 0; i < per_sample; ++i) {
          out.input.at(row * per_sample + i) =
              0.7f * proto[static_cast<size_t>(i)] + 0.3f * uniform(rng);
        }
      }
      pool.push_back(std::move(out));
    }
  }
  std::mt19937_64 order(seed);
  std::shuffle(pool.begin(), pool.end(), order);
  return pool;
}

runtime::TrainerOptions MakeTrainerOptions(const TrainSpec& spec) {
  runtime::TrainerOptions options;
  options.planner_name = "TSPLIT";
  options.activation_fraction = spec.activation_fraction;
  options.profile_device = spec.device;
  options.learning_rate = spec.learning_rate;
  options.momentum = 0.0f;
  options.init_seed = kInitSeed;
  return options;
}

// Trainer::Create and Trainer::Step spelled out through the public calls
// they make, each inside a span. Must stay step-for-step equal to the
// Trainer; the traced run checks that its losses match a Trainer's.
class TracedTrainer {
 public:
  Status Create(const TrainSpec& spec, const runtime::TrainerOptions& opts,
                Tracer* tracer) {
    ScopedSpan setup(tracer, "setup");
    {
      ScopedSpan span(tracer, "models.build");
      ASSIGN_OR_RETURN(model_, spec.build(spec.batch));
    }
    {
      ScopedSpan span(tracer, "graph.schedule");
      ASSIGN_OR_RETURN(schedule_, BuildSchedule(model_.graph));
    }
    {
      ScopedSpan span(tracer, "planner.profile");
      profile_ = planner::ProfileGraph(model_.graph, opts.profile_device);
    }
    {
      ScopedSpan span(tracer, "planner.capacity");
      MemoryProfile baseline = ComputeMemoryProfile(model_.graph, schedule_);
      size_t floor = baseline.always_live_bytes +
                     model_.graph.BytesOfKind(TensorKind::kParamGrad);
      capacity_ = floor + static_cast<size_t>(
                              (baseline.peak_bytes - floor) *
                              opts.activation_fraction);
    }
    {
      ScopedSpan span(tracer, "planner.plan");
      auto planner = planner::MakePlanner(opts.planner_name);
      ASSIGN_OR_RETURN(plan_, planner->BuildPlan(model_.graph, schedule_,
                                                 profile_, capacity_));
    }
    {
      ScopedSpan span(tracer, "rewrite.generate");
      ASSIGN_OR_RETURN(program_, rewrite::GenerateProgram(
                                     model_.graph, schedule_, plan_, profile_));
    }
    {
      ScopedSpan span(tracer, "runtime.param_init");
      auto bindings = runtime::MakeRandomBindings(model_.graph, opts.init_seed);
      for (TensorId id : model_.parameters) {
        params_[id] = std::move(bindings.at(id));
      }
    }
    optimizer_ = std::make_unique<runtime::SgdOptimizer>(opts.learning_rate,
                                                         opts.momentum);
    return Status::OK();
  }

  Result<runtime::StepResult> Step(const Batch& batch, Tracer* tracer) {
    ScopedSpan step(tracer, "step");
    bool first = executor_ == nullptr;
    if (first) {
      executor_ = std::make_unique<runtime::FunctionalExecutor>(
          &model_.graph, capacity_ + capacity_ / 4);
      executor_->set_keep_freed_values(false);
      executor_->set_verify_before_run(false);
      executor_->RetainValue(model_.loss);
      for (auto [param, grad] : model_.autodiff.param_grads) {
        executor_->RetainValue(grad);
      }
    }
    {
      ScopedSpan span(tracer, "runtime.executor.bind");
      for (const auto& [id, value] : params_) {
        RETURN_IF_ERROR(executor_->Bind(id, value));
      }
      RETURN_IF_ERROR(executor_->Bind(model_.input, batch.input));
      RETURN_IF_ERROR(executor_->Bind(model_.labels, batch.labels));
    }
    {
      ScopedSpan span(tracer, first ? "runtime.executor.first_run"
                                    : "runtime.executor.run");
      RETURN_IF_ERROR(executor_->Run(program_));
    }
    runtime::StepResult result;
    std::unordered_map<TensorId, Tensor> grads;
    {
      ScopedSpan span(tracer, "runtime.executor.readback");
      for (auto [param, grad] : model_.autodiff.param_grads) {
        ASSIGN_OR_RETURN(Tensor value, executor_->ValueOf(grad));
        grads[param] = std::move(value);
      }
      ASSIGN_OR_RETURN(Tensor loss, executor_->ValueOf(model_.loss));
      result.loss = loss.at(0);
      result.peak_device_bytes = executor_->peak_device_bytes();
    }
    {
      ScopedSpan span(tracer, "runtime.optimizer.step");
      RETURN_IF_ERROR(optimizer_->Step(&params_, grads));
    }
    return result;
  }

  const models::Model& model() const { return model_; }
  const Schedule& schedule() const { return schedule_; }
  const planner::Plan& plan() const { return plan_; }
  const rewrite::Program& program() const { return program_; }
  size_t capacity() const { return capacity_; }
  const std::unordered_map<TensorId, Tensor>& parameters() const {
    return params_;
  }
  const runtime::FunctionalExecutor* executor() const {
    return executor_.get();
  }

 private:
  models::Model model_;
  Schedule schedule_;
  planner::GraphProfile profile_;
  size_t capacity_ = 0;
  planner::Plan plan_;
  rewrite::Program program_;
  std::unordered_map<TensorId, Tensor> params_;
  std::unique_ptr<runtime::SgdOptimizer> optimizer_;
  std::unique_ptr<runtime::FunctionalExecutor> executor_;
};

// Unmanaged forward/backward of `model` on `params` and `batch`.
struct InterpreterCheck {
  bool ok = false;
  float loss = 0;
  double zero_grad_share = 0;  // share of parameter-gradient elements == 0
};

InterpreterCheck RunInterpreter(
    const models::Model& model,
    const std::unordered_map<TensorId, Tensor>& params, const Batch& batch) {
  InterpreterCheck out;
  runtime::Interpreter interp(&model.graph);
  for (const auto& [id, value] : params) {
    if (!interp.Bind(id, value).ok()) return out;
  }
  if (!interp.Bind(model.input, batch.input).ok() ||
      !interp.Bind(model.labels, batch.labels).ok() || !interp.Run().ok()) {
    return out;
  }
  auto loss = interp.ValueOf(model.loss);
  if (!loss.ok()) return out;
  out.loss = (*loss)->at(0);
  int64_t zeros = 0, total = 0;
  for (auto [param, grad] : model.autodiff.param_grads) {
    auto value = interp.ValueOf(grad);
    if (!value.ok()) return out;
    const Tensor& g = **value;
    for (int64_t i = 0; i < g.num_elements(); ++i) zeros += g.at(i) == 0.0f;
    total += g.num_elements();
  }
  out.zero_grad_share =
      total > 0 ? static_cast<double>(zeros) / static_cast<double>(total) : 0;
  out.ok = true;
  return out;
}

bool LossesMatch(float managed, float unmanaged) {
  // The tolerance trainer_test uses for managed-vs-unmanaged losses.
  return std::abs(managed - unmanaged) <=
         1e-4f * std::max(1.0f, std::abs(unmanaged));
}

// The plan, program and simulated iteration of one batch size at a fixed
// budget: the probe of the largest-batch search.
bool Fits(const TrainSpec& spec, int batch, size_t capacity) {
  auto model = spec.build(batch);
  if (!model.ok()) return false;
  auto schedule = BuildSchedule(model->graph);
  if (!schedule.ok()) return false;
  planner::GraphProfile profile =
      planner::ProfileGraph(model->graph, spec.device);
  auto plan = planner::MakePlanner("TSPLIT")->BuildPlan(
      model->graph, *schedule, profile, capacity);
  if (!plan.ok()) return false;
  auto program =
      rewrite::GenerateProgram(model->graph, *schedule, *plan, profile);
  if (!program.ok()) return false;
  runtime::SimExecutor sim(
      sim::WithMemory(spec.device, capacity + capacity / 4));
  return sim.Execute(model->graph, *program).ok();
}

// Largest batch whose plan and simulated iteration fit `capacity`: the
// paper's Table IV question asked at the workload's own scale (exponential
// probe, then binary search).
int SearchMaxBatch(const TrainSpec& spec, size_t capacity) {
  if (!Fits(spec, 1, capacity)) return 0;
  int lo = 1, hi = 2;
  while (hi <= kSearchLimit && Fits(spec, hi, capacity)) {
    lo = hi;
    hi *= 2;
  }
  if (hi > kSearchLimit) return lo;
  while (hi - lo > 1) {
    int mid = lo + (hi - lo) / 2;
    (Fits(spec, mid, capacity) ? lo : hi) = mid;
  }
  return lo;
}

// Mean of the first and the last fifth of the first `window` losses.
std::pair<double, double> LossTrend(std::vector<float> losses,
                                    size_t window) {
  losses.resize(std::min(losses.size(), window));
  size_t k = std::max<size_t>(1, losses.size() / 5);
  double first = 0, last = 0;
  for (size_t i = 0; i < k; ++i) {
    first += losses[i];
    last += losses[losses.size() - 1 - i];
  }
  return {first / static_cast<double>(k), last / static_cast<double>(k)};
}

void PrintPlanSummary(const models::Model& model, const planner::Plan& plan,
                      const rewrite::Program& program, size_t capacity) {
  std::cout << "# model " << model.name << ": capacity " << capacity
            << " B, " << program.steps.size() << " program steps, "
            << plan.CountOpt(MemOpt::kSwap) << " swap, "
            << plan.CountOpt(MemOpt::kRecompute) << " recompute, "
            << plan.CountSplit() << " split tensors\n";
}

// ------------------------------------------------------------- untraced

RunResult RunUntraced(const TrainSpec& spec, const RunOptions& options) {
  RunResult result;
  Checks checks;
  const auto start = Clock::now();
  const runtime::TrainerOptions topts = MakeTrainerOptions(spec);

  // Inputs and the fixed pieces the plan/search operations reuse: made
  // before any timed region.
  auto probe_model = spec.build(spec.batch);
  if (!probe_model.ok()) {
    checks.Expect(false, "model build: " + probe_model.status().ToString());
    result.correct = false;
    return result;
  }
  const std::vector<Batch> data = MakeTask(spec, *probe_model, options.seed);
  auto schedule = BuildSchedule(probe_model->graph);
  planner::GraphProfile profile =
      planner::ProfileGraph(probe_model->graph, spec.device);

  std::unique_ptr<runtime::Trainer> main;
  HostSpeed speed(spec.calibrator);
  TimedSeries setup_s, plan_s, search_s, step_s, loop_s;
  std::vector<float> losses;  // timed steps of the main trainer
  size_t peak = 0;
  int max_batch = -1;
  int next_batch = 0;
  std::vector<double> zero_share;

  auto record_step = [&](const Result<runtime::StepResult>& r) {
    ++result.attempted;
    if (!r.ok()) {
      ++result.failed;
      checks.Expect(false, "step failed: " + r.status().ToString());
      return false;
    }
    peak = std::max(peak, r->peak_device_bytes);
    return true;
  };

  for (int round = 0; round < kMinRounds ||
                      static_cast<int>(step_s.size()) < spec.min_timed_steps ||
                      SecondsSince(start) < options.seconds;
       ++round) {
    // 1. Fresh set-up: build -> Create -> first Step.
    speed.Sample();
    {
      auto t0 = Clock::now();
      auto model = spec.build(spec.batch);
      if (!model.ok()) break;
      auto trainer = runtime::Trainer::Create(std::move(*model), topts);
      if (!trainer.ok()) {
        checks.Expect(false, "Trainer::Create: " + trainer.status().ToString());
        break;
      }
      auto first = (*trainer)->Step(data[0].input, data[0].labels);
      setup_s.AddSince(t0);
      if (!record_step(first)) break;
      if (main == nullptr) {
        main = std::move(*trainer);
        next_batch = 1;
      }
    }
    // 2. One plan of the workload's model at its budget.
    speed.Sample();
    {
      auto t0 = Clock::now();
      auto plan = planner::MakePlanner("TSPLIT")->BuildPlan(
          probe_model->graph, *schedule, profile, main->capacity_bytes());
      plan_s.AddSince(t0);
      checks.Expect(plan.ok(), "BuildPlan at the workload budget");
    }
    // 3. One largest-batch search at the workload's budget.
    speed.Sample();
    {
      auto t0 = Clock::now();
      int found = SearchMaxBatch(spec, main->capacity_bytes());
      search_s.AddSince(t0);
      checks.Expect(max_batch < 0 || found == max_batch,
                    "largest batch is the same on every search");
      max_batch = found;
    }
    // 4. A block of timed steps, then the unmanaged check of its first.
    const Batch& checked = data[static_cast<size_t>(next_batch % kPoolBatches)];
    const std::unordered_map<TensorId, Tensor> snapshot = main->parameters();
    float checked_loss = 0;
    bool block_ok = true;
    for (int i = 0; i < spec.block_steps; ++i) {
      if (i % spec.steps_per_sample == 0) speed.Sample();
      auto l0 = Clock::now();
      const Batch& batch =
          data[static_cast<size_t>(next_batch++ % kPoolBatches)];
      Tensor input = batch.input, labels = batch.labels;
      auto t0 = Clock::now();
      auto r = main->Step(std::move(input), std::move(labels));
      step_s.AddSince(t0);
      loop_s.AddSince(l0);
      if (!record_step(r)) {
        block_ok = false;
        break;
      }
      if (i == 0) checked_loss = r->loss;
      losses.push_back(r->loss);
    }
    speed.Sample();
    if (!block_ok) break;

    InterpreterCheck check = RunInterpreter(main->model(), snapshot, checked);
    checks.Expect(check.ok, "Interpreter run");
    checks.Expect(LossesMatch(checked_loss, check.loss),
                  "managed loss " + std::to_string(checked_loss) +
                      " matches the Interpreter's " +
                      std::to_string(check.loss));
    zero_share.push_back(check.zero_grad_share);
  }
  if (main == nullptr || losses.empty()) {
    result.correct = false;
    return result;
  }

  // Simulated iteration of the trained plan (deterministic, untimed).
  auto program = rewrite::GenerateProgram(main->model().graph, *schedule,
                                          main->plan(), profile);
  double sim_rate = 0;
  if (program.ok()) {
    PrintPlanSummary(main->model(), main->plan(), *program,
                     main->capacity_bytes());
    runtime::SimExecutor sim(sim::WithMemory(
        spec.device, main->capacity_bytes() + main->capacity_bytes() / 4));
    auto stats = sim.Execute(main->model().graph, *program);
    checks.Expect(stats.ok(), "simulated iteration of the trained plan");
    if (stats.ok()) sim_rate = stats->throughput(spec.batch);
  }

  auto [first_loss, last_loss] =
      LossTrend(losses, static_cast<size_t>(spec.min_timed_steps));
  const size_t exec_capacity =
      main->capacity_bytes() + main->capacity_bytes() / 4;
  checks.Expect(last_loss < first_loss,
                "loss falls over the first " +
                    std::to_string(spec.min_timed_steps) +
                    " timed steps: first-fifth mean " +
                    std::to_string(first_loss) + ", last-fifth mean " +
                    std::to_string(last_loss));
  checks.Expect(peak > 0 && peak <= exec_capacity,
                "0 < peak_device_bytes <= executor capacity");
  checks.Expect(max_batch >= spec.batch,
                "the trained batch fits the largest-batch search");
  const std::vector<double> steps = step_s.Scaled(speed);
  std::optional<double> p90 = TailP90(steps);
  checks.Expect(p90.has_value(), "enough timed steps for step_s.p90");

  std::cout << "# " << steps.size() << " timed steps in " << setup_s.size()
            << " rounds; loss over the first " << spec.min_timed_steps
            << " " << first_loss << " -> " << last_loss
            << "; train.zero_grad_share "
            << Sum(zero_share) / static_cast<double>(zero_share.size())
            << "\n# raw step_s.p50 " << Median(step_s.raw())
            << " s; median host-speed scale " << speed.MedianScale() << "\n";

  result.correct = checks.correct;
  result.Add("setup_s", Median(setup_s.Scaled(speed)));
  result.Add("step_s.p50", Median(steps));
  result.Add("step_s.p90", p90.value_or(0));
  result.Add("samples_per_s", static_cast<double>(spec.batch) *
                                  static_cast<double>(steps.size()) /
                                  Sum(loop_s.Scaled(speed)));
  result.Add("peak_device_bytes", static_cast<double>(peak));
  result.Add("plan_s", Median(plan_s.Scaled(speed)));
  result.Add("search_s", Median(search_s.Scaled(speed)));
  result.Add("max_batch", max_batch);
  result.Add("sim_samples_per_s", sim_rate);
  return result;
}

// --------------------------------------------------------------- traced

RunResult RunTraced(const TrainSpec& spec, const RunOptions& options) {
  RunResult result;
  Checks checks;
  Tracer tracer;
  const auto start = Clock::now();
  const runtime::TrainerOptions topts = MakeTrainerOptions(spec);

  auto probe_model = spec.build(spec.batch);
  if (!probe_model.ok()) {
    result.correct = false;
    return result;
  }
  const std::vector<Batch> data = MakeTask(spec, *probe_model, options.seed);

  // The traced pipeline and a Trainer, fed the same batches: their losses
  // must agree step for step.
  TracedTrainer traced;
  Status created = traced.Create(spec, topts, &tracer);
  auto trainer = runtime::Trainer::Create(std::move(*probe_model), topts);
  if (!created.ok() || !trainer.ok()) {
    checks.Expect(false, "traced and untraced set-up");
    result.correct = false;
    return result;
  }
  checks.Expect(traced.capacity() == (*trainer)->capacity_bytes(),
                "traced pipeline derives the Trainer's capacity");

  std::vector<planner::PlannerStats> planner_stats{traced.plan().stats};
  std::map<std::string, std::vector<double>> pass_seconds;
  std::vector<double> zero_share;
  double traced_seconds = 0, untraced_seconds = 0;
  int64_t traced_steps = 0, untraced_steps = 0;
  int next_traced = 0, next_untraced = 0;

  auto step_traced = [&](TracedTrainer* t, const Batch& batch) {
    ++result.attempted;
    auto r = t->Step(batch, &tracer);
    if (!r.ok()) {
      ++result.failed;
      checks.Expect(false, "traced step: " + r.status().ToString());
    }
    return r;
  };

  for (int round = 0;
       round < kMinRounds || SecondsSince(start) < options.seconds; ++round) {
    // A fresh traced set-up (Create split into its layers + first Step).
    {
      TracedTrainer fresh;
      if (!fresh.Create(spec, topts, &tracer).ok()) break;
      if (!step_traced(&fresh, data[0]).ok()) break;
      planner_stats.push_back(fresh.plan().stats);
      for (const auto& ps : fresh.executor()->compiled_program()->pass_stats) {
        pass_seconds[ps.name].push_back(ps.wall_seconds);
      }
    }
    // A traced block, checked against the Interpreter on its first step.
    const Batch& checked =
        data[static_cast<size_t>(next_traced % kPoolBatches)];
    const auto snapshot = traced.parameters();
    std::vector<float> traced_losses;
    auto t0 = Clock::now();
    for (int i = 0; i < spec.block_steps; ++i) {
      auto r = step_traced(
          &traced, data[static_cast<size_t>(next_traced++ % kPoolBatches)]);
      if (!r.ok()) break;
      traced_losses.push_back(r->loss);
      ++traced_steps;
    }
    traced_seconds += SecondsSince(t0);
    // The same block through the Trainer, untraced.
    std::vector<float> untraced_losses;
    t0 = Clock::now();
    for (int i = 0; i < spec.block_steps; ++i) {
      const Batch& batch =
          data[static_cast<size_t>(next_untraced++ % kPoolBatches)];
      ++result.attempted;
      auto r = (*trainer)->Step(batch.input, batch.labels);
      if (!r.ok()) {
        ++result.failed;
        break;
      }
      untraced_losses.push_back(r->loss);
      ++untraced_steps;
    }
    untraced_seconds += SecondsSince(t0);
    checks.Expect(traced_losses == untraced_losses &&
                      static_cast<int>(traced_losses.size()) ==
                          spec.block_steps,
                  "traced pipeline losses equal the Trainer's");
    InterpreterCheck check;
    {
      ScopedSpan span(&tracer, "runtime.interpreter.run");
      check = RunInterpreter(traced.model(), snapshot, checked);
    }
    checks.Expect(check.ok && !traced_losses.empty() &&
                      LossesMatch(traced_losses[0], check.loss),
                  "managed loss matches the Interpreter's");
    zero_share.push_back(check.zero_grad_share);
    if (result.failed > 0) break;
  }
  if (traced_steps == 0 || untraced_steps == 0) {
    result.correct = false;
    return result;
  }

  // The simulated iteration of the traced plan.
  runtime::IterationStats sim_stats;
  {
    runtime::SimExecutor sim(sim::WithMemory(
        spec.device, traced.capacity() + traced.capacity() / 4));
    for (int i = 0; i < 5; ++i) {
      ScopedSpan span(&tracer, "sim.execute");
      auto stats = sim.Execute(traced.model().graph, traced.program());
      checks.Expect(stats.ok(), "simulated iteration");
      if (stats.ok()) sim_stats = *stats;
    }
  }
  if (!options.trace_out.empty() &&
      !tracer.WriteChromeTrace(options.trace_out)) {
    std::cout << "# could not write " << options.trace_out << "\n";
  }

  const auto& plan = traced.plan();
  const auto& program = traced.program();
  const runtime::CompiledProgram* cp =
      traced.executor()->compiled_program();
  PrintPlanSummary(traced.model(), plan, program, traced.capacity());

  result.correct = checks.correct;
  AddPlanningLayers(tracer, planner_stats, traced.model(), traced.schedule(),
                    plan, program, &result);
  double run_s = tracer.MedianSelf("runtime.executor.run");
  result.Add("runtime.compile_s",
             tracer.MedianSelf("runtime.executor.first_run") - run_s);
  for (const char* pass : {"dce", "color", "autotune", "reorder", "batch"}) {
    double seconds = 0, removed = 0;
    for (const auto& p : cp->pass_stats) {
      if (p.name != pass) continue;
      seconds = Median(pass_seconds[pass]);
      removed = static_cast<double>(p.instrs_before) -
                static_cast<double>(p.instrs_after);
    }
    result.Add(std::string("runtime.pass.") + pass + ".s", seconds);
    result.Add(std::string("runtime.pass.") + pass + ".instrs_removed",
               removed);
  }
  result.Add("runtime.compiled.instrs", static_cast<double>(cp->instrs.size()));
  result.Add("runtime.compiled.slots", static_cast<double>(cp->slots.size()));
  result.Add("runtime.compiled.static_bytes",
             static_cast<double>(cp->StaticFootprintBytes()));
  result.Add("runtime.executor.bind_s",
             tracer.MedianSelf("runtime.executor.bind"));
  result.Add("runtime.executor.run_s", run_s);
  result.Add("runtime.executor.readback_s",
             tracer.MedianSelf("runtime.executor.readback"));
  result.Add("runtime.executor.host_bytes",
             static_cast<double>(traced.executor()->host_bytes()));
  result.Add("runtime.optimizer.step_s",
             tracer.MedianSelf("runtime.optimizer.step"));
  result.Add("runtime.interpreter.run_s",
             tracer.MedianSelf("runtime.interpreter.run"));
  result.Add("train.zero_grad_share",
             Sum(zero_share) / static_cast<double>(zero_share.size()));
  AddSimLayers(tracer, sim_stats, &result);
  result.Add("trace.step_self_s", tracer.MedianSelf("step"));
  double traced_rate = static_cast<double>(traced_steps) / traced_seconds;
  double untraced_rate =
      static_cast<double>(untraced_steps) / untraced_seconds;
  result.Add("trace.overhead", untraced_rate / traced_rate - 1);
  return result;
}

}  // namespace

std::optional<RunResult> RunTrainWorkload(const RunOptions& options) {
  TrainSpec spec = MakeSpec(options.workload);
  if (!spec.build) return std::nullopt;
  return options.trace ? RunTraced(spec, options) : RunUntraced(spec, options);
}

}  // namespace tsbench
