// ts3net_train_long: TS3Net training steps at the long lookback.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/threadpool.h"
#include "common/transform_cache.h"
#include "core/ts3net.h"
#include "harness.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ts3net::Tensor;
namespace core = ts3net::core;
namespace obs = ts3net::obs;

constexpr int64_t kBatch = 8;
// Distinct training batches the steps cycle through.
constexpr int64_t kBatches = 16;
// Fewest steps a phase runs, whatever its time budget.
constexpr int64_t kMinSteps = 11;

core::TS3NetOptions TrainOptions() {
  core::TS3NetOptions o;
  o.seq_len = 336;
  o.pred_len = 96;
  o.channels = 7;
  o.d_model = 16;
  o.d_ff = 16;
  o.lambda = 8;
  return o;
}

struct Batch {
  Tensor x;  // [B, T, C]
  Tensor y;  // [B, H, C]
};

struct StepTimes {
  double forward_ms = 0;  // Module::Forward + MseLoss
  double backward_ms = 0;
  double optimizer_ms = 0;  // Adam::ZeroGrad + Adam::Step
  double total_ms = 0;
  int64_t allocs = 0;
  bool finite = true;
};

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

StepTimes Step(core::TS3Net* model, ts3net::nn::Adam* adam, const Batch& b) {
  StepTimes s;
  const int64_t allocs = ts3net::TensorAllocsOnThisThread();
  const int64_t t0 = obs::NowNanos();
  adam->ZeroGrad();
  const int64_t t1 = obs::NowNanos();
  Tensor loss = ts3net::nn::MseLoss(model->Forward(b.x), b.y);
  const int64_t t2 = obs::NowNanos();
  loss.Backward();
  const int64_t t3 = obs::NowNanos();
  adam->Step();
  const int64_t t4 = obs::NowNanos();
  s.forward_ms = Ms(t2 - t1);
  s.backward_ms = Ms(t3 - t2);
  s.optimizer_ms = Ms(t1 - t0) + Ms(t4 - t3);
  s.total_ms = Ms(t4 - t0);
  s.allocs = ts3net::TensorAllocsOnThisThread() - allocs;
  s.finite = std::isfinite(loss.item());
  return s;
}

struct Trainer {
  std::shared_ptr<core::TS3Net> model;
  std::unique_ptr<ts3net::nn::Adam> adam;
};

struct TrainPhase {
  std::vector<StepTimes> steps;
  double wall_s = 0;
  int64_t nonfinite = 0;
  // Windows per second at the median step time, so a burst of host
  // contention during a few steps does not move it.
  double windows_per_s() const {
    return kBatch * 1e3 / Summarize(Field(&StepTimes::total_ms)).p50;
  }
  std::vector<double> Field(double StepTimes::*field) const {
    std::vector<double> v;
    for (const StepTimes& s : steps) v.push_back(s.*field);
    return v;
  }
};

// Steps until `seconds` of step time have passed (at least kMinSteps).
// `before` and `after` run around every step, outside its timed region.
template <typename Before, typename After>
TrainPhase RunSteps(Trainer* t, const std::vector<Batch>& batches,
                    ts3net::Rng* pick, double seconds, Before before,
                    After after) {
  TrainPhase phase;
  const int64_t start = obs::NowNanos();
  const auto stop = start + static_cast<int64_t>(seconds * 1e9);
  double wall_ms = 0;
  while (static_cast<int64_t>(phase.steps.size()) < kMinSteps ||
         obs::NowNanos() < stop) {
    const Batch& b = batches[pick->UniformInt(batches.size())];
    before();
    phase.steps.push_back(Step(t->model.get(), t->adam.get(), b));
    after();
    wall_ms += phase.steps.back().total_ms;
    if (!phase.steps.back().finite) ++phase.nonfinite;
  }
  phase.wall_s = wall_ms / 1e3;
  return phase;
}

int64_t SumBusyUs() {
  int64_t sum = 0;
  for (const auto& [name, value] :
       obs::MetricsRegistry::Global()->CounterValues()) {
    if (name.rfind("threadpool/t", 0) == 0 &&
        name.size() > 8 && name.compare(name.size() - 8, 8, "/busy_us") == 0) {
      sum += value;
    }
  }
  return sum;
}

}  // namespace

Outcome RunTrainWorkload(const RunOptions& options, Values* values) {
  const core::TS3NetOptions o = TrainOptions();
  ts3net::ThreadPool::SetGlobalNumThreads(options.nproc);

  const Tensor series = MakeSeries(options.seed, o.channels);
  ts3net::Rng data_rng(options.seed ^ 0x7a1b5eedULL);
  const int64_t span = o.seq_len + o.pred_len;
  std::vector<Batch> batches;
  for (int64_t i = 0; i < kBatches; ++i) {
    std::vector<Tensor> xs, ys;
    for (int64_t j = 0; j < kBatch; ++j) {
      const auto start = static_cast<int64_t>(
          data_rng.UniformInt(static_cast<uint64_t>(series.dim(0) - span + 1)));
      xs.push_back(SliceRows(series, start, o.seq_len));
      ys.push_back(SliceRows(series, start + o.seq_len, o.pred_len));
    }
    batches.push_back({StackWindows(xs), StackWindows(ys)});
  }

  // Set-up: build the model (filling the plan cache) and the optimizer, and
  // run the first step, which sizes every buffer.
  auto* metrics = obs::MetricsRegistry::Global();
  obs::Counter* plan_hits = metrics->counter("cache/plan/hits");
  obs::Counter* plan_misses = metrics->counter("cache/plan/misses");
  std::vector<double> setup_s;
  double plan_hit_ratio = 0;
  Trainer trainer;
  Outcome out;
  for (int k = 0; k < kSetups; ++k) {
    trainer = Trainer();
    ts3net::TransformCache::Global()->Clear();
    const int64_t hits = plan_hits->value();
    const int64_t misses = plan_misses->value();
    const int64_t t0 = obs::NowNanos();
    ts3net::Rng rng(options.seed);
    trainer.model = std::make_shared<core::TS3Net>(o, &rng);
    trainer.adam =
        std::make_unique<ts3net::nn::Adam>(trainer.model->Parameters());
    const StepTimes first = Step(trainer.model.get(), trainer.adam.get(),
                                 batches[0]);
    setup_s.push_back(static_cast<double>(obs::NowNanos() - t0) / 1e9);
    out.attempted += 1;
    if (!first.finite) ++out.failed;
    const auto h = static_cast<double>(plan_hits->value() - hits);
    const double m = static_cast<double>(plan_misses->value() - misses);
    plan_hit_ratio = h + m > 0 ? h / (h + m) : 0;
  }

  Note(ts3net::StrFormat(
      "%s: TS3Net training, T=%lld H=%lld C=%lld d_model=%lld lambda=%d, "
      "batch %lld, %d pool threads",
      options.workload.c_str(), static_cast<long long>(o.seq_len),
      static_cast<long long>(o.pred_len), static_cast<long long>(o.channels),
      static_cast<long long>(o.d_model), o.lambda,
      static_cast<long long>(kBatch), options.nproc));
  ts3net::Rng pick(options.seed ^ 0x51e9ULL);
  const auto nothing = [] {};
  const TrainPhase phase =
      RunSteps(&trainer, batches, &pick, options.seconds, nothing, nothing);
  out.attempted += static_cast<int64_t>(phase.steps.size());
  out.failed += phase.nonfinite;
  const Summary step_ms = Summarize(phase.Field(&StepTimes::total_ms));
  Note(ts3net::StrFormat(
      "steps: %lld, %lld non-finite losses; step p50 %.1f ms, tail p%.1f "
      "%.1f ms; %.2f windows/s",
      static_cast<long long>(step_ms.n), static_cast<long long>(phase.nonfinite),
      step_ms.p50, step_ms.tail_pct, step_ms.tail, phase.windows_per_s()));

  Values& v = *values;
  if (!options.trace) {
    v["setup_s"] = Summarize(setup_s).p50;
    v["p50_ms"] = step_ms.p50;
    v["tail_ms"] = step_ms.tail;
    v["windows_per_s"] = phase.windows_per_s();
  } else {
    v["cache.plan_hit_ratio"] = plan_hit_ratio;
    v["train.forward_ms"] = Summarize(phase.Field(&StepTimes::forward_ms)).p50;
    v["train.backward_ms"] = Summarize(phase.Field(&StepTimes::backward_ms)).p50;
    v["train.optimizer_ms"] =
        Summarize(phase.Field(&StepTimes::optimizer_ms)).p50;
    std::vector<double> allocs;
    for (const StepTimes& s : phase.steps) {
      allocs.push_back(static_cast<double>(s.allocs));
    }
    v["tensor.allocs_per_step"] = Summarize(allocs).p50;

    // The pool reports busy time and queue waits only while tracing; each
    // step restarts the trace so span memory stays bounded. One warm traced
    // step creates the pool's metrics before the baseline is read.
    const auto start_trace = [] { obs::StartTracing(); };
    const auto stop_trace = [] { obs::StopTracing(); };
    start_trace();
    if (!Step(trainer.model.get(), trainer.adam.get(), batches[0]).finite) {
      ++out.failed;
    }
    stop_trace();
    obs::Histogram* queue_wait = metrics->histogram("threadpool/queue_wait_us");
    const obs::HistogramSnapshot wait_before = queue_wait->Snapshot();
    const int64_t busy_before = SumBusyUs();
    const TrainPhase traced = RunSteps(&trainer, batches, &pick,
                                       options.seconds / 4, start_trace,
                                       stop_trace);
    out.attempted += static_cast<int64_t>(traced.steps.size()) + 1;
    out.failed += traced.nonfinite;
    const double workers = options.nproc - 1;
    v["threadpool.busy_share"] =
        workers > 0 ? static_cast<double>(SumBusyUs() - busy_before) /
                          (workers * traced.wall_s * 1e6)
                    : 0;
    v["threadpool.queue_wait_p99_us"] =
        workers > 0 ? queue_wait->Snapshot().Since(wait_before).Percentile(99)
                    : 0;
    const double traced_p50 =
        Summarize(traced.Field(&StepTimes::total_ms)).p50;
    v["trace.p50_overhead_pct"] = 100 * (traced_p50 - step_ms.p50) / step_ms.p50;
    v["trace.throughput_overhead_pct"] =
        100 * (phase.windows_per_s() - traced.windows_per_s()) /
        phase.windows_per_s();
    Note(ts3net::StrFormat("traced: step p50 %.1f ms, %.2f windows/s",
                           traced_p50, traced.windows_per_s()));

    std::vector<Tensor> inputs;
    for (const Batch& b : batches) inputs.push_back(b.x);
    const StageReport stages =
        RunStagePass(trainer.model.get(), o, inputs, 3.0, values);
    Note(ts3net::StrFormat(
        "stage replay: %lld reps at batch %lld (inference forward), forward "
        "%.1f us, unattributed %.2f%% (bound %.0f%%), bitwise %s; conv FLOPs "
        "from layer shapes",
        static_cast<long long>(stages.reps), static_cast<long long>(kBatch),
        stages.forward_us, stages.unattributed_pct, kStageRemainderBoundPct,
        stages.bitwise_equal ? "equal" : "DIFFERENT"));
    if (!stages.bitwise_equal ||
        std::abs(stages.unattributed_pct) > kStageRemainderBoundPct) {
      Note("FAILED: the stage replay does not reconcile with TS3Net::Forward");
      out.correct = false;
    }
  }
  if (out.failed > 0) out.correct = false;
  return out;
}

}  // namespace perfbench
