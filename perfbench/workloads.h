// The benchmark's workloads and what they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  /// Offered rate of the open-loop workload, requests per second.
  double open_rate = 0;
  /// CPUs this process may run on: generator threads, closed-loop clients
  /// and the training pool are sized from it.
  int nproc = 1;
};

/// Metric name -> value. A workload fills the metrics of the layers it runs;
/// the ones it does not run are reported as 0.
using Values = std::map<std::string, double>;

struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// ts3net_open and lstm_closed.
Outcome RunServeWorkload(const RunOptions& options, Values* values);
/// ts3net_train_long.
Outcome RunTrainWorkload(const RunOptions& options, Values* values);

/// A z-scored ETTh1-like series [L, channels] generated from `seed`
/// (data::DatasetPreset("ETTh1") + data::GenerateSynthetic).
ts3net::Tensor MakeSeries(uint64_t seed, int64_t channels);

/// Rows [start, start + len) of a [L, C] series as a new [len, C] tensor.
ts3net::Tensor SliceRows(const ts3net::Tensor& series, int64_t start,
                         int64_t len);

/// Stacks equally shaped [T, C] windows into one [B, T, C] batch.
ts3net::Tensor StackWindows(const std::vector<ts3net::Tensor>& windows);

/// Bitwise equality of two float buffers of equal length.
bool SameBits(const float* a, const float* b, int64_t n);

/// Number of setups per run; setup_s reports their median.
inline constexpr int kSetups = 3;

/// Bounds the traced run enforces. |core.unattributed_pct| above
/// kStageRemainderBoundPct means the stage replay missed part of the
/// forward; an in-batcher response step above kResponseRemainderBoundUs
/// means the flight record's latency is not queue wait + exec + response.
inline constexpr double kStageRemainderBoundPct = 10.0;
inline constexpr double kResponseRemainderBoundUs = 50.0;

/// Result of timing the real forward and the stage replay on the same
/// inputs (see StagedTs3Net).
struct StageReport {
  bool bitwise_equal = true;
  int64_t reps = 0;
  double forward_us = 0;  // median TS3Net::Forward
  double unattributed_pct = 0;
};

/// Alternates TS3Net::Forward and the stage replay (weights copied from
/// `model`) over `inputs` under NoGradGuard in eval mode for about
/// `budget_s` seconds, checks the two outputs are bitwise equal, and
/// writes the core.*, signal.* and nn.* metrics into `values`.
StageReport RunStagePass(ts3net::nn::Module* model,
                         const ts3net::core::TS3NetOptions& options,
                         const std::vector<ts3net::Tensor>& inputs,
                         double budget_s, Values* values);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
