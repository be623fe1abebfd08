#include "stages.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "common/obs/trace.h"
#include "harness.h"
#include "nn/revin.h"
#include "signal/cwt.h"
#include "signal/period.h"
#include "signal/trend.h"
#include "tensor/autograd_mode.h"
#include "tensor/ops.h"
#include "workloads.h"

namespace perfbench {

using ts3net::Tensor;
namespace core = ts3net::core;
namespace nn = ts3net::nn;

namespace {

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// The plan kind TFBlock and SpectrumGradientLayer pick at construction.
void GetPlan(const ts3net::WaveletBank& bank, int64_t seq_len,
             std::shared_ptr<const ts3net::CwtDensePlan>* dense,
             std::shared_ptr<const ts3net::CwtFftPlan>* fft) {
  if (ts3net::DefaultCwtImpl() == ts3net::CwtImpl::kFft) {
    *fft = ts3net::GetFftCwtPlan(bank, seq_len);
  } else {
    *dense = ts3net::GetDenseCwtPlan(bank, seq_len);
  }
}

Tensor Cwt(const Tensor& x,
           const std::shared_ptr<const ts3net::CwtDensePlan>& dense,
           const std::shared_ptr<const ts3net::CwtFftPlan>& fft) {
  return fft ? ts3net::CwtAmplitudeFftOp(x, fft)
             : ts3net::CwtAmplitudeOp(x, dense->w_re, dense->w_im);
}

// Charges the time since the previous lap to one stage.
class Lap {
 public:
  Lap() : last_(ts3net::obs::NowNanos()) {}
  void To(double* stage_us) {
    const int64_t now = ts3net::obs::NowNanos();
    *stage_us += Us(now - last_);
    last_ = now;
  }

 private:
  int64_t last_;
};

}  // namespace

StagedTfBlock::StagedTfBlock(const std::vector<const ts3net::WaveletBank*>& banks,
                             const core::TS3NetOptions& options,
                             ts3net::Rng* rng) {
  const int64_t lambda = banks[0]->num_subbands();
  for (size_t i = 0; i < banks.size(); ++i) {
    dense_.emplace_back();
    fft_.emplace_back();
    GetPlan(*banks[i], options.seq_len, &dense_.back(), &fft_.back());
    const std::string id = std::to_string(i);
    backbones_.push_back(RegisterModule(
        "backbone" + id,
        std::make_shared<nn::ConvBackbone2d>(options.d_model, options.d_ff,
                                             options.num_kernels, rng)));
    collapse_.push_back(RegisterModule(
        "collapse" + id, std::make_shared<nn::Linear>(lambda, 1, rng)));
    feedforward_.push_back(RegisterModule(
        "feedforward" + id,
        std::make_shared<nn::Linear>(options.d_model, options.d_model, rng)));
  }
  merge_logits_ = RegisterParameter(
      "merge_logits",
      Tensor::Zeros({static_cast<int64_t>(backbones_.size())}));
}

Tensor StagedTfBlock::Forward(const Tensor& x) {
  StageTimes unused;
  return ForwardTimed(x, &unused);
}

Tensor StagedTfBlock::ForwardTimed(const Tensor& x, StageTimes* times) {
  std::vector<Tensor> branch_outputs;
  for (size_t i = 0; i < backbones_.size(); ++i) {
    const int64_t t0 = ts3net::obs::NowNanos();
    Tensor x2d = Cwt(x, dense_[i], fft_[i]);  // [B, lambda, T, D]
    const int64_t t1 = ts3net::obs::NowNanos();
    Tensor planes = ts3net::Permute(x2d, {0, 3, 1, 2});
    const int64_t t2 = ts3net::obs::NowNanos();
    planes = backbones_[i]->Forward(planes);
    const int64_t t3 = ts3net::obs::NowNanos();
    times->cwt += Us(t1 - t0);
    times->conv += Us(t3 - t2);
    Tensor collapsed = ts3net::Permute(planes, {0, 1, 3, 2});
    collapsed = ts3net::Squeeze(collapse_[i]->Forward(collapsed), 3);
    Tensor out1d = ts3net::Permute(collapsed, {0, 2, 1});
    branch_outputs.push_back(feedforward_[i]->Forward(ts3net::Gelu(out1d)));
  }
  Tensor weights = ts3net::Softmax(merge_logits_, 0);
  Tensor merged;
  for (size_t i = 0; i < branch_outputs.size(); ++i) {
    Tensor w_i = ts3net::Reshape(
        ts3net::Slice(weights, 0, static_cast<int64_t>(i), 1), {});
    Tensor term = ts3net::Mul(branch_outputs[i], w_i);
    merged = merged.defined() ? ts3net::Add(merged, term) : term;
  }
  return merged;
}

StagedTs3Net::StagedTs3Net(const core::TS3NetOptions& options,
                           ts3net::Rng* rng)
    : options_(options) {
  TS3_CHECK(options.tf_mode == core::TfMode::kWavelet && options.use_sgd &&
            options.use_trend_decomposition)
      << "the stage replay covers the paper's full TS3Net only";
  std::vector<const ts3net::WaveletBank*> bank_ptrs;
  for (int order : options.branch_orders) {
    ts3net::WaveletBankOptions bo;
    bo.num_subbands = options.lambda;
    bo.order = order;
    banks_.push_back(std::make_unique<ts3net::WaveletBank>(
        ts3net::WaveletBank::Create(bo)));
    bank_ptrs.push_back(banks_.back().get());
  }
  GetPlan(*banks_[0], options.seq_len, &sgd_dense_, &sgd_fft_);
  embedding_ = RegisterModule(
      "embedding",
      std::make_shared<nn::DataEmbedding>(options.channels, options.d_model,
                                          options.seq_len, rng,
                                          options.dropout));
  for (int l = 0; l < options.num_blocks; ++l) {
    blocks_.push_back(RegisterModule(
        "tf_block" + std::to_string(l),
        std::make_shared<StagedTfBlock>(bank_ptrs, options, rng)));
  }
  regular_head_ = RegisterModule(
      "regular_head",
      std::make_shared<core::PredictionHead>(options.seq_len, options.pred_len,
                                             options.d_model, options.channels,
                                             rng));
  fluctuant_head_ = RegisterModule(
      "fluctuant_head",
      std::make_shared<core::PredictionHead>(options.seq_len, options.pred_len,
                                             options.d_model, options.channels,
                                             rng, /*zero_init_output=*/true));
  trend_head_ = RegisterModule(
      "trend_head", std::make_shared<core::TrendAutoregression>(
                        options.seq_len, options.pred_len, rng));
}

Tensor StagedTs3Net::Forward(const Tensor& x) {
  StageTimes unused;
  return ForwardTimed(x, &unused);
}

Tensor StagedTs3Net::ForwardTimed(const Tensor& x, StageTimes* times) {
  const int64_t seq_len = options_.seq_len;
  Lap lap;
  nn::InstanceStats stats = nn::ComputeInstanceStats(x);
  Tensor xn = nn::InstanceNormalize(x, stats);
  lap.To(&times->revin);

  ts3net::TrendDecomposition td =
      ts3net::DecomposeTrend(xn, options_.trend_kernels);
  lap.To(&times->trend);
  Tensor y_trend = trend_head_->Forward(td.trend);
  lap.To(&times->heads);

  int64_t t_f = seq_len / 2;
  Tensor batch_mean = ts3net::Mean(td.seasonal, {0}).Detach();
  for (const ts3net::DetectedPeriod& p :
       ts3net::DetectTopKPeriods(batch_mean, 3)) {
    if (p.period <= seq_len / 2) {
      t_f = p.period;
      break;
    }
  }
  t_f = std::clamp<int64_t>(t_f, 1, seq_len);
  lap.To(&times->period);

  Tensor h = embedding_->Forward(td.seasonal);
  lap.To(&times->embedding);

  Tensor fluct_acc;
  for (const std::shared_ptr<StagedTfBlock>& block : blocks_) {
    const int64_t t0 = ts3net::obs::NowNanos();
    Tensor amp = Cwt(h, sgd_dense_, sgd_fft_);
    const int64_t t1 = ts3net::obs::NowNanos();
    Tensor delta = amp;
    if (t_f != seq_len) {
      Tensor prev = ts3net::Pad(ts3net::Slice(amp, 2, 0, seq_len - t_f), 2,
                                t_f, 0, 0.0f);
      delta = ts3net::Sub(amp, prev);
    }
    const int64_t t2 = ts3net::obs::NowNanos();
    Tensor fluct_1d = ts3net::IwtOp(delta, *banks_[0]);
    const int64_t t3 = ts3net::obs::NowNanos();
    times->cwt += Us(t1 - t0);
    times->iwt += Us(t3 - t2);
    Tensor regular = ts3net::Sub(h, fluct_1d);
    fluct_acc = fluct_acc.defined() ? ts3net::Add(fluct_acc, delta) : delta;
    lap.To(&times->sgd);
    h = ts3net::Add(block->ForwardTimed(regular, times), regular);
    lap.To(&times->tf_block);
  }

  Tensor y = regular_head_->Forward(h);
  const int64_t t0 = ts3net::obs::NowNanos();
  Tensor xf = ts3net::IwtOp(fluct_acc, *banks_[0]);
  times->iwt += Us(ts3net::obs::NowNanos() - t0);
  y = ts3net::Add(y, fluctuant_head_->Forward(xf));
  y = ts3net::Add(y, y_trend);
  lap.To(&times->heads);

  Tensor out = nn::InstanceDenormalize(y, stats);
  lap.To(&times->revin);
  return out;
}

double StagedTs3Net::ConvBackboneFlops(int64_t batch) const {
  // Each inception block averages num_kernels same-padded convolutions with
  // kernels 1x1, 3x3, ...; a backbone is d_model -> d_ff -> d_model over a
  // [lambda, T] plane.
  double taps = 0;
  for (int k = 0; k < options_.num_kernels; ++k) {
    taps += static_cast<double>((2 * k + 1) * (2 * k + 1));
  }
  const double plane = static_cast<double>(batch) *
                       static_cast<double>(options_.lambda) *
                       static_cast<double>(options_.seq_len);
  const double per_backbone = 2.0 * 2.0 * plane *
                              static_cast<double>(options_.d_model) *
                              static_cast<double>(options_.d_ff) * taps;
  return per_backbone * static_cast<double>(options_.num_blocks) *
         static_cast<double>(options_.branch_orders.size());
}

StageReport RunStagePass(nn::Module* model,
                         const core::TS3NetOptions& options,
                         const std::vector<Tensor>& inputs, double budget_s,
                         Values* values) {
  ts3net::Rng rng(1);
  StagedTs3Net staged(options, &rng);
  const ts3net::Status copied = nn::CopyParameters(*model, &staged);
  TS3_CHECK(copied.ok()) << copied.ToString();
  const bool was_training = model->training();
  model->SetTraining(false);
  staged.SetTraining(false);
  ts3net::NoGradGuard no_grad;

  StageReport report;
  std::vector<double> forward_us;
  std::vector<StageTimes> stages;
  const auto deadline =
      ts3net::obs::NowNanos() + static_cast<int64_t>(budget_s * 1e9);
  for (size_t r = 0; r < 200 && (r < 5 || ts3net::obs::NowNanos() < deadline);
       ++r) {
    // Alternate which of the two runs first, so neither always finds the
    // caches warmed by the other.
    const Tensor& x = inputs[r % inputs.size()];
    StageTimes times;
    Tensor got;
    if (r % 2 == 1) got = staged.ForwardTimed(x, &times);
    const int64_t t0 = ts3net::obs::NowNanos();
    Tensor want = model->Forward(x);
    forward_us.push_back(Us(ts3net::obs::NowNanos() - t0));
    if (r % 2 == 0) got = staged.ForwardTimed(x, &times);
    stages.push_back(times);
    if (got.shape() != want.shape() ||
        !SameBits(got.data(), want.data(), got.numel())) {
      report.bitwise_equal = false;
    }
  }
  model->SetTraining(was_training);

  const auto median = [&](double StageTimes::*field) {
    std::vector<double> v;
    for (const StageTimes& t : stages) v.push_back(t.*field);
    return Summarize(v).p50;
  };
  std::vector<double> totals;
  for (const StageTimes& t : stages) totals.push_back(t.Total());
  report.reps = static_cast<int64_t>(stages.size());
  report.forward_us = Summarize(forward_us).p50;
  report.unattributed_pct =
      100.0 * (report.forward_us - Summarize(totals).p50) / report.forward_us;

  Values& v = *values;
  v["core.forward_us"] = report.forward_us;
  v["core.revin_us"] = median(&StageTimes::revin);
  v["core.trend_us"] = median(&StageTimes::trend);
  v["core.period_us"] = median(&StageTimes::period);
  v["core.embedding_us"] = median(&StageTimes::embedding);
  v["core.sgd_us"] = median(&StageTimes::sgd);
  v["core.tf_block_us"] = median(&StageTimes::tf_block);
  v["core.heads_us"] = median(&StageTimes::heads);
  v["core.unattributed_pct"] = report.unattributed_pct;
  v["signal.cwt_us"] = median(&StageTimes::cwt);
  v["signal.iwt_us"] = median(&StageTimes::iwt);
  const double conv_us = median(&StageTimes::conv);
  v["nn.conv_backbone_us"] = conv_us;
  v["nn.conv_backbone_gflops"] =
      staged.ConvBackboneFlops(inputs[0].dim(0)) / (conv_us * 1e3);
  return report;
}

}  // namespace perfbench
