// Stage-by-stage replay of core::TS3Net::Forward through the public API.
#ifndef PERFBENCH_STAGES_H_
#define PERFBENCH_STAGES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/ts3net.h"
#include "nn/embedding.h"
#include "nn/inception.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "signal/cwt_plan.h"
#include "signal/wavelet.h"
#include "tensor/tensor.h"

namespace perfbench {

/// Microseconds one forward spent in each of the paper's stages. The core
/// stages are disjoint and in Forward order; cwt, iwt and conv cut across
/// them (CWT runs in the TF-Blocks and in S-GD, IWT in S-GD and the
/// fluctuant head, the inception conv backbone in the TF-Blocks).
struct StageTimes {
  double revin = 0;      // instance normalization and the final denormalize
  double trend = 0;      // moving-average trend decomposition (Eq. 1)
  double period = 0;     // host-side top-k FFT period pick for S-GD (Eq. 2)
  double embedding = 0;  // value projection + positional encoding
  double sgd = 0;        // spectrum-gradient decomposition (Eqs. 9-11)
  double tf_block = 0;   // TF-Blocks plus their residual adds (Eqs. 12-13)
  double heads = 0;      // regular, fluctuant and trend heads (Eqs. 14-17)
  double cwt = 0;
  double iwt = 0;
  double conv = 0;

  double Total() const {
    return revin + trend + period + embedding + sgd + tf_block + heads;
  }
};

/// core::TFBlock in kWavelet mode, rebuilt from public classes so the CWT
/// and the conv backbone can be timed apart. Children and parameters are
/// registered in TFBlock's order under TFBlock's names.
class StagedTfBlock : public ts3net::nn::Module {
 public:
  StagedTfBlock(const std::vector<const ts3net::WaveletBank*>& banks,
                const ts3net::core::TS3NetOptions& options, ts3net::Rng* rng);

  ts3net::Tensor Forward(const ts3net::Tensor& x) override;
  ts3net::Tensor ForwardTimed(const ts3net::Tensor& x, StageTimes* times);

 private:
  std::vector<std::shared_ptr<const ts3net::CwtDensePlan>> dense_;
  std::vector<std::shared_ptr<const ts3net::CwtFftPlan>> fft_;
  std::vector<std::shared_ptr<ts3net::nn::ConvBackbone2d>> backbones_;
  std::vector<std::shared_ptr<ts3net::nn::Linear>> collapse_;
  std::vector<std::shared_ptr<ts3net::nn::Linear>> feedforward_;
  ts3net::Tensor merge_logits_;
};

/// core::TS3Net (the paper's configuration: wavelet TF-Blocks, trend
/// decomposition and S-GD all on) with a parameter tree identical to
/// TS3Net's, so nn::CopyParameters loads a TS3Net's weights into it and its
/// output can be compared bitwise with TS3Net::Forward.
class StagedTs3Net : public ts3net::nn::Module {
 public:
  StagedTs3Net(const ts3net::core::TS3NetOptions& options, ts3net::Rng* rng);

  ts3net::Tensor Forward(const ts3net::Tensor& x) override;
  /// Forward that adds each stage's wall time to `times`.
  ts3net::Tensor ForwardTimed(const ts3net::Tensor& x, StageTimes* times);

  /// Multiply-adds x2 of every inception conv in one forward of `batch`
  /// windows, computed from the layer shapes (not counted at run time).
  double ConvBackboneFlops(int64_t batch) const;

 private:
  ts3net::core::TS3NetOptions options_;
  std::vector<std::unique_ptr<ts3net::WaveletBank>> banks_;
  std::shared_ptr<const ts3net::CwtDensePlan> sgd_dense_;
  std::shared_ptr<const ts3net::CwtFftPlan> sgd_fft_;
  std::shared_ptr<ts3net::nn::DataEmbedding> embedding_;
  std::vector<std::shared_ptr<StagedTfBlock>> blocks_;
  std::shared_ptr<ts3net::core::PredictionHead> regular_head_;
  std::shared_ptr<ts3net::core::PredictionHead> fluctuant_head_;
  std::shared_ptr<ts3net::core::TrendAutoregression> trend_head_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STAGES_H_
