#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "data/synthetic.h"
#include "workloads.h"

namespace perfbench {

using ts3net::Tensor;

Tensor MakeSeries(uint64_t seed, int64_t channels) {
  ts3net::Result<ts3net::data::SyntheticOptions> preset =
      ts3net::data::DatasetPreset("ETTh1", /*length_fraction=*/0.25);
  TS3_CHECK(preset.ok()) << preset.status().ToString();
  ts3net::data::SyntheticOptions options = preset.value();
  options.seed = seed;
  const Tensor raw = ts3net::data::GenerateSynthetic(options).values;
  TS3_CHECK_LE(channels, raw.dim(1));
  const int64_t rows = raw.dim(0);
  const int64_t width = raw.dim(1);
  std::vector<float> out(static_cast<size_t>(rows * channels));
  for (int64_t c = 0; c < channels; ++c) {
    double sum = 0, sum_sq = 0;
    for (int64_t t = 0; t < rows; ++t) {
      const double v = raw.data()[t * width + c];
      sum += v;
      sum_sq += v * v;
    }
    const double mean = sum / static_cast<double>(rows);
    const double sd = std::sqrt(
        std::max(sum_sq / static_cast<double>(rows) - mean * mean, 1e-12));
    for (int64_t t = 0; t < rows; ++t) {
      out[static_cast<size_t>(t * channels + c)] = static_cast<float>(
          (raw.data()[t * width + c] - mean) / sd);
    }
  }
  return Tensor::FromData(out, {rows, channels});
}

Tensor SliceRows(const Tensor& series, int64_t start, int64_t len) {
  const int64_t channels = series.dim(1);
  TS3_CHECK(start >= 0 && start + len <= series.dim(0));
  const float* from = series.data() + start * channels;
  return Tensor::FromData(std::vector<float>(from, from + len * channels),
                          {len, channels});
}

Tensor StackWindows(const std::vector<Tensor>& windows) {
  const ts3net::Shape& shape = windows.at(0).shape();
  std::vector<float> out;
  out.reserve(windows.size() * static_cast<size_t>(windows[0].numel()));
  for (const Tensor& w : windows) {
    TS3_CHECK(w.shape() == shape);
    out.insert(out.end(), w.data(), w.data() + w.numel());
  }
  return Tensor::FromData(
      out, {static_cast<int64_t>(windows.size()), shape[0], shape[1]});
}

bool SameBits(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

}  // namespace perfbench
