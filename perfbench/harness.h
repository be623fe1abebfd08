// Workload-independent pieces of the benchmark: the arrival schedule, the
// percentile rules, the metric report and the self-tests that pin them.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Samples every reported tail must leave above it.
inline constexpr int64_t kTailBeyond = 10;

/// Highest percentile the bounded tail metric reports. In the open loop
/// about a fifth of the requests arrive while another is running and wait
/// up to one forward; a few percent wait behind two. Over ten seeds on a
/// host with heavy CPU steal, p95 and p90 of a run's ~500 requests spread
/// 33% and 39% (interquartile range over median) while p50 stayed within
/// 10%; p75, the upper edge of the requests that did not wait, tracks p50.
/// The report lines still print p90 and p99.
inline constexpr double kTailCapPct = 75.0;

/// Arrival offsets in nanoseconds from the start of a phase for `n` Poisson
/// arrivals at `rate_per_s`. Gaps are exponential draws from a generator
/// seeded with `seed`, rescaled so the last arrival lands exactly at
/// n / rate_per_s. The offered rate is therefore a property of the schedule
/// alone; it never depends on how fast the system under test runs.
std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     int64_t n);

/// Sorted index of the nearest-rank `pct` percentile of `n` samples.
int64_t RankIndex(int64_t n, double pct);

/// Sorted index of the highest nearest-rank percentile, at most `cap_pct`,
/// that leaves at least kTailBeyond samples above it; -1 when n is too
/// small for any.
int64_t TailIndex(int64_t n, double cap_pct);

/// Median and tail of a sample. `tail_pct` records which percentile the
/// tail is (the cap once there are enough samples).
struct Summary {
  int64_t n = 0;
  double mean = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;
};
/// Returns n = 0 and zeros for an empty sample; a non-empty sample too small
/// for a tail reports its maximum with tail_pct = 100.
Summary Summarize(std::vector<double> values, double cap_pct = kTailCapPct);

/// Samples per slice for SummarizeSliced: enough that each slice's tail
/// leaves kTailBeyond samples above it.
inline constexpr int64_t kSliceSamples = 100;

/// Summarize over a sample in completion order, except that p50 and the
/// tail are the medians of the p50s and tails of consecutive kSliceSamples
/// slices (a short last slice joins the one before). A few seconds of host
/// contention then move a few slices, not the reported figures. With fewer
/// than two slices it equals Summarize.
Summary SummarizeSliced(const std::vector<double>& in_order,
                        double cap_pct = kTailCapPct);

/// True when `name` is 1..64 characters of [A-Za-z0-9_.-] starting with a
/// letter or digit.
bool ValidMetricName(const std::string& name);

/// Collects metrics and prints the result line: one JSON object with the
/// keys correct, attempted, failed and metrics, as the last line of stdout.
class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value);
  /// A non-finite value or an invalid name marks the report broken.
  bool ok() const { return ok_; }
  void Print(bool correct, int64_t attempted, int64_t failed) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Entry> entries_;
  bool ok_ = true;
};

/// Prints "# " + text on stdout: human-readable report lines that precede
/// the result line.
void Note(const std::string& text);

/// Runs the harness self-tests; returns the number of failures.
int RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
