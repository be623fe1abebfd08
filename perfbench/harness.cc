#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/random.h"

namespace perfbench {

std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     int64_t n) {
  std::vector<int64_t> schedule(static_cast<size_t>(std::max<int64_t>(n, 0)));
  if (n <= 0) return schedule;
  ts3net::Rng rng(seed);
  std::vector<double> raw(schedule.size());
  double t = 0;
  for (double& at : raw) {
    t += -std::log(std::max(rng.NextDouble(), 1e-12));
    at = t;
  }
  const double span_ns = static_cast<double>(n) / rate_per_s * 1e9;
  const double scale = span_ns / raw.back();
  for (size_t i = 0; i < raw.size(); ++i) {
    schedule[i] = std::llround(raw[i] * scale);
  }
  schedule.back() = std::llround(span_ns);
  return schedule;
}

int64_t RankIndex(int64_t n, double pct) {
  if (n <= 0) return -1;
  // The epsilon keeps 0.99 * 1000 from rounding up to rank 991.
  const auto rank = static_cast<int64_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<int64_t>(rank - 1, 0, n - 1);
}

int64_t TailIndex(int64_t n, double cap_pct) {
  if (n < kTailBeyond + 1) return -1;
  return std::min(RankIndex(n, cap_pct), n - 1 - kTailBeyond);
}

Summary Summarize(std::vector<double> values, double cap_pct) {
  Summary s;
  s.n = static_cast<int64_t>(values.size());
  if (s.n == 0) return s;
  std::sort(values.begin(), values.end());
  double sum = 0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  s.p50 = values[static_cast<size_t>(RankIndex(s.n, 50))];
  const int64_t k = TailIndex(s.n, cap_pct);
  if (k < 0) {
    s.tail = values.back();
    s.tail_pct = 100;
  } else {
    s.tail = values[static_cast<size_t>(k)];
    s.tail_pct = k == RankIndex(s.n, cap_pct)
                     ? cap_pct
                     : 100.0 * static_cast<double>(k + 1) /
                           static_cast<double>(s.n);
  }
  return s;
}

Summary SummarizeSliced(const std::vector<double>& in_order,
                        double cap_pct) {
  Summary s = Summarize(in_order, cap_pct);
  const auto n = static_cast<int64_t>(in_order.size());
  const int64_t slices = n / kSliceSamples;
  if (slices < 2) return s;
  std::vector<double> p50s, tails;
  for (int64_t i = 0; i < slices; ++i) {
    const auto begin = in_order.begin() + i * kSliceSamples;
    const auto end =
        i + 1 == slices ? in_order.end() : begin + kSliceSamples;
    const Summary slice =
        Summarize(std::vector<double>(begin, end), cap_pct);
    p50s.push_back(slice.p50);
    tails.push_back(slice.tail);
    s.tail_pct = std::min(s.tail_pct, slice.tail_pct);
  }
  s.p50 = Summarize(p50s).p50;
  s.tail = Summarize(tails).p50;
  return s;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Report::Add(const std::string& name, const std::string& unit,
                 double value) {
  if (!ValidMetricName(name) || !std::isfinite(value)) {
    std::fprintf(stderr, "perfbench: bad metric %s = %g\n", name.c_str(),
                 value);
    ok_ = false;
  }
  entries_.push_back({name, unit, value});
}

void Report::Print(bool correct, int64_t attempted, int64_t failed) const {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < entries_.size(); ++i) {
    const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", entries_[i].name.c_str(), v,
                entries_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void Note(const std::string& text) {
  std::printf("# %s\n", text.c_str());
  std::fflush(stdout);
}

namespace {

int Expect(bool condition, const char* what) {
  if (condition) return 0;
  std::fprintf(stderr, "perfbench self-test FAILED: %s\n", what);
  return 1;
}

int TestPoissonSchedule() {
  int failures = 0;
  const double rate = 97.5;
  const int64_t n = 1500;
  const std::vector<int64_t> a = PoissonSchedule(11, rate, n);
  failures += Expect(a == PoissonSchedule(11, rate, n),
                     "schedule is deterministic per seed");
  failures += Expect(a != PoissonSchedule(12, rate, n),
                     "schedules of different seeds differ");
  failures += Expect(static_cast<int64_t>(a.size()) == n,
                     "schedule has one arrival per request");
  failures += Expect(a.back() == std::llround(n / rate * 1e9),
                     "last arrival lands exactly at n / rate");
  failures += Expect(a.front() >= 0 && std::is_sorted(a.begin(), a.end()),
                     "arrivals are non-negative and non-decreasing");
  // Exponential gaps: the coefficient of variation is ~1, unlike a fixed
  // or uniform-jittered grid.
  double sum = 0, sum_sq = 0;
  for (size_t i = 1; i < a.size(); ++i) {
    const double gap = static_cast<double>(a[i] - a[i - 1]);
    sum += gap;
    sum_sq += gap * gap;
  }
  const double m = sum / static_cast<double>(n - 1);
  const double cv = std::sqrt(sum_sq / static_cast<double>(n - 1) - m * m) / m;
  failures += Expect(cv > 0.85 && cv < 1.15, "gaps are exponential");
  return failures;
}

int TestTailRule() {
  int failures = 0;
  for (int64_t n = 0; n <= kTailBeyond; ++n) {
    failures += Expect(TailIndex(n, 99) == -1, "no tail below 11 samples");
  }
  for (int64_t n = kTailBeyond + 1; n <= 20000; ++n) {
    const int64_t k = TailIndex(n, 99);
    failures += Expect(k >= 0 && n - 1 - k >= kTailBeyond,
                       "at least ten samples lie beyond the tail");
    failures += Expect(k == std::min(RankIndex(n, 99), n - 1 - kTailBeyond),
                       "the tail is the highest percentile allowed");
    if (n >= 1000) {
      failures += Expect(k == RankIndex(n, 99), "p99 from 1000 samples on");
    }
    if (failures > 0) break;
  }
  failures += Expect(RankIndex(1000, 99) == 989, "p99 of 1000 is rank 990");
  failures += Expect(RankIndex(1000, 50) == 499, "p50 of 1000 is rank 500");
  std::vector<double> ramp(30);
  for (size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<double>(i);
  const Summary s = Summarize(ramp, 99);
  failures += Expect(s.tail == 19 && s.p50 == 14, "summary of a 30-ramp");
  // Three slices of 100 (the last takes the 50 left over), one holding a
  // stall: the sliced p50 and tail are the median slice's.
  std::vector<double> stream(350, 1.0);
  for (size_t i = 0; i < 100; ++i) stream[100 + i] = 100.0;
  for (size_t i = 200; i < 350; ++i) stream[i] = 2.0;
  const Summary sliced = SummarizeSliced(stream, 90);
  failures += Expect(sliced.p50 == 2.0 && sliced.tail == 2.0 &&
                         sliced.tail_pct == 90,
                     "sliced p50 and tail are the median slice's");
  return failures;
}

int TestMetricNames() {
  int failures = 0;
  for (const char* good : {"p50_ms", "serve.queue_wait_p99_us",
                           "core.unattributed_pct", "9lives", "a-b.c_d"}) {
    failures += Expect(ValidMetricName(good), good);
  }
  for (const std::string& bad :
       {std::string(), std::string("a b"), std::string("serve/requests"),
        std::string("_lead"), std::string(".lead"), std::string("p99%"),
        std::string(65, 'a')}) {
    failures += Expect(!ValidMetricName(bad), "invalid metric name rejected");
  }
  return failures;
}

}  // namespace

int RunSelfTests() {
  return TestPoissonSchedule() + TestTailRule() + TestMetricNames();
}

}  // namespace perfbench
