// ts3net_open and lstm_closed: requests through serve::ModelRegistry.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/threadpool.h"
#include "common/transform_cache.h"
#include "core/ts3net.h"
#include "harness.h"
#include "models/registry.h"
#include "serve/flight_recorder.h"
#include "serve/registry.h"
#include "serve/snapshot.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ts3net::Tensor;
namespace core = ts3net::core;
namespace nn = ts3net::nn;
namespace obs = ts3net::obs;
namespace serve = ts3net::serve;

constexpr int64_t kMaxBatch = 8;
// Distinct request windows. Every response is compared with the serial
// reference of its window, so the reference pass costs one forward each.
constexpr int64_t kWindows = 32;
// TS3Net picks its S-GD chunk period from the batch mean, so a forecast
// can depend on its batch-mates. Windows of the hourly series that start on
// a day boundary share the dominant 24-step period, which keeps every
// batched response bitwise equal to the window's serial forecast.
constexpr int64_t kWindowStride = 24;
// A send more than kLateMs after its due time counts as late. With every
// generator thread waiting on a reply, a due request waits for one to come
// free; that wait is the system's and is part of the request's latency.
// The generator's own lag is the time from due (or, if later, from when a
// thread took the request up) to the send; a run whose p99 own lag exceeds
// kOwnLagBoundMs is flagged.
constexpr double kLateMs = 1.0;
constexpr double kOwnLagBoundMs = 2.0;
// Slice length for the closed loop's throughput median.
constexpr int64_t kThroughputSliceNs = 1'000'000'000;
// Ring large enough to keep every request of a run.
constexpr int kFlightCapacity = 1 << 19;

enum Verdict : int8_t { kNotSent, kOk, kMismatch, kRefused, kError };

struct ServeSpec {
  std::string model;  // registry name
  int64_t seq_len = 0;
  int64_t pred_len = 0;
  int64_t channels = 0;
  bool open_loop = false;
  std::optional<core::TS3NetOptions> ts3;  // set for TS3Net: stage replay
  std::function<std::shared_ptr<nn::Module>(ts3net::Rng*)> build;
};

ServeSpec SpecFor(const std::string& workload) {
  ServeSpec spec;
  if (workload == "ts3net_open") {
    core::TS3NetOptions o;
    o.seq_len = 96;
    o.pred_len = 96;
    o.channels = 7;
    o.d_model = 16;
    o.d_ff = 16;
    o.lambda = 8;
    o.dropout = 0.0f;
    spec.model = "ts3net";
    spec.open_loop = true;
    spec.ts3 = o;
    spec.build = [o](ts3net::Rng* rng) -> std::shared_ptr<nn::Module> {
      return std::make_shared<core::TS3Net>(o, rng);
    };
  } else {
    TS3_CHECK_EQ(workload, "lstm_closed");
    ts3net::models::ModelConfig cfg;
    cfg.seq_len = 96;
    cfg.pred_len = 24;
    cfg.channels = 4;
    cfg.d_model = 8;
    cfg.d_ff = 8;
    cfg.dropout = 0.0f;
    spec.model = "lstm";
    spec.build = [cfg](ts3net::Rng* rng) {
      auto model = ts3net::models::CreateModel("LSTM", cfg, rng);
      TS3_CHECK(model.ok()) << model.status().ToString();
      return model.value();
    };
  }
  spec.seq_len = spec.ts3 ? spec.ts3->seq_len : 96;
  spec.pred_len = spec.ts3 ? spec.ts3->pred_len : 24;
  spec.channels = spec.ts3 ? spec.ts3->channels : 4;
  return spec;
}

struct Served {
  std::shared_ptr<nn::Module> source;  // weights both snapshots copy
  std::shared_ptr<const serve::ModelSnapshot> snapshot;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::vector<std::vector<float>> reference;  // per window, [H * C]
  int64_t mismatches = 0;  // set-up responses that differed from it
};

bool Matches(const Tensor& y, const std::vector<float>& want) {
  return y.numel() == static_cast<int64_t>(want.size()) &&
         SameBits(y.data(), want.data(), y.numel());
}

// Everything a server does before its first real request: build the model,
// capture and publish the snapshot, fill the plan cache, run the first
// Predict of every batch shape (which compiles it or records the
// rejection), and compute the reference on a serial dynamic snapshot.
Served SetUp(const ServeSpec& spec, const std::vector<Tensor>& windows,
             uint64_t seed) {
  Served s;
  ts3net::Rng rng(seed);
  s.source = spec.build(&rng);
  s.source->SetTraining(false);
  ts3net::Rng twin_rng(seed + 1);
  serve::SnapshotOptions dynamic;
  dynamic.compile = false;
  auto snapshot =
      serve::ModelSnapshot::Capture(*s.source, spec.build(&twin_rng));
  auto reference = serve::ModelSnapshot::Capture(
      *s.source, spec.build(&twin_rng), dynamic);
  TS3_CHECK(snapshot.ok() && reference.ok());
  s.snapshot = snapshot.value();

  serve::ModelRegistryOptions options;
  options.batcher.max_batch = kMaxBatch;
  s.registry = std::make_unique<serve::ModelRegistry>(options);
  TS3_CHECK(s.registry->Publish(spec.model, s.snapshot).ok());

  for (int64_t b = 1; b <= kMaxBatch; ++b) {
    std::vector<Tensor> batch(windows.begin(), windows.begin() + b);
    s.snapshot->Predict(StackWindows(batch));
  }
  for (const Tensor& w : windows) {
    Tensor y = reference.value()->Predict(StackWindows({w}));
    s.reference.emplace_back(y.data(), y.data() + y.numel());
  }
  for (size_t i = 0; i < windows.size(); ++i) {
    ts3net::Result<Tensor> y = s.registry->Predict(spec.model, windows[i]);
    if (!y.ok() || !Matches(y.value(), s.reference[i])) ++s.mismatches;
  }
  return s;
}

struct Request {
  int64_t due_ns = 0;  // scheduled send time; the send time in a closed loop
  int64_t free_ns = 0;  // when a generator thread took the request up
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  int8_t outcome = kNotSent;
};

struct Phase {
  bool open_loop = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<Request> requests;
};

int8_t Check(const ts3net::Result<Tensor>& y, const std::vector<float>& want) {
  if (!y.ok()) {
    return y.status().code() == ts3net::StatusCode::kUnavailable ? kRefused
                                                                  : kError;
  }
  return Matches(y.value(), want) ? kOk : kMismatch;
}

void SleepUntil(int64_t deadline_ns) {
  const int64_t gap = deadline_ns - obs::NowNanos();
  if (gap > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(gap));
}

// Poisson arrivals at an absolute rate. A generator thread takes the next
// arrival, sleeps until it is due and sends it; latency runs from the due
// time, so a send delayed because every generator was still waiting on a
// reply is charged to the system, not dropped.
Phase RunOpen(serve::ModelRegistry* registry, const std::string& model,
              const std::vector<Tensor>& windows,
              const std::vector<std::vector<float>>& reference, uint64_t seed,
              double rate, double seconds, int threads) {
  const int64_t n = std::max<int64_t>(1, std::llround(rate * seconds));
  const std::vector<int64_t> schedule = PoissonSchedule(seed, rate, n);
  ts3net::Rng rng(seed ^ 0x9a7e5eedULL);
  std::vector<size_t> pick(static_cast<size_t>(n));
  for (size_t& w : pick) w = rng.UniformInt(windows.size());

  Phase phase;
  phase.open_loop = true;
  phase.requests.resize(static_cast<size_t>(n));
  // Lead time so the first arrivals are not overdue while threads start.
  phase.start_ns = obs::NowNanos() + 2'000'000;
  std::atomic<int64_t> next{0};
  std::vector<std::thread> generators;
  for (int t = 0; t < threads; ++t) {
    generators.emplace_back([&] {
      for (;;) {
        // relaxed: only hands out distinct indices.
        const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        Request& r = phase.requests[static_cast<size_t>(i)];
        const size_t w = pick[static_cast<size_t>(i)];
        r.free_ns = obs::NowNanos();
        r.due_ns = phase.start_ns + schedule[static_cast<size_t>(i)];
        SleepUntil(r.due_ns);
        r.send_ns = obs::NowNanos();
        const ts3net::Result<Tensor> y = registry->Predict(model, windows[w]);
        r.done_ns = obs::NowNanos();
        r.outcome = Check(y, reference[w]);
      }
    });
  }
  for (std::thread& g : generators) g.join();
  for (const Request& r : phase.requests) {
    phase.end_ns = std::max(phase.end_ns, r.done_ns);
  }
  return phase;
}

// `clients` callers that each send their next request when the previous
// reply arrives, until `seconds` have passed.
Phase RunClosed(serve::ModelRegistry* registry, const std::string& model,
                const std::vector<Tensor>& windows,
                const std::vector<std::vector<float>>& reference,
                uint64_t seed, double seconds, int clients) {
  Phase phase;
  phase.start_ns = obs::NowNanos();
  const int64_t stop_ns = phase.start_ns + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::vector<Request>> per_client(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ts3net::Rng rng(seed + 7919 * static_cast<uint64_t>(c + 1));
      std::vector<Request>& mine = per_client[static_cast<size_t>(c)];
      while (obs::NowNanos() < stop_ns) {
        const size_t w = rng.UniformInt(windows.size());
        Request r;
        r.send_ns = r.due_ns = r.free_ns = obs::NowNanos();
        const ts3net::Result<Tensor> y = registry->Predict(model, windows[w]);
        r.done_ns = obs::NowNanos();
        r.outcome = Check(y, reference[w]);
        mine.push_back(r);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::vector<Request>& mine : per_client) {
    for (const Request& r : mine) {
      phase.requests.push_back(r);
      phase.end_ns = std::max(phase.end_ns, r.done_ns);
    }
  }
  return phase;
}

struct PhaseStats {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t mismatched = 0;
  int64_t refused = 0;
  int64_t errors = 0;
  Summary latency_ms;  // ok requests, from the due time
  Summary latency_p90_ms;  // the same, unsliced, with the tail at p90
  Summary latency_p99_ms;  // and at p99
  Summary own_lag_ms;  // every send: the generator's own lag
  double late_share = 0;  // sends more than kLateMs after their due time
  double windows_per_s = 0;
  double mean_send_latency_us = 0;  // executed requests, from the send
  int64_t failed() const { return mismatched + refused + errors; }
};

PhaseStats Analyze(const Phase& phase) {
  PhaseStats s;
  std::vector<double> latency_ms;
  std::vector<double> own_lag_ms;
  double send_latency_sum_us = 0;
  int64_t late = 0;
  std::vector<const Request*> by_done;
  for (const Request& r : phase.requests) by_done.push_back(&r);
  std::sort(by_done.begin(), by_done.end(),
            [](const Request* a, const Request* b) {
              return a->done_ns < b->done_ns;
            });
  for (const Request* request : by_done) {
    const Request& r = *request;
    if (r.outcome == kNotSent) continue;
    ++s.attempted;
    own_lag_ms.push_back(
        static_cast<double>(r.send_ns - std::max(r.due_ns, r.free_ns)) / 1e6);
    if (static_cast<double>(r.send_ns - r.due_ns) / 1e6 > kLateMs) ++late;
    switch (r.outcome) {
      case kOk:
        ++s.ok;
        latency_ms.push_back(static_cast<double>(r.done_ns - r.due_ns) / 1e6);
        send_latency_sum_us += static_cast<double>(r.done_ns - r.send_ns) / 1e3;
        break;
      case kMismatch:
        ++s.mismatched;
        send_latency_sum_us += static_cast<double>(r.done_ns - r.send_ns) / 1e3;
        break;
      case kRefused:
        ++s.refused;
        break;
      default:
        ++s.errors;
    }
  }
  s.latency_ms = SummarizeSliced(latency_ms);
  s.latency_p90_ms = Summarize(latency_ms, 90);
  s.latency_p99_ms = Summarize(latency_ms, 99);
  s.own_lag_ms = Summarize(own_lag_ms, 99);
  s.late_share = s.attempted > 0 ? static_cast<double>(late) /
                                       static_cast<double>(s.attempted)
                                 : 0;
  const double elapsed_s =
      static_cast<double>(phase.end_ns - phase.start_ns) / 1e9;
  s.windows_per_s = elapsed_s > 0 ? static_cast<double>(s.ok) / elapsed_s : 0;
  if (!phase.open_loop) {
    // Closed loop: the median over whole one-second slices of completions,
    // so a burst of host contention moves one slice, not the figure.
    std::vector<double> per_slice(
        static_cast<size_t>(std::max<int64_t>(
            1, (phase.end_ns - phase.start_ns) / kThroughputSliceNs)),
        0.0);
    for (const Request& r : phase.requests) {
      const auto slice =
          static_cast<size_t>((r.done_ns - phase.start_ns) / kThroughputSliceNs);
      if (r.outcome == kOk && slice < per_slice.size()) per_slice[slice] += 1;
    }
    s.windows_per_s = Summarize(per_slice).p50 * 1e9 / kThroughputSliceNs;
  }
  const int64_t executed = s.ok + s.mismatched;
  s.mean_send_latency_us =
      executed > 0 ? send_latency_sum_us / static_cast<double>(executed) : 0;
  return s;
}

// Serving counters the program keeps; their deltas across a phase.
struct ServeCounters {
  int64_t requests = 0;
  int64_t batches = 0;
  int64_t rejected = 0;
  int64_t compiled = 0;
  int64_t fallback = 0;
};

ServeCounters ReadCounters(const std::string& model) {
  auto* registry = obs::MetricsRegistry::Global();
  const std::string scope = "serve/" + obs::MetricPathSegment(model);
  ServeCounters c;
  c.requests = registry->counter(scope + "/requests")->value();
  c.batches = registry->counter(scope + "/batches")->value();
  c.rejected = registry->counter("serve/rejected")->value();
  c.compiled = registry->counter("serve/compiled_predicts")->value();
  c.fallback = registry->counter("serve/fallback_predicts")->value();
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Per-layer serving metrics of one phase from its flight records and
// counter deltas. Returns false when the records do not reconcile with the
// requests the benchmark sent and timed.
bool ServeLayerMetrics(const Phase& phase, const PhaseStats& stats,
                       const ServeCounters& before, const ServeCounters& after,
                       Values* values) {
  std::vector<double> queue_us, exec_us;
  double queue_sum = 0, exec_sum = 0, rest_sum = 0;
  for (const serve::RequestRecord& r :
       serve::FlightRecorder::Global()->Snapshot()) {
    if (r.outcome != serve::RequestOutcome::kOk ||
        r.arrival_ns < phase.start_ns || r.arrival_ns > phase.end_ns) {
      continue;
    }
    queue_us.push_back(static_cast<double>(r.queue_wait_us));
    exec_us.push_back(static_cast<double>(r.exec_us));
    queue_sum += static_cast<double>(r.queue_wait_us);
    exec_sum += static_cast<double>(r.exec_us);
    rest_sum += static_cast<double>(r.latency_us - r.queue_wait_us - r.exec_us);
  }
  const auto records = static_cast<double>(queue_us.size());
  const double queue_mean = Ratio(queue_sum, records);
  const double exec_mean = Ratio(exec_sum, records);
  // The record's latency minus its queue wait and exec: the batcher's own
  // response step (row copy, promise). Whole-microsecond truncation of the
  // three fields allows it to dip just below zero.
  const double record_remainder_us = Ratio(rest_sum, records);
  const Summary queue = Summarize(queue_us, 99);
  const Summary exec = Summarize(exec_us);

  Values& v = *values;
  v["serve.queue_wait_p50_us"] = queue.p50;
  v["serve.queue_wait_p99_us"] = queue.tail;
  v["serve.exec_p50_us"] = exec.p50;
  v["serve.latency_mean_us"] = stats.mean_send_latency_us;
  v["serve.queue_wait_mean_us"] = queue_mean;
  v["serve.exec_mean_us"] = exec_mean;
  v["serve.response_overhead_us"] =
      stats.mean_send_latency_us - queue_mean - exec_mean;
  v["serve.record_remainder_us"] = record_remainder_us;
  v["serve.batch_mean"] = Ratio(static_cast<double>(after.requests - before.requests),
                                static_cast<double>(after.batches - before.batches));
  v["serve.rejected"] = static_cast<double>(after.rejected - before.rejected);
  const auto compiled = static_cast<double>(after.compiled - before.compiled);
  v["serve.compiled_share"] = Ratio(
      compiled, compiled + static_cast<double>(after.fallback - before.fallback));
  v["serve.allocs_per_predict"] =
      obs::MetricsRegistry::Global()->gauge("serve/allocs_per_predict")->value();
  Note(ts3net::StrFormat(
      "reconcile: latency %.1f us = queue %.1f + exec %.1f + response %.1f; "
      "%lld flight records for %lld executed requests; in-batcher "
      "remainder %.2f us (bound %.0f)",
      stats.mean_send_latency_us, queue_mean, exec_mean,
      stats.mean_send_latency_us - queue_mean - exec_mean,
      static_cast<long long>(queue_us.size()),
      static_cast<long long>(stats.ok + stats.mismatched), record_remainder_us,
      kResponseRemainderBoundUs));
  return static_cast<int64_t>(queue_us.size()) == stats.ok + stats.mismatched &&
         record_remainder_us > -2.0 &&
         record_remainder_us <= kResponseRemainderBoundUs &&
         queue_mean + exec_mean <= stats.mean_send_latency_us + 2.0;
}

}  // namespace

Outcome RunServeWorkload(const RunOptions& options, Values* values) {
  const ServeSpec spec = SpecFor(options.workload);
  ts3net::ThreadPool::SetGlobalNumThreads(1);
  serve::FlightRecorderOptions flight;
  flight.capacity = kFlightCapacity;
  serve::FlightRecorder::Configure(flight);

  const Tensor series = MakeSeries(options.seed, spec.channels);
  ts3net::Rng pick(options.seed ^ 0x3b1d0ffULL);
  const int64_t days = (series.dim(0) - spec.seq_len) / kWindowStride + 1;
  std::vector<Tensor> windows;
  for (int64_t i = 0; i < kWindows; ++i) {
    const auto day = static_cast<int64_t>(pick.UniformInt(static_cast<uint64_t>(days)));
    windows.push_back(SliceRows(series, day * kWindowStride, spec.seq_len));
  }

  auto* metrics = obs::MetricsRegistry::Global();
  obs::Counter* plan_hits = metrics->counter("cache/plan/hits");
  obs::Counter* plan_misses = metrics->counter("cache/plan/misses");
  std::vector<double> setup_s;
  double plan_hit_ratio = 0;
  Served served;
  for (int k = 0; k < kSetups; ++k) {
    served = Served();
    ts3net::TransformCache::Global()->Clear();
    const int64_t hits = plan_hits->value();
    const int64_t misses = plan_misses->value();
    const int64_t t0 = obs::NowNanos();
    served = SetUp(spec, windows, options.seed);
    setup_s.push_back(static_cast<double>(obs::NowNanos() - t0) / 1e9);
    const auto h = static_cast<double>(plan_hits->value() - hits);
    plan_hit_ratio = Ratio(h, h + static_cast<double>(plan_misses->value() - misses));
  }

  Outcome out;
  out.correct = served.mismatches == 0;
  out.failed = served.mismatches;
  out.attempted = static_cast<int64_t>(windows.size());
  const int threads = options.nproc;
  const auto run_phase = [&](uint64_t seed, double seconds) {
    return spec.open_loop
               ? RunOpen(served.registry.get(), spec.model, windows,
                         served.reference, seed, options.open_rate, seconds,
                         threads)
               : RunClosed(served.registry.get(), spec.model, windows,
                           served.reference, seed, seconds, threads);
  };
  const auto tally = [&](const PhaseStats& s) {
    out.attempted += s.attempted;
    out.failed += s.failed();
    if (s.mismatched > 0 || s.errors > 0) out.correct = false;
  };

  Note(ts3net::StrFormat(
      "%s: %s, T=%lld H=%lld C=%lld, max_batch=%lld, 1 pool thread, %d %s",
      options.workload.c_str(), spec.model.c_str(),
      static_cast<long long>(spec.seq_len), static_cast<long long>(spec.pred_len),
      static_cast<long long>(spec.channels), static_cast<long long>(kMaxBatch),
      threads, spec.open_loop ? "generator threads" : "closed-loop clients"));
  if (spec.open_loop) {
    Note(ts3net::StrFormat("offered rate %.1f requests/s (absolute)",
                           options.open_rate));
  }
  const ServeCounters before = ReadCounters(spec.model);
  const Phase phase = run_phase(options.seed, options.seconds);
  const ServeCounters after = ReadCounters(spec.model);
  const PhaseStats stats = Analyze(phase);
  tally(stats);
  Note(ts3net::StrFormat(
      "requests: %lld attempted, %lld ok, %lld mismatched, %lld refused, "
      "%lld errors; error_rate %.6f",
      static_cast<long long>(stats.attempted), static_cast<long long>(stats.ok),
      static_cast<long long>(stats.mismatched),
      static_cast<long long>(stats.refused), static_cast<long long>(stats.errors),
      Ratio(static_cast<double>(stats.failed()),
            static_cast<double>(stats.attempted))));
  Note(ts3net::StrFormat(
      "latency p50 %.3f ms, tail p%.2f %.3f ms; unsliced p%.2f %.3f ms, "
      "p%.2f %.3f ms over %lld requests",
      stats.latency_ms.p50, stats.latency_ms.tail_pct, stats.latency_ms.tail,
      stats.latency_p90_ms.tail_pct, stats.latency_p90_ms.tail,
      stats.latency_p99_ms.tail_pct, stats.latency_p99_ms.tail,
      static_cast<long long>(stats.latency_ms.n)));
  const bool lagged = spec.open_loop && stats.own_lag_ms.tail > kOwnLagBoundMs;
  if (spec.open_loop) {
    Note(ts3net::StrFormat(
        "generator: own lag p%.2f %.3f ms (bound %.1f); %.2f%% of sends over "
        "%.0f ms late, counted in latency%s",
        stats.own_lag_ms.tail_pct, stats.own_lag_ms.tail, kOwnLagBoundMs,
        100 * stats.late_share, kLateMs,
        lagged ? " -- FLAGGED: generator lagged beyond the bound" : ""));
  }

  Values& v = *values;
  v["harness.gen_late_p99_ms"] = spec.open_loop ? stats.own_lag_ms.tail : 0;
  v["harness.gen_late_share"] = spec.open_loop ? stats.late_share : 0;
  v["harness.gen_lagged"] = lagged ? 1 : 0;
  if (!options.trace) {
    v["setup_s"] = Summarize(setup_s).p50;
    v["p50_ms"] = stats.latency_ms.p50;
    v["tail_ms"] = stats.latency_ms.tail;
    v["windows_per_s"] = stats.windows_per_s;
    return out;
  }

  v["cache.plan_hit_ratio"] = plan_hit_ratio;
  if (!ServeLayerMetrics(phase, stats, before, after, values)) {
    Note("FAILED: flight records do not reconcile with the timed requests");
    out.correct = false;
  }

  // The same load with the program's span tracing on, for its overhead.
  obs::StartTracing();
  const PhaseStats traced = Analyze(run_phase(options.seed + 1, options.seconds / 4));
  obs::StopTracing();
  tally(traced);
  v["trace.p50_overhead_pct"] =
      100 * (traced.latency_ms.p50 - stats.latency_ms.p50) / stats.latency_ms.p50;
  v["trace.throughput_overhead_pct"] =
      100 * (stats.windows_per_s - traced.windows_per_s) / stats.windows_per_s;
  Note(ts3net::StrFormat("traced: p50 %.3f ms, %.1f windows/s",
                         traced.latency_ms.p50, traced.windows_per_s));

  if (spec.ts3) {
    std::vector<Tensor> inputs;
    for (const Tensor& w : windows) inputs.push_back(StackWindows({w}));
    const StageReport stages = RunStagePass(served.source.get(), *spec.ts3,
                                            inputs, 1.0, values);
    Note(ts3net::StrFormat(
        "stage replay: %lld reps at batch 1, forward %.1f us, unattributed "
        "%.2f%% (bound %.0f%%), bitwise %s; conv FLOPs from layer shapes",
        static_cast<long long>(stages.reps), stages.forward_us,
        stages.unattributed_pct, kStageRemainderBoundPct,
        stages.bitwise_equal ? "equal" : "DIFFERENT"));
    if (!stages.bitwise_equal ||
        std::abs(stages.unattributed_pct) > kStageRemainderBoundPct) {
      Note("FAILED: the stage replay does not reconcile with TS3Net::Forward");
      out.correct = false;
    }
  }
  return out;
}

}  // namespace perfbench
