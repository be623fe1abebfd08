// ts3bench: the repository benchmark. perfbench/run.py builds and runs it;
// see perfbench/README.md for the workloads and metrics.
//
//   ts3bench --workload=ts3net_open --seed=1 --seconds=15 --trace=0
//            --open_rate=25
//   ts3bench --selftest
//
// Prints "# ..." report lines, then one JSON result line. Exits non-zero
// when an output check or a reconciliation fails.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; perfbench/run.py checks the result against it.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"tail_ms", "ms"},
    {"windows_per_s", "1/s"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"serve.queue_wait_p50_us", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.exec_p50_us", "us"},
    {"serve.latency_mean_us", "us"},
    {"serve.queue_wait_mean_us", "us"},
    {"serve.exec_mean_us", "us"},
    {"serve.response_overhead_us", "us"},
    {"serve.record_remainder_us", "us"},
    {"serve.batch_mean", "count"},
    {"serve.rejected", "count"},
    {"serve.compiled_share", "ratio"},
    {"serve.allocs_per_predict", "count"},
    {"core.forward_us", "us"},
    {"core.revin_us", "us"},
    {"core.trend_us", "us"},
    {"core.period_us", "us"},
    {"core.embedding_us", "us"},
    {"core.sgd_us", "us"},
    {"core.tf_block_us", "us"},
    {"core.heads_us", "us"},
    {"core.unattributed_pct", "%"},
    {"signal.cwt_us", "us"},
    {"signal.iwt_us", "us"},
    {"nn.conv_backbone_us", "us"},
    {"nn.conv_backbone_gflops", "GFLOP/s"},
    {"train.forward_ms", "ms"},
    {"train.backward_ms", "ms"},
    {"train.optimizer_ms", "ms"},
    {"tensor.allocs_per_step", "count"},
    {"threadpool.busy_share", "ratio"},
    {"threadpool.queue_wait_p99_us", "us"},
    {"cache.plan_hit_ratio", "ratio"},
    {"trace.p50_overhead_pct", "%"},
    {"trace.throughput_overhead_pct", "%"},
    {"harness.gen_late_p99_ms", "ms"},
    {"harness.gen_late_share", "ratio"},
    {"harness.gen_lagged", "count"},
};

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

bool Flag(const std::string& arg, const std::string& name, std::string* out) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      const int failures = RunSelfTests();
      std::printf("perfbench self-tests: %s\n", failures == 0 ? "ok" : "FAILED");
      return failures == 0 ? 0 : 1;
    } else if (Flag(arg, "workload", &value)) {
      options.workload = value;
    } else if (Flag(arg, "seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (Flag(arg, "seconds", &value)) {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (Flag(arg, "trace", &value)) {
      options.trace = value == "1";
    } else if (Flag(arg, "open_rate", &value)) {
      options.open_rate = std::strtod(value.c_str(), nullptr);
    } else {
      std::fprintf(stderr, "ts3bench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  const bool train = options.workload == "ts3net_train_long";
  if (!train && options.workload != "ts3net_open" &&
      options.workload != "lstm_closed") {
    std::fprintf(stderr, "ts3bench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  if (!(options.seconds > 0) ||
      (options.workload == "ts3net_open" && !(options.open_rate > 0))) {
    std::fprintf(stderr, "ts3bench: --seconds and --open_rate must be > 0\n");
    return 2;
  }
  options.nproc = Nproc();
  Note(ts3net::StrFormat("workload=%s seed=%llu seconds=%g trace=%d nproc=%d",
                         options.workload.c_str(),
                         static_cast<unsigned long long>(options.seed),
                         options.seconds, options.trace ? 1 : 0,
                         options.nproc));

  Values values;
  const Outcome outcome = train ? RunTrainWorkload(options, &values)
                                : RunServeWorkload(options, &values);

  std::set<std::string> known;
  for (const auto* table : {&kEndToEnd, &kPerLayer}) {
    for (const MetricSpec& m : *table) known.insert(m.name);
  }
  bool ok = true;
  for (const auto& [name, v] : values) {
    if (known.count(name) == 0) {
      std::fprintf(stderr, "ts3bench: undeclared metric %s\n", name.c_str());
      ok = false;
    }
  }
  Report report;
  for (const MetricSpec& m : options.trace ? kPerLayer : kEndToEnd) {
    const auto it = values.find(m.name);
    report.Add(m.name, m.unit, it == values.end() ? 0.0 : it->second);
  }
  ok = ok && report.ok() && outcome.correct;
  report.Print(ok, outcome.attempted, outcome.failed);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
