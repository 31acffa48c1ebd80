// Simulator scaling (google-benchmark): cost of driving a large, mostly
// idle ring through the event engine. On a 1024-station ring with a
// handful of synchronous streams, almost every token rotation is pure
// token passing. The token walk runs each hop inline as a staged step and,
// with rotation statistics off, fast-forwards whole idle laps in O(1).
//
// BM_SimScalingFrontier runs 2 s of ring time at 256 and 1024 stations;
// BM_SimScalingFrontierLong stretches the horizon 16x to show the
// hibernating walk's cost scales with traffic, not with idle time.
// scripts/check_perf_baseline.py compares both with their recorded
// baseline rows. The idle-lap saving itself is pinned as deterministic
// event counts in tests/sim_engine_test.cpp (SimScaling.*).

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "tokenring/common/cli.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/experiments/setup.hpp"
#include "tokenring/obs/report.hpp"
#include "tokenring/sim/workload.hpp"

namespace {

using namespace tokenring;

// A sparse workload: 4 streams on a ring of `n` stations. Periods are
// hundreds of milliseconds against a ~2 ms rotation, so the ring idles
// for dozens of rotations between releases: the regime where per-hop
// cost would dominate without the idle-lap fast-forward.
msg::MessageSet sparse_set(int n) {
  msg::MessageSet set;
  for (int i = 0; i < 4; ++i) {
    set.add({.period = milliseconds(200.0 + 20.0 * i),
             .payload_bits = 4'000.0,
             .station = (i * n) / 4});
  }
  return set;
}

sim::SimConfig scaling_config(int n, double horizon_seconds) {
  experiments::PaperSetup setup;
  setup.num_stations = n;
  auto cfg = sim::make_sim_config(sparse_set(n), setup.ttp_params(), mbps(100));
  cfg.horizon = horizon_seconds;
  // License the idle-lap fast-forward (sim/config.hpp): no async traffic,
  // no per-rotation statistics, no trace.
  cfg.async_model = sim::AsyncModel::kNone;
  cfg.collect_rotation_stats = false;
  return cfg;
}

void BM_SimScalingFrontier(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto set = sparse_set(n);
  const auto cfg = scaling_config(n, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_simulation(set, cfg));
  }
  state.SetLabel("2 s of ring time per iteration");
}
BENCHMARK(BM_SimScalingFrontier)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_SimScalingFrontierLong(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto set = sparse_set(n);
  const auto cfg = scaling_config(n, 32.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_simulation(set, cfg));
  }
  state.SetLabel("32 s of ring time per iteration");
}
BENCHMARK(BM_SimScalingFrontierLong)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Same reporter arrangement as micro_schedulability: every run lands in
// the manifest's "benchmarks" table; console output is kept in table mode
// and suppressed in csv/json modes.
class ManifestReporter : public benchmark::ConsoleReporter {
 public:
  explicit ManifestReporter(bool quiet)
      : table_({"name", "iterations", "real_time", "cpu_time", "time_unit"}),
        quiet_(quiet) {}

  bool ReportContext(const Context& context) override {
    return quiet_ ? true : ConsoleReporter::ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      table_.add_row({run.benchmark_name(),
                      fmt(static_cast<long long>(run.iterations)),
                      fmt(run.GetAdjustedRealTime(), 1),
                      fmt(run.GetAdjustedCPUTime(), 1),
                      benchmark::GetTimeUnitString(run.time_unit)});
    }
    if (!quiet_) ConsoleReporter::ReportRuns(runs);
  }

  const Table& table() const { return table_; }

 private:
  Table table_;
  bool quiet_;
};

bool is_bool_token(const std::string& s) {
  return s == "true" || s == "false" || s == "1" || s == "0" || s == "yes" ||
         s == "no";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tokenring;
  CliFlags flags;

  std::vector<char*> report_args = {argv[0]};
  std::vector<char*> bench_args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool ours = arg.rfind("--format", 0) == 0 ||
                      arg.rfind("--out", 0) == 0 ||
                      arg.rfind("--profile", 0) == 0;
    if (!ours) {
      bench_args.push_back(argv[i]);
      continue;
    }
    report_args.push_back(argv[i]);
    if (arg.find('=') == std::string::npos && i + 1 < argc) {
      const std::string next = argv[i + 1];
      const bool take =
          arg.rfind("--profile", 0) == 0 ? is_bool_token(next)
                                         : next.rfind("--", 0) != 0;
      if (take) report_args.push_back(argv[++i]);
    }
  }

  int report_argc = static_cast<int>(report_args.size());
  obs::RunReport report("sim_scaling");
  if (auto rc = obs::bootstrap_run(report, flags, report_argc,
                                   report_args.data(),
                                   {.jobs = false, .batch = false})) {
    return *rc;
  }

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }

  ManifestReporter reporter(!report.verbose());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  report.record_table("benchmarks", reporter.table());
  if (report.format() == obs::OutputFormat::kCsv) {
    reporter.table().print_csv(std::cout);
  }
  return report.finish();
}
