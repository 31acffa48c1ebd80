// Micro-benchmarks (google-benchmark): cost of the schedulability tests
// themselves. Relevant because admission control runs these online: the
// paper's criteria are only useful in practice if a test over n streams is
// cheap. Compares the exact scheduling-point test (Theorem 4.1 as printed)
// against the equivalent response-time analysis, the O(n) TTP criterion,
// and one full breakdown-saturation search.
//
// Benchmarks come in reference/fast pairs: every *Kernel / *Batch /
// *Screened / *ScaledInto variant has a same-shaped reference benchmark in
// the same run, so scripts/check_perf_baseline.py can gate both absolute
// regressions (against the checked-in BENCH_kernels.json) and the in-run
// speedup of the fast path over its reference. The kernel rows run the
// batch kernels; the *Scalar rows run them one lane per set.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "tokenring/analysis/fixed_priority.hpp"
#include "tokenring/analysis/kernels.hpp"
#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/breakdown/saturation.hpp"
#include "tokenring/common/cli.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/experiments/setup.hpp"
#include "tokenring/msg/generator.hpp"
#include "tokenring/obs/report.hpp"
#include "tokenring/sim/workload.hpp"

namespace {

using namespace tokenring;

msg::MessageSet make_set(int n, std::uint64_t seed, double scale) {
  msg::GeneratorConfig g;
  g.num_streams = n;
  g.mean_period = milliseconds(100);
  g.period_ratio = 10.0;
  msg::MessageSetGenerator gen(g);
  Rng rng(seed);
  return gen.generate(rng).scaled(scale);
}

experiments::PaperSetup setup_for(int n) {
  experiments::PaperSetup s;
  s.num_stations = n;
  return s;
}

/// The lockstep-search view of one batch kernel instance.
template <typename Kernel>
breakdown::BatchScaleKernel view(const Kernel& kernel) {
  return [&kernel](std::span<const double> scales,
                   std::span<const std::uint8_t> active,
                   std::span<std::uint8_t> verdicts) {
    kernel.evaluate(scales, active, verdicts);
  };
}

/// Breakdown utilization of one saturation search through a one-lane
/// kernel built for `base`: the kernel path's scalar case.
template <typename Kernel, typename Params>
double one_lane_saturation(const msg::MessageSet& base, const Params& params,
                           BitsPerSecond bw) {
  const std::span<const msg::MessageSet> lane(&base, 1);
  const Kernel kernel(lane, params, bw);
  return breakdown::find_saturation_batch(lane, view(kernel), bw)
      .front()
      .breakdown_utilization;
}

void BM_PdpResponseTimeAnalysis(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto params =
      setup_for(n).pdp_params(analysis::PdpVariant::kStandard8025);
  const BitsPerSecond bw = mbps(16);
  const auto set = make_set(n, 1, 20.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::pdp_feasible(set, params, bw));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_PdpResponseTimeAnalysis)->Arg(10)->Arg(50)->Arg(100)->Arg(500)
    ->Complexity(benchmark::oNSquared);

void BM_PdpSchedulingPointTest(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto params =
      setup_for(n).pdp_params(analysis::PdpVariant::kStandard8025);
  const BitsPerSecond bw = mbps(16);
  const auto set = make_set(n, 1, 20.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::pdp_schedulable_lsd(set, params, bw).schedulable);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_PdpSchedulingPointTest)->Arg(10)->Arg(50)->Arg(100)
    ->Complexity(benchmark::oNCubed);

void BM_TtpCriterion(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto params = setup_for(n).ttp_params();
  const BitsPerSecond bw = mbps(100);
  const auto set = make_set(n, 1, 50.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::ttp_feasible(set, params, bw));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_TtpCriterion)->Arg(10)->Arg(100)->Arg(1000)
    ->Complexity(benchmark::oN);

void BM_PdpAugmentedLength(benchmark::State& state) {
  const auto params =
      setup_for(100).pdp_params(analysis::PdpVariant::kModified8025);
  const msg::SyncStream s{milliseconds(100), 5'000.0, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::pdp_augmented_length(s, params, mbps(16)));
  }
}
BENCHMARK(BM_PdpAugmentedLength);

void BM_SaturationSearchPdp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto setup = setup_for(n);
  const BitsPerSecond bw = mbps(16);
  const auto predicate =
      setup.pdp_predicate(analysis::PdpVariant::kModified8025, bw);
  const auto base = make_set(n, 3, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        breakdown::find_saturation(base, predicate, bw).breakdown_utilization);
  }
}
BENCHMARK(BM_SaturationSearchPdp)->Arg(10)->Arg(100);

void BM_SaturationSearchTtp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto setup = setup_for(n);
  const BitsPerSecond bw = mbps(100);
  const auto predicate = setup.ttp_predicate(bw);
  const auto base = make_set(n, 3, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        breakdown::find_saturation(base, predicate, bw).breakdown_utilization);
  }
}
BENCHMARK(BM_SaturationSearchTtp)->Arg(10)->Arg(100)->Arg(1000);

// Kernel-path saturation searches: identical probe sequence and result to
// the predicate pairs above (pinned by tests), on a one-lane batch kernel:
// the scale-invariant work is hoisted out of the probe loop and no probe
// allocates.
void BM_SaturationSearchPdpKernel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto setup = setup_for(n);
  const BitsPerSecond bw = mbps(16);
  const auto params = setup.pdp_params(analysis::PdpVariant::kModified8025);
  const auto base = make_set(n, 3, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        one_lane_saturation<analysis::PdpBatchKernel>(base, params, bw));
  }
}
BENCHMARK(BM_SaturationSearchPdpKernel)->Arg(10)->Arg(100);

void BM_SaturationSearchTtpKernel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto setup = setup_for(n);
  const BitsPerSecond bw = mbps(100);
  const auto params = setup.ttp_params();
  const auto base = make_set(n, 3, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        one_lane_saturation<analysis::TtpBatchKernel>(base, params, bw));
  }
}
BENCHMARK(BM_SaturationSearchTtpKernel)->Arg(10)->Arg(100)->Arg(1000);

// Batched (SoA) saturation: B independent boundary searches advanced in
// lockstep by one batch kernel vs the same B searches run one at a time on
// one-lane kernels. Same sets, same probe sequences, bit-identical results
// (pinned by tests) — the pair isolates the SoA/vectorization win. Arg =
// lanes per batch.
std::vector<msg::MessageSet> make_lane_sets(int n, std::size_t lanes,
                                            std::uint64_t seed) {
  std::vector<msg::MessageSet> bases;
  bases.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    bases.push_back(make_set(n, seed + lane, 1.0));
  }
  return bases;
}

void BM_SaturationScalarPdp(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const int n = 100;
  const BitsPerSecond bw = mbps(16);
  const auto params = setup_for(n).pdp_params(analysis::PdpVariant::kModified8025);
  const auto bases = make_lane_sets(n, lanes, 3);
  for (auto _ : state) {
    double acc = 0.0;
    for (const auto& base : bases) {
      acc += one_lane_saturation<analysis::PdpBatchKernel>(base, params, bw);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_SaturationScalarPdp)->Arg(8)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_SaturationBatchPdp(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const int n = 100;
  const BitsPerSecond bw = mbps(16);
  const auto params = setup_for(n).pdp_params(analysis::PdpVariant::kModified8025);
  const auto bases = make_lane_sets(n, lanes, 3);
  for (auto _ : state) {
    const analysis::PdpBatchKernel kernel(bases, params, bw);
    const auto sats = breakdown::find_saturation_batch(bases, view(kernel), bw);
    double acc = 0.0;
    for (const auto& sat : sats) acc += sat.breakdown_utilization;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_SaturationBatchPdp)->Arg(8)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_SaturationScalarTtp(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const int n = 100;
  const BitsPerSecond bw = mbps(100);
  const auto params = setup_for(n).ttp_params();
  const auto bases = make_lane_sets(n, lanes, 3);
  for (auto _ : state) {
    double acc = 0.0;
    for (const auto& base : bases) {
      acc += one_lane_saturation<analysis::TtpBatchKernel>(base, params, bw);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_SaturationScalarTtp)->Arg(8)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_SaturationBatchTtp(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const int n = 100;
  const BitsPerSecond bw = mbps(100);
  const auto params = setup_for(n).ttp_params();
  const auto bases = make_lane_sets(n, lanes, 3);
  for (auto _ : state) {
    const analysis::TtpBatchKernel kernel(bases, params, bw);
    const auto sats = breakdown::find_saturation_batch(bases, view(kernel), bw);
    double acc = 0.0;
    for (const auto& sat : sats) acc += sat.breakdown_utilization;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_SaturationBatchTtp)->Arg(8)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

// Raw kernel-evaluate throughput at a fixed scale, with bytes_per_second
// reporting the effective memory bandwidth of the probe arithmetic (per
// full-width pass the TTP kernel streams the base-payload and
// usable-visits SoA rows and the per-lane accumulators). The scalar
// counterpart evaluates the same lanes on one one-lane kernel per set.
void BM_TtpEvaluateScalar(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const int n = 100;
  const BitsPerSecond bw = mbps(100);
  const auto params = setup_for(n).ttp_params();
  const auto bases = make_lane_sets(n, lanes, 3);
  std::vector<analysis::TtpBatchKernel> kernels;
  kernels.reserve(lanes);
  for (const auto& base : bases) {
    kernels.emplace_back(std::span<const msg::MessageSet>(&base, 1), params,
                         bw);
  }
  const double scale[] = {2.0};
  const std::uint8_t active[] = {1};
  std::uint8_t verdict[] = {0};
  for (auto _ : state) {
    bool all = true;
    for (const auto& kernel : kernels) {
      kernel.evaluate(scale, active, verdict);
      all &= verdict[0] != 0;
    }
    benchmark::DoNotOptimize(all);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              (2 * static_cast<std::size_t>(n) + 1) * lanes *
                              sizeof(double)));
}
BENCHMARK(BM_TtpEvaluateScalar)->Arg(64);

void BM_TtpEvaluateBatch(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const int n = 100;
  const BitsPerSecond bw = mbps(100);
  const auto params = setup_for(n).ttp_params();
  const auto bases = make_lane_sets(n, lanes, 3);
  const analysis::TtpBatchKernel kernel(bases, params, bw);
  const std::vector<double> scales(lanes, 2.0);
  std::vector<std::uint8_t> verdicts(lanes, 0);
  for (auto _ : state) {
    kernel.evaluate(scales, verdicts);
    benchmark::DoNotOptimize(verdicts.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              (2 * static_cast<std::size_t>(n) + 1) * lanes *
                              sizeof(double)));
}
BENCHMARK(BM_TtpEvaluateBatch)->Arg(64);

// Allocation cost of one payload scaling: fresh copy vs reuse of one
// workspace buffer (what every saturation probe used to pay vs pays now).
void BM_ScaledCopy(benchmark::State& state) {
  const auto base = make_set(static_cast<int>(state.range(0)), 3, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.scaled(1.5));
  }
}
BENCHMARK(BM_ScaledCopy)->Arg(100);

void BM_ScaledInto(benchmark::State& state) {
  const auto base = make_set(static_cast<int>(state.range(0)), 3, 1.0);
  msg::MessageSet buffer;
  for (auto _ : state) {
    base.scaled_into(1.5, buffer);
    benchmark::DoNotOptimize(buffer);
  }
}
BENCHMARK(BM_ScaledInto)->Arg(100);

// Screened boolean verdicts vs the full exact analyses they wrap, on a
// prebuilt task list (the shape of one saturation probe after hoisting).
void BM_RtaExact(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto params =
      setup_for(n).pdp_params(analysis::PdpVariant::kStandard8025);
  const BitsPerSecond bw = mbps(16);
  const auto tasks = analysis::pdp_tasks(make_set(n, 1, 20.0), params, bw);
  const Seconds blocking = analysis::pdp_blocking(params, bw);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::response_time_analysis(tasks, blocking).schedulable);
  }
}
BENCHMARK(BM_RtaExact)->Arg(100);

void BM_RtaScreened(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto params =
      setup_for(n).pdp_params(analysis::PdpVariant::kStandard8025);
  const BitsPerSecond bw = mbps(16);
  const auto tasks = analysis::pdp_tasks(make_set(n, 1, 20.0), params, bw);
  const Seconds blocking = analysis::pdp_blocking(params, bw);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::rta_feasible_fast(tasks, blocking));
  }
}
BENCHMARK(BM_RtaScreened)->Arg(100);

void BM_LsdExact(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto params =
      setup_for(n).pdp_params(analysis::PdpVariant::kStandard8025);
  const BitsPerSecond bw = mbps(16);
  const auto tasks = analysis::pdp_tasks(make_set(n, 1, 20.0), params, bw);
  const Seconds blocking = analysis::pdp_blocking(params, bw);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::lsd_point_test_all(tasks, blocking).schedulable);
  }
}
BENCHMARK(BM_LsdExact)->Arg(100);

// Timed in microseconds: the manifest keeps one decimal of the unit, and
// at 0.1 ms resolution a ~0.15 ms run reads 0.1 or 0.2 ms from noise alone.
void BM_PdpSimulation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto setup = setup_for(n);
  const auto params = setup.pdp_params(analysis::PdpVariant::kModified8025);
  const BitsPerSecond bw = mbps(16);
  const auto set = make_set(n, 5, 10.0);
  const sim::SimConfig cfg = sim::make_sim_config(set, params, bw, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_simulation(set, cfg));
  }
  state.SetLabel("two max-period horizons per iteration");
}
BENCHMARK(BM_PdpSimulation)->Arg(10)->Arg(50)->Unit(benchmark::kMicrosecond);

void BM_TtpSimulation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto setup = setup_for(n);
  const auto params = setup.ttp_params();
  const BitsPerSecond bw = mbps(100);
  const auto set = make_set(n, 5, 10.0);
  const sim::SimConfig cfg = sim::make_sim_config(set, params, bw, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_simulation(set, cfg));
  }
  state.SetLabel("two max-period horizons per iteration");
}
BENCHMARK(BM_TtpSimulation)->Arg(10)->Arg(50)->Unit(benchmark::kMicrosecond);

// Collects every run into a Table for the manifest; in table mode it also
// delegates to ConsoleReporter so the familiar google-benchmark output is
// unchanged, in csv/json modes the console output is suppressed.
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

// Custom main instead of BENCHMARK_MAIN(): the shared --format/--out/
// --profile flags must be peeled off before benchmark::Initialize (which
// rejects arguments it does not know), and the per-benchmark timings are
// recorded into the run manifest.
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
    // Space-separated value form: also claim the value token. --profile is
    // boolean and may appear bare, so only claim an explicit bool token.
    if (arg.find('=') == std::string::npos && i + 1 < argc) {
      const std::string next = argv[i + 1];
      const bool take =
          arg.rfind("--profile", 0) == 0 ? is_bool_token(next)
                                         : next.rfind("--", 0) != 0;
      if (take) report_args.push_back(argv[++i]);
    }
  }

  int report_argc = static_cast<int>(report_args.size());
  obs::RunReport report("micro_schedulability");
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
