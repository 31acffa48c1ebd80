// Parallel-scaling benchmark for the exec/ Monte Carlo engine.
//
// Runs the Figure-1 workload (TTP breakdown estimation at one bandwidth)
// at jobs in {1, 2, 4, 8}, reports trials/sec and speedup over the
// sequential run, and checks that every jobs count reproduces the exact
// sequential mean — the bit-identity contract of the seed-stream design.
// The last line of output is a single JSON record for machine consumption.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "tokenring/breakdown/monte_carlo.hpp"
#include "tokenring/common/cli.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/experiments/setup.hpp"
#include "tokenring/obs/report.hpp"

using namespace tokenring;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("sets", "400", "Monte Carlo message sets per run");
  flags.declare("seed", "42", "master RNG seed");
  flags.declare("stations", "100", "stations on the ring");
  flags.declare("bandwidth-mbps", "100", "link bandwidth [Mbit/s]");
  flags.declare("jobs-list", "1,2,4,8", "worker counts to measure");
  obs::RunReport report("parallel_scaling");
  if (auto rc = obs::bootstrap_run(report, flags, argc, argv,
                                   {.jobs = false, .batch = false})) {
    return *rc;
  }

  experiments::PaperSetup setup;
  setup.num_stations = get_count(flags, "stations");
  const std::size_t sets = get_count(flags, "sets");
  const auto seed = get_seed(flags);
  const BitsPerSecond bw = mbps(flags.get_double("bandwidth-mbps"));

  msg::MessageSetGenerator gen(setup.generator_config());
  const auto predicate = setup.ttp_predicate(bw);
  breakdown::MonteCarloOptions options;
  options.num_sets = sets;

  report.note("# Parallel scaling: TTP breakdown estimation, %zu sets, n=%d\n",
              sets, setup.num_stations);
  report.note("# hardware concurrency: %zu\n\n", exec::default_jobs());

  struct Row {
    std::size_t jobs;
    double seconds;
    double trials_per_sec;
    double speedup;
    bool identical;
  };
  std::vector<Row> rows;
  double seq_seconds = 0.0;
  double seq_mean = 0.0;

  for (double jobs_d : flags.get_double_list("jobs-list")) {
    const auto jobs = static_cast<std::size_t>(jobs_d);
    const exec::Executor executor(jobs);
    const auto t0 = std::chrono::steady_clock::now();
    const auto est = breakdown::estimate_breakdown_utilization(
        gen, predicate, bw, seed, executor, options);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    if (rows.empty()) {
      seq_seconds = seconds;
      seq_mean = est.mean();
    }
    rows.push_back({jobs, seconds, static_cast<double>(sets) / seconds,
                    seq_seconds / seconds, est.mean() == seq_mean});
  }

  Table table({"jobs", "seconds", "trials_per_sec", "speedup", "identical"});
  for (const auto& r : rows) {
    table.add_row({std::to_string(r.jobs), fmt(r.seconds, 3),
                   fmt(r.trials_per_sec, 1), fmt(r.speedup, 2),
                   r.identical ? "yes" : "NO"});
  }
  // This binary historically prints the table with no "CSV:" block, so it
  // records the table in the manifest itself instead of using add_table.
  report.record_table("results", table);
  if (report.verbose()) {
    table.print(std::cout);
  } else if (report.format() == obs::OutputFormat::kCsv) {
    table.print_csv(std::cout);
  }

  bool all_identical = true;
  for (const auto& r : rows) all_identical = all_identical && r.identical;
  report.note("\nall jobs counts bit-identical to sequential: %s\n",
              all_identical ? "yes" : "NO");

  // Machine-readable record (one line).
  report.note("\nJSON: {\"bench\":\"parallel_scaling\",\"sets\":%zu,"
              "\"stations\":%d,\"bandwidth_mbps\":%.0f,\"seed\":%llu,"
              "\"hardware_concurrency\":%zu,\"bit_identical\":%s,\"runs\":[",
              sets, setup.num_stations, flags.get_double("bandwidth-mbps"),
              static_cast<unsigned long long>(seed), exec::default_jobs(),
              all_identical ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    report.note("%s{\"jobs\":%zu,\"seconds\":%.4f,\"trials_per_sec\":%.1f,"
                "\"speedup\":%.3f}",
                i ? "," : "", r.jobs, r.seconds, r.trials_per_sec, r.speedup);
  }
  report.note("]}\n");
  const int rc = report.finish();
  return all_identical ? rc : 1;
}
