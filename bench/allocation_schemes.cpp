// Synchronous-bandwidth allocation schemes for the timed-token protocol
// (paper Section 5.2) and the worst-case ~33% guarantee (Sections 2, 5).
//
// Part 1: fraction of random message sets each scheme can guarantee at
// fixed utilization levels — the local scheme must dominate (it allocates
// exactly each station's minimum need).
// Part 2: the analytical worst-case bound (1 - Lambda/TTRT)/3 versus the
// empirical minimum breakdown utilization over random sets.

#include <cstdio>
#include <iostream>

#include "tokenring/common/cli.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/experiments/allocation_study.hpp"
#include "tokenring/obs/report.hpp"

using namespace tokenring;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("sets", "200", "Monte Carlo message sets per point");
  flags.declare("seed", "19", "base RNG seed");
  flags.declare("stations", "100", "stations on the ring");
  flags.declare("bandwidth-mbps", "100", "link bandwidth [Mbit/s]");
  obs::RunReport report("allocation_schemes");
  if (auto rc = obs::bootstrap_run(report, flags, argc, argv)) return *rc;

  experiments::AllocationStudyConfig config;
  config.setup.num_stations = get_count(flags, "stations");
  config.bandwidth_mbps = flags.get_double("bandwidth-mbps");
  config.sets_per_point = get_count(flags, "sets");
  config.seed = get_seed(flags);
  config.jobs = get_jobs(flags);

  report.note(
      "# TTP allocation schemes at %.0f Mbps (n=%d, %zu sets/level)\n"
      "# cell = fraction of random sets the scheme guarantees\n\n",
      config.bandwidth_mbps, config.setup.num_stations, config.sets_per_point);

  const auto rows = experiments::run_allocation_study(config);

  Table table({"utilization", "local", "full-length", "proportional",
               "norm-proportional", "equal-partition"});
  for (double u : config.utilization_levels) {
    std::vector<std::string> cells = {fmt(u, 2)};
    for (auto scheme : analysis::all_allocation_schemes()) {
      for (const auto& r : rows) {
        if (r.scheme == scheme && r.utilization == u) {
          cells.push_back(fmt(r.feasible_fraction, 3));
        }
      }
    }
    table.add_row(cells);
  }
  report.add_table("results", table);

  experiments::WorstCaseStudyConfig wc;
  wc.setup = config.setup;
  wc.bandwidth_mbps = config.bandwidth_mbps;
  wc.num_sets = config.sets_per_point;
  wc.seed = config.seed;
  wc.jobs = config.jobs;
  wc.batch = get_batch(flags);
  const auto worst = experiments::run_worst_case_study(wc);

  report.note("\n# Worst-case guarantee (local scheme)\n");
  report.note("analytical bound (1 - Lambda/TTRT)/3 : %.4f\n",
              worst.analytical_bound);
  report.note("empirical min breakdown utilization  : %.4f\n",
              worst.min_breakdown);
  report.note("empirical mean breakdown utilization : %.4f\n",
              worst.mean_breakdown);
  report.note("sets rejected below the bound        : %zu (must be 0)\n",
              worst.bound_violations);
  return report.finish();
}
