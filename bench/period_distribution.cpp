// Period-distribution ablation: the paper states "the results obtained for
// other values of these parameters were similar". This bench substantiates
// the claim by sweeping the mean period, max/min ratio, and distribution
// shape at a fixed bandwidth.

#include <cstdio>
#include <iostream>

#include "tokenring/common/cli.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/experiments/distribution_study.hpp"
#include "tokenring/obs/report.hpp"

using namespace tokenring;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("sets", "60", "Monte Carlo message sets per point");
  flags.declare("seed", "13", "base RNG seed");
  flags.declare("stations", "100", "stations on the ring");
  flags.declare("bandwidth-mbps", "10", "link bandwidth [Mbit/s]");
  obs::RunReport report("period_distribution");
  if (auto rc = obs::bootstrap_run(report, flags, argc, argv)) return *rc;

  experiments::DistributionStudyConfig config;
  config.setup.num_stations = get_count(flags, "stations");
  config.bandwidth_mbps = flags.get_double("bandwidth-mbps");
  config.sets_per_point = get_count(flags, "sets");
  config.seed = get_seed(flags);
  config.jobs = get_jobs(flags);
  config.batch = get_batch(flags);

  report.note("# Period-distribution ablation at %.0f Mbps (n=%d)\n\n",
              config.bandwidth_mbps, config.setup.num_stations);

  const auto rows = experiments::run_distribution_study(config);

  Table table({"dist", "mean_ms", "ratio", "ieee8025", "modified8025", "fddi"});
  for (const auto& r : rows) {
    table.add_row({r.distribution, fmt(r.mean_period_ms, 0),
                   fmt(r.period_ratio, 0), fmt(r.ieee8025), fmt(r.modified8025),
                   fmt(r.fddi)});
  }
  report.add_table("results", table);

  // The paper's "similar results" claim: the PDP-vs-TTP winner at this
  // bandwidth should be stable across period parameterizations.
  std::size_t pdp_wins = 0;
  for (const auto& r : rows) {
    if (std::max(r.ieee8025, r.modified8025) >= r.fddi) ++pdp_wins;
  }
  report.note("\n# Observations\nPDP wins %zu / %zu parameterizations at %.0f Mbps\n",
              pdp_wins, rows.size(), config.bandwidth_mbps);
  return report.finish();
}
