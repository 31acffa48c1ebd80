// Deadline sensitivity (extension; DESIGN.md Abl. H): breakdown utilization
// as relative deadlines tighten from D = P (the paper's model) to D = 0.2P.
// Quantifies the paper's Section 7 argument: tight deadlines punish the
// timed token's round-robin service far more than the priority-driven
// protocol's deadline-monotonic arbitration.

#include <cstdio>
#include <iostream>

#include "tokenring/common/cli.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/experiments/deadline_study.hpp"
#include "tokenring/obs/report.hpp"

using namespace tokenring;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("sets", "60", "Monte Carlo message sets per point");
  flags.declare("seed", "47", "base RNG seed");
  flags.declare("stations", "100", "stations on the ring");
  flags.declare("bandwidths-mbps", "10,100", "bandwidth list [Mbit/s]");
  flags.declare("fractions", "1.0,0.8,0.6,0.4,0.2",
                "deadline fractions D/P to sweep");
  obs::RunReport report("deadline_sensitivity");
  if (auto rc = obs::bootstrap_run(report, flags, argc, argv)) return *rc;

  experiments::DeadlineStudyConfig config;
  config.setup.num_stations = get_count(flags, "stations");
  config.sets_per_point = get_count(flags, "sets");
  config.seed = get_seed(flags);
  config.jobs = get_jobs(flags);
  config.batch = get_batch(flags);
  config.bandwidths_mbps = flags.get_double_list("bandwidths-mbps");
  config.deadline_fractions = flags.get_double_list("fractions");

  report.note("# Deadline-sensitivity ablation (n=%d, %zu sets/point)\n\n",
              config.setup.num_stations, config.sets_per_point);

  const auto rows = experiments::run_deadline_study(config);

  Table table({"BW_Mbps", "D/P", "ieee8025", "modified8025", "fddi"});
  for (const auto& r : rows) {
    table.add_row({fmt(r.bandwidth_mbps, 0), fmt(r.deadline_fraction, 1),
                   fmt(r.ieee8025), fmt(r.modified8025), fmt(r.fddi)});
  }
  report.add_table("results", table);

  report.note("\n# Observations\n");
  for (double bw : config.bandwidths_mbps) {
    double pdp_first = -1, pdp_last = 0, ttp_first = -1, ttp_last = 0;
    for (const auto& r : rows) {
      if (r.bandwidth_mbps != bw) continue;
      if (pdp_first < 0) {
        pdp_first = r.modified8025;
        ttp_first = r.fddi;
      }
      pdp_last = r.modified8025;
      ttp_last = r.fddi;
    }
    const auto retained = [](double first, double last) {
      return first > 0 ? 100.0 * last / first : 0.0;
    };
    report.note(
        "at %4.0f Mbps, tightening D/P %.1f -> %.1f retains %.0f%% of PDP's "
        "breakdown utilization but only %.0f%% of FDDI's\n",
        bw, config.deadline_fractions.front(), config.deadline_fractions.back(),
        retained(pdp_first, pdp_last), retained(ttp_first, ttp_last));
  }
  return report.finish();
}
