// Analysis-vs-simulation validation: the discrete-event simulators exercise
// each protocol's schedulability criterion from both sides of the boundary
// (see DESIGN.md, experiment Val. D).

#include <cstdio>
#include <iostream>

#include "tokenring/common/cli.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/experiments/sim_validation_study.hpp"
#include "tokenring/obs/report.hpp"

using namespace tokenring;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("sets", "10", "message sets per (protocol, bandwidth)");
  flags.declare("seed", "29", "base RNG seed");
  flags.declare("stations", "12", "stations on the ring (simulation cost!)");
  flags.declare("bandwidths-mbps", "10,100", "bandwidth list [Mbit/s]");
  obs::RunReport report("sim_validation");
  if (auto rc = obs::bootstrap_run(report, flags, argc, argv,
                                   {.jobs = false, .batch = false})) {
    return *rc;
  }

  experiments::SimValidationConfig config;
  config.setup.num_stations = get_count(flags, "stations");
  config.sets_per_point = get_count(flags, "sets");
  config.seed = get_seed(flags);
  config.bandwidths_mbps = flags.get_double_list("bandwidths-mbps");

  report.note(
      "# Simulation validation (n=%d, %zu sets/cell)\n"
      "# inside scale: PDP %.2f, TTP %.2f of the boundary; outside: %.1fx\n\n",
      config.setup.num_stations, config.sets_per_point, config.inside_scale_pdp,
      config.inside_scale_ttp, config.outside_scale);

  const auto rows = experiments::run_sim_validation(config);

  Table table({"protocol", "BW_Mbps", "tested", "skipped", "false_neg",
               "outside_clean", "johnson_viol", "max_rot/TTRT"});
  bool sound = true;
  for (const auto& r : rows) {
    table.add_row({r.protocol, fmt(r.bandwidth_mbps, 0),
                   fmt(static_cast<long long>(r.sets_tested)),
                   fmt(static_cast<long long>(r.degenerate_skipped)),
                   fmt(static_cast<long long>(r.false_negatives)),
                   fmt(static_cast<long long>(r.outside_clean)),
                   fmt(static_cast<long long>(r.johnson_violations)),
                   r.protocol == "fddi" ? fmt(r.max_intervisit_ratio, 3) : "-"});
    sound &= r.false_negatives == 0 && r.johnson_violations == 0;
  }
  report.add_table("results", table);

  report.note("\n# Observations\nanalysis sound against simulation: %s\n",
              sound ? "yes (0 false negatives, 0 Johnson violations)"
                    : "NO - investigate!");
  return report.finish();
}
