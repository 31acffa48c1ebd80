// Figure 1: average breakdown utilization vs. bandwidth for the three
// protocol implementations (IEEE 802.5, Modified IEEE 802.5, FDDI timed
// token) under the paper's Section 6.2 operating conditions.
//
// The paper's observations this harness reproduces:
//  * PDP improves with bandwidth up to a point, then *falls* (token-walk
//    overhead Theta dominates the shrinking frame time);
//  * the modified 802.5 dominates the standard one everywhere;
//  * PDP beats TTP at low bandwidth, TTP wins at >= ~100 Mbps.

#include <cstdio>
#include <iostream>

#include "tokenring/common/ascii_plot.hpp"
#include "tokenring/common/cli.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/experiments/fig1.hpp"
#include "tokenring/obs/report.hpp"

using namespace tokenring;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("sets", "100", "Monte Carlo message sets per point");
  flags.declare("seed", "42", "base RNG seed");
  flags.declare("stations", "100", "stations on the ring (= streams)");
  flags.declare("mean-period-ms", "100", "average message period [ms]");
  flags.declare("period-ratio", "10", "max/min period ratio");
  flags.declare("bandwidths-mbps", "1,2,5,10,20,50,100,200,500,1000",
                "bandwidth sweep [Mbit/s]");
  obs::RunReport report("fig1_breakdown_vs_bandwidth");
  if (auto rc = obs::bootstrap_run(report, flags, argc, argv)) return *rc;

  experiments::Fig1Config config;
  config.setup.num_stations = get_count(flags, "stations");
  config.setup.mean_period = milliseconds(flags.get_double("mean-period-ms"));
  config.setup.period_ratio = flags.get_double("period-ratio");
  config.sets_per_point = get_count(flags, "sets");
  config.seed = get_seed(flags);
  config.jobs = get_jobs(flags);
  config.batch = get_batch(flags);
  config.bandwidths_mbps = flags.get_double_list("bandwidths-mbps");

  report.note(
      "# Figure 1 reproduction: average breakdown utilization vs bandwidth\n"
      "# n=%d stations, mean period %.0f ms, ratio %.0f, %zu sets/point\n\n",
      config.setup.num_stations, to_milliseconds(config.setup.mean_period),
      config.setup.period_ratio, config.sets_per_point);

  const auto rows = experiments::run_fig1(config);

  Table table({"BW_Mbps", "ieee8025", "ieee8025_ci95", "modified8025",
               "modified8025_ci95", "fddi", "fddi_ci95"});
  for (const auto& r : rows) {
    table.add_row({fmt(r.bandwidth_mbps, 0), fmt(r.ieee8025), fmt(r.ieee8025_ci),
                   fmt(r.modified8025), fmt(r.modified8025_ci), fmt(r.fddi),
                   fmt(r.fddi_ci)});
  }
  report.add_table("results", table);

  // The figure itself.
  PlotSeries std_series{"IEEE 802.5", {}, {}, 'o'};
  PlotSeries mod_series{"Modified IEEE 802.5", {}, {}, 'x'};
  PlotSeries fddi_series{"FDDI", {}, {}, '#'};
  for (const auto& r : rows) {
    std_series.x.push_back(r.bandwidth_mbps);
    std_series.y.push_back(r.ieee8025);
    mod_series.x.push_back(r.bandwidth_mbps);
    mod_series.y.push_back(r.modified8025);
    fddi_series.x.push_back(r.bandwidth_mbps);
    fddi_series.y.push_back(r.fddi);
  }
  PlotOptions plot;
  plot.log_x = true;
  plot.y_max = 1.0;
  plot.title = "\nFigure 1: Avg. breakdown utilization vs bandwidth";
  plot.x_label = "Bandwidth (Mbps)";
  plot.y_label = "average breakdown utilization";
  report.note("%s", render_plot({std_series, mod_series, fddi_series}, plot)
                        .c_str());

  const auto obs = experiments::analyze_fig1(rows);
  report.note("\n# Observations (paper Section 6.2)\n");
  report.note("PDP (modified) peaks at %.0f Mbps (%.3f); non-monotone: %s\n",
              obs.pdp_peak_bandwidth_mbps, obs.pdp_peak_utilization,
              obs.pdp_non_monotone ? "yes (as in the paper)" : "NO (unexpected)");
  report.note("modified 802.5 >= standard 802.5 everywhere: %s\n",
              obs.modified_dominates_standard ? "yes" : "NO (unexpected)");
  report.note("FDDI monotone rising: %s\n",
              obs.fddi_monotone_rising ? "yes" : "NO (unexpected)");
  report.note("winner at %6.0f Mbps: %s\n", rows.front().bandwidth_mbps,
              obs.low_bandwidth_winner.c_str());
  report.note("winner at %6.0f Mbps: %s\n", rows.back().bandwidth_mbps,
              obs.high_bandwidth_winner.c_str());
  if (obs.ttp_crossover_mbps > 0.0) {
    report.note("TTP overtakes PDP at ~%g Mbps\n", obs.ttp_crossover_mbps);
  }
  return report.finish();
}
