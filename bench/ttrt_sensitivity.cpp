// TTRT sensitivity (paper Section 5.2): breakdown utilization of the timed
// token protocol as a function of the chosen TTRT, validating that the
// sqrt(Theta * P_min) bidding rule lands near the empirical maximizer and
// clearly beats the naive "largest valid TTRT" (P_min / 2).

#include <cstdio>
#include <iostream>

#include "tokenring/common/cli.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/experiments/ttrt_study.hpp"
#include "tokenring/obs/report.hpp"

using namespace tokenring;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("sets", "100", "Monte Carlo message sets per point");
  flags.declare("seed", "7", "base RNG seed");
  flags.declare("stations", "100", "stations on the ring");
  flags.declare("bandwidth-mbps", "100", "link bandwidth [Mbit/s]");
  flags.declare("equal-periods", "false",
                "use equal periods (the paper's analytical special case)");
  obs::RunReport report("ttrt_sensitivity");
  if (auto rc = obs::bootstrap_run(report, flags, argc, argv)) return *rc;

  experiments::TtrtStudyConfig config;
  config.setup.num_stations = get_count(flags, "stations");
  config.bandwidth_mbps = flags.get_double("bandwidth-mbps");
  config.sets_per_point = get_count(flags, "sets");
  config.seed = get_seed(flags);
  config.jobs = get_jobs(flags);
  config.batch = get_batch(flags);
  if (flags.get_bool("equal-periods")) {
    config.setup.period_dist = msg::PeriodDistribution::kEqual;
  }

  report.note(
      "# TTRT sensitivity at %.0f Mbps (n=%d, %s periods, %zu sets/point)\n\n",
      config.bandwidth_mbps, config.setup.num_stations,
      flags.get_bool("equal-periods") ? "equal" : "uniform",
      config.sets_per_point);

  const auto result = experiments::run_ttrt_study(config);

  Table table({"fraction_of_Pmin/2", "TTRT_ms", "breakdown", "ci95"});
  for (const auto& r : result.rows) {
    table.add_row({fmt(r.fraction, 2), fmt(to_milliseconds(r.ttrt), 3),
                   fmt(r.breakdown_mean), fmt(r.breakdown_ci)});
  }
  report.add_table("results", table);

  report.note("\n# Observations\n");
  report.note("empirical best TTRT: %.3f ms (fraction %.2f) -> %.3f\n",
              to_milliseconds(result.best_row.ttrt), result.best_row.fraction,
              result.best_row.breakdown_mean);
  report.note("sqrt(Theta*Pmin) rule: %.3f ms -> %.3f\n",
              to_milliseconds(result.sqrt_rule_ttrt),
              result.sqrt_rule_breakdown);
  const auto& largest = result.rows.back();
  report.note("largest valid TTRT (Pmin/2 = %.3f ms) -> %.3f\n",
              to_milliseconds(largest.ttrt), largest.breakdown_mean);
  report.note("sqrt rule vs Pmin/2: %+.1f%% breakdown utilization\n",
              100.0 * (result.sqrt_rule_breakdown - largest.breakdown_mean) /
                  (largest.breakdown_mean > 0 ? largest.breakdown_mean : 1.0));
  return report.finish();
}
