// Station-count ablation: protocol scaling with ring size at a fixed
// bandwidth. More stations raise Theta and multiply per-rotation overheads,
// hurting PDP (whose effective frame slot is Theta-bound at high bandwidth)
// more than TTP.

#include <cstdio>
#include <iostream>

#include "tokenring/common/cli.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/experiments/station_count_study.hpp"
#include "tokenring/obs/report.hpp"

using namespace tokenring;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("sets", "60", "Monte Carlo message sets per point");
  flags.declare("seed", "17", "base RNG seed");
  flags.declare("bandwidth-mbps", "100", "link bandwidth [Mbit/s]");
  flags.declare("stations", "10,25,50,100,150,200", "station counts");
  obs::RunReport report("station_count");
  if (auto rc = obs::bootstrap_run(report, flags, argc, argv)) return *rc;

  experiments::StationCountStudyConfig config;
  config.bandwidth_mbps = flags.get_double("bandwidth-mbps");
  config.sets_per_point = get_count(flags, "sets");
  config.seed = get_seed(flags);
  config.jobs = get_jobs(flags);
  config.batch = get_batch(flags);
  config.station_counts.clear();
  for (double v : flags.get_double_list("stations")) {
    config.station_counts.push_back(static_cast<int>(v));
  }

  report.note("# Station-count ablation at %.0f Mbps\n\n", config.bandwidth_mbps);

  const auto rows = experiments::run_station_count_study(config);

  Table table({"stations", "ieee8025", "modified8025", "fddi"});
  for (const auto& r : rows) {
    table.add_row({fmt(static_cast<long long>(r.stations)), fmt(r.ieee8025),
                   fmt(r.modified8025), fmt(r.fddi)});
  }
  report.add_table("results", table);

  report.note("\n# Observations\n");
  if (rows.size() >= 2) {
    const auto& first = rows.front();
    const auto& last = rows.back();
    report.note("n %d -> %d: modified 802.5 %.3f -> %.3f, FDDI %.3f -> %.3f\n",
                first.stations, last.stations, first.modified8025,
                last.modified8025, first.fddi, last.fddi);
  }
  return report.finish();
}
