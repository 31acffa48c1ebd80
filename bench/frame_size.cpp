// Frame-size trade-off for the priority-driven protocol (paper Section
// 4.2): small frames approximate preemption better but pay the fixed
// per-frame overhead more often; once the frame time falls below Theta the
// extra granularity is pure loss.

#include <cstdio>
#include <iostream>

#include "tokenring/common/cli.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/experiments/frame_size_study.hpp"
#include "tokenring/obs/report.hpp"

using namespace tokenring;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("sets", "60", "Monte Carlo message sets per point");
  flags.declare("seed", "11", "base RNG seed");
  flags.declare("stations", "100", "stations on the ring");
  flags.declare("bandwidths-mbps", "4,16,100", "bandwidth list [Mbit/s]");
  flags.declare("payload-bytes", "16,32,64,128,256,512,1024,4096",
                "frame payload sizes [bytes]");
  obs::RunReport report("frame_size");
  if (auto rc = obs::bootstrap_run(report, flags, argc, argv)) return *rc;

  experiments::FrameSizeStudyConfig config;
  config.setup.num_stations = get_count(flags, "stations");
  config.sets_per_point = get_count(flags, "sets");
  config.seed = get_seed(flags);
  config.jobs = get_jobs(flags);
  config.batch = get_batch(flags);
  config.bandwidths_mbps = flags.get_double_list("bandwidths-mbps");
  config.payload_bytes = flags.get_double_list("payload-bytes");

  report.note("# PDP frame-size ablation (n=%d, %zu sets/point)\n\n",
              config.setup.num_stations, config.sets_per_point);

  const auto rows = experiments::run_frame_size_study(config);

  Table table({"BW_Mbps", "payload_B", "ieee8025", "modified8025"});
  for (const auto& r : rows) {
    table.add_row({fmt(r.bandwidth_mbps, 0), fmt(r.payload_bytes, 0),
                   fmt(r.ieee8025), fmt(r.modified8025)});
  }
  report.add_table("results", table);

  report.note("\n# Observations\n");
  for (double bw : config.bandwidths_mbps) {
    report.note("best payload at %4.0f Mbps (modified 802.5): %.0f bytes\n", bw,
                experiments::best_payload_bytes(rows, bw));
  }
  report.note(
      "(expected: the optimum grows with bandwidth — tiny frames only make\n"
      " sense while F stays above Theta)\n");
  return report.finish();
}
