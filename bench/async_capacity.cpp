// Asynchronous capacity left by a guaranteed synchronous load (DESIGN.md
// experiment Abl. E). The paper's protocols differ sharply here: PDP burns
// Theta-bound slots per frame at high bandwidth, so its async leftover
// collapses exactly where TTP's grows. The TTP column is cross-checked
// against simulated saturating-async throughput.

#include <cstdio>
#include <iostream>

#include "tokenring/analysis/async_capacity.hpp"
#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/common/cli.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/experiments/setup.hpp"
#include "tokenring/sim/config.hpp"
#include "tokenring/obs/report.hpp"

using namespace tokenring;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("stations", "16", "stations on the ring");
  flags.declare("bandwidths-mbps", "10,100", "bandwidth list [Mbit/s]");
  flags.declare("sync-levels", "0.05,0.1,0.2,0.3,0.4",
                "synchronous utilization levels");
  flags.declare("sim-horizon-s", "1.0", "simulated seconds for the TTP check");
  flags.declare("seed", "31", "RNG seed");
  obs::RunReport report("async_capacity");
  if (auto rc = obs::bootstrap_run(report, flags, argc, argv,
                                   {.jobs = false, .batch = false})) {
    return *rc;
  }

  experiments::PaperSetup setup;
  setup.num_stations = get_count(flags, "stations");

  report.note(
      "# Async capacity vs synchronous load (n=%d)\n"
      "# cells: fraction of the link left for asynchronous traffic\n\n",
      setup.num_stations);

  Table table({"BW_Mbps", "sync_U", "pdp_std", "pdp_mod", "ttp", "ttp_sim"});

  msg::MessageSetGenerator gen(setup.generator_config());
  for (double bw_mbps : flags.get_double_list("bandwidths-mbps")) {
    const BitsPerSecond bw = mbps(bw_mbps);
    for (double level : flags.get_double_list("sync-levels")) {
      Rng rng(get_seed(flags));
      auto set = gen.generate(rng);
      set = set.scaled(level / set.utilization(bw));

      const auto p_std = setup.pdp_params(analysis::PdpVariant::kStandard8025);
      const auto p_mod = setup.pdp_params(analysis::PdpVariant::kModified8025);
      const auto p_ttp = setup.ttp_params();
      const Seconds ttrt = analysis::select_ttrt(set, p_ttp.ring, bw);

      const double ttp_cap = analysis::ttp_async_capacity(set, p_ttp, bw, ttrt);

      // Simulated check: saturating async throughput on the same ring.
      sim::SimConfig cfg;
      cfg.protocol = sim::Protocol::kTtp;
      cfg.ttp = p_ttp;
      cfg.bandwidth = bw;
      cfg.ttrt = ttrt;
      cfg.horizon = flags.get_double("sim-horizon-s");
      cfg.async_model = sim::AsyncModel::kSaturating;
      for (const auto& s : set.streams()) {
        cfg.sync_bandwidth_per_stream.push_back(
            analysis::ttp_local_bandwidth(s, p_ttp, bw, ttrt).value_or(0.0));
      }
      const auto m = sim::run_simulation(set, cfg);
      const double ttp_sim = static_cast<double>(m.async_frames_sent) *
                             p_ttp.async_frame.frame_time(bw) / cfg.horizon;

      table.add_row({fmt(bw_mbps, 0), fmt(level, 2),
                     fmt(analysis::pdp_async_capacity(set, p_std, bw), 3),
                     fmt(analysis::pdp_async_capacity(set, p_mod, bw), 3),
                     fmt(ttp_cap, 3), fmt(ttp_sim, 3)});
    }
  }
  report.add_table("results", table);
  report.note(
      "\n# Observations\n"
      "At high bandwidth the PDP columns collapse (each frame burns a\n"
      "Theta-bound slot) while TTP passes most of the link to async —\n"
      "the same mechanism behind Figure 1's crossover.\n");
  return report.finish();
}
