// Breakdown-utilization *distribution* at representative bandwidths.
//
// The average (Figure 1) hides the spread: Lehoczky-Sha-Ding's original
// methodology also reported how concentrated breakdown utilizations are
// across random sets. This bench prints quantiles per protocol per
// bandwidth, showing e.g. that the FDDI breakdown distribution is tight
// (the criterion is a smooth sum) while the PDP one spreads (scheduling
// points interact with the period mix).

#include <cstdio>
#include <iostream>

#include "tokenring/common/cli.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/experiments/setup.hpp"
#include "tokenring/obs/report.hpp"

using namespace tokenring;

namespace {

breakdown::BreakdownEstimate estimate_with_samples(
    const experiments::PaperSetup& setup,
    const breakdown::BatchScaleKernelFactory& factory, BitsPerSecond bw,
    std::size_t sets, std::uint64_t seed, std::size_t batch,
    const exec::Executor& executor) {
  msg::MessageSetGenerator gen(setup.generator_config());
  breakdown::MonteCarloOptions options;
  options.num_sets = sets;
  options.keep_samples = true;
  options.batch_size = batch;
  return breakdown::estimate_breakdown_utilization(gen, factory, bw, seed,
                                                   executor, options);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("sets", "200", "Monte Carlo message sets per cell");
  flags.declare("seed", "37", "base RNG seed");
  flags.declare("stations", "100", "stations on the ring");
  flags.declare("bandwidths-mbps", "5,20,100", "bandwidth list [Mbit/s]");
  obs::RunReport report("breakdown_profile");
  if (auto rc = obs::bootstrap_run(report, flags, argc, argv)) return *rc;

  experiments::PaperSetup setup;
  setup.num_stations = get_count(flags, "stations");
  const std::size_t sets = get_count(flags, "sets");
  const auto seed = get_seed(flags);
  const auto batch = get_batch(flags);
  const exec::Executor executor(get_jobs(flags));

  report.note(
      "# Breakdown-utilization distribution (n=%d, %zu sets/cell)\n\n",
      setup.num_stations, sets);

  Table table({"protocol", "BW_Mbps", "p05", "p25", "median", "p75", "p95",
               "mean", "stddev"});

  struct Proto {
    const char* name;
    std::function<breakdown::BatchScaleKernelFactory(BitsPerSecond)> factory;
  };
  const Proto protos[] = {
      {"ieee8025",
       [&](BitsPerSecond bw) {
         return setup.pdp_batch_kernel_factory(analysis::PdpVariant::kStandard8025,
                                               bw);
       }},
      {"modified8025",
       [&](BitsPerSecond bw) {
         return setup.pdp_batch_kernel_factory(analysis::PdpVariant::kModified8025,
                                               bw);
       }},
      {"fddi",
       [&](BitsPerSecond bw) { return setup.ttp_batch_kernel_factory(bw); }},
  };

  for (double bw_mbps : flags.get_double_list("bandwidths-mbps")) {
    const BitsPerSecond bw = mbps(bw_mbps);
    for (const auto& proto : protos) {
      const auto est = estimate_with_samples(setup, proto.factory(bw), bw,
                                             sets, seed, batch, executor);
      table.add_row({proto.name, fmt(bw_mbps, 0), fmt(est.quantile(0.05)),
                     fmt(est.quantile(0.25)), fmt(est.quantile(0.5)),
                     fmt(est.quantile(0.75)), fmt(est.quantile(0.95)),
                     fmt(est.mean()), fmt(est.utilization.stddev())});
    }
  }
  report.add_table("results", table);
  return report.finish();
}
