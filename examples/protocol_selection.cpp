// Protocol selection at design time — the paper's motivating use case
// (Section 2): given a traffic profile and candidate link speeds, which MAC
// protocol should the network use?
//
//   ./protocol_selection --stations=100 --mean-period-ms=100
//                                  --bandwidths-mbps=4,16,100,622

#include <cstdio>
#include <iostream>
#include <vector>

#include "tokenring/common/cli.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/exec/executor.hpp"
#include "tokenring/planner/advisor.hpp"

using namespace tokenring;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("stations", "100", "stations on the ring");
  flags.declare("mean-period-ms", "100", "average message period [ms]");
  flags.declare("period-ratio", "10", "max/min period ratio");
  flags.declare("bandwidths-mbps", "4,16,100,622",
                "candidate link speeds [Mbit/s]");
  flags.declare("sets", "50", "Monte Carlo sets per estimate");
  flags.declare("seed", "1", "RNG seed");
  if (const auto parsed = flags.parse_detailed(argc, argv);
      parsed != CliFlags::ParseOutcome::kOk) {
    return parsed == CliFlags::ParseOutcome::kHelp ? 0 : 1;
  }

  planner::TrafficProfile profile;
  profile.num_stations = get_count(flags, "stations");
  profile.mean_period = milliseconds(flags.get_double("mean-period-ms"));
  profile.period_ratio = flags.get_double("period-ratio");

  std::printf(
      "Design-stage protocol selection\n"
      "traffic: %d stations, mean period %.0f ms, ratio %.0f\n\n",
      profile.num_stations, to_milliseconds(profile.mean_period),
      profile.period_ratio);

  Table table({"BW_Mbps", "ieee8025", "modified8025", "fddi", "recommend",
               "margin"});
  const auto bandwidths_mbps = flags.get_double_list("bandwidths-mbps");
  std::vector<BitsPerSecond> bandwidths;
  for (double bw_mbps : bandwidths_mbps) bandwidths.push_back(mbps(bw_mbps));
  const auto recs =
      planner::recommend_protocol(profile, bandwidths, get_count(flags, "sets"),
                                  get_seed(flags), exec::Executor(1));
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const auto& rec = recs[i];
    table.add_row({fmt(bandwidths_mbps[i], 0), fmt(rec.ieee8025, 3),
                   fmt(rec.modified8025, 3), fmt(rec.fddi, 3),
                   planner::to_string(rec.best), fmt(rec.margin, 2)});
  }
  table.print(std::cout);

  std::printf(
      "\n(cells: estimated average breakdown utilization — the synchronous\n"
      " load the ring can typically guarantee; margin = best / runner-up.\n"
      " Expect PDP to win at low speeds and FDDI at 100+ Mbps, per the\n"
      " paper's conclusion.)\n");
  return 0;
}
