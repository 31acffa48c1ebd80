// Side-by-side discrete-event simulation of one message set under both
// protocols, with an optional event-by-event timeline (--trace-ms).
//
//   ./ring_simulation --bandwidth-mbps=16 --trace-ms=2

#include <cstdio>
#include <iostream>

#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/common/cli.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/planner/planner.hpp"
#include "tokenring/sim/config.hpp"

using namespace tokenring;

namespace {

msg::MessageSet demo_set() {
  msg::MessageSet set;
  set.add({.period = milliseconds(20), .payload_bits = bytes(2'000), .station = 0});
  set.add({.period = milliseconds(30), .payload_bits = bytes(3'000), .station = 2});
  set.add({.period = milliseconds(50), .payload_bits = bytes(8'000), .station = 4});
  set.add({.period = milliseconds(80), .payload_bits = bytes(10'000), .station = 5});
  set.add({.period = milliseconds(120), .payload_bits = bytes(20'000), .station = 7});
  return set;
}

void print_per_station(const sim::SimMetrics& m) {
  Table table({"station", "released", "completed", "misses", "mean_resp_ms",
               "max_resp_ms"});
  for (const auto& [station, st] : m.per_station) {
    table.add_row({fmt(static_cast<long long>(station)),
                   fmt(static_cast<long long>(st.released)),
                   fmt(static_cast<long long>(st.completed)),
                   fmt(static_cast<long long>(st.misses)),
                   fmt(to_milliseconds(st.response_time.mean()), 3),
                   fmt(to_milliseconds(st.response_time.max()), 3)});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("bandwidth-mbps", "16", "link bandwidth [Mbit/s]");
  flags.declare("horizon-ms", "500", "simulated time [ms]");
  flags.declare("trace-ms", "0",
                "print the event timeline for the first N ms (0 = off)");
  flags.declare("async", "saturating", "async model: none|saturating|poisson");
  flags.declare("async-fps", "2000", "Poisson async frames/s per station");
  if (const auto parsed = flags.parse_detailed(argc, argv);
      parsed != CliFlags::ParseOutcome::kOk) {
    return parsed == CliFlags::ParseOutcome::kHelp ? 0 : 1;
  }

  const BitsPerSecond bw = mbps(flags.get_double("bandwidth-mbps"));
  const Seconds horizon = milliseconds(flags.get_double("horizon-ms"));
  const Seconds trace_until = milliseconds(flags.get_double("trace-ms"));

  sim::AsyncModel async_model;
  const std::string async_name = flags.get_string("async");
  if (async_name == "none") {
    async_model = sim::AsyncModel::kNone;
  } else if (async_name == "saturating") {
    async_model = sim::AsyncModel::kSaturating;
  } else if (async_name == "poisson") {
    async_model = sim::AsyncModel::kPoisson;
  } else {
    std::fprintf(stderr, "unknown async model: %s\n", async_name.c_str());
    return 1;
  }

  const auto set = demo_set();
  sim::CallbackSink trace_sink([trace_until](const sim::TraceRecord& r) {
    if (r.at <= trace_until) {
      std::puts(sim::format_trace_record(r).c_str());
    }
  });

  // ---- Priority-driven protocol (modified 802.5) -------------------------
  {
    sim::SimConfig cfg;
    cfg.protocol = sim::Protocol::kPdp;
    cfg.pdp = planner::default_config(planner::Protocol::kModified8025, bw, 8)
                  .pdp_params();
    cfg.bandwidth = bw;
    cfg.horizon = horizon;
    cfg.async_model = async_model;
    cfg.async_frames_per_second = flags.get_double("async-fps");
    if (trace_until > 0.0) cfg.trace = &trace_sink;

    std::printf("=== Modified IEEE 802.5 at %.0f Mbps (async: %s) ===\n",
                to_mbps(bw), to_string(async_model));
    const auto m = sim::run_simulation(set, cfg);
    std::printf("%s", m.summary().c_str());
    print_per_station(m);
    std::printf("\n");
  }

  // ---- Timed token protocol (FDDI) ----------------------------------------
  {
    sim::SimConfig cfg;
    cfg.protocol = sim::Protocol::kTtp;
    cfg.ttp = planner::default_config(planner::Protocol::kFddi, bw, 8)
                  .ttp_params();
    cfg.bandwidth = bw;
    cfg.horizon = horizon;
    cfg.async_model = async_model;
    cfg.async_frames_per_second = flags.get_double("async-fps");
    if (trace_until > 0.0) cfg.trace = &trace_sink;

    const Seconds ttrt = analysis::select_ttrt(set, cfg.ttp.ring, bw);
    std::printf("=== FDDI timed token at %.0f Mbps (TTRT %.3f ms) ===\n",
                to_mbps(bw), to_milliseconds(ttrt));
    const auto m = sim::run_simulation(set, cfg);
    std::printf("%s", m.summary().c_str());
    print_per_station(m);
  }
  return 0;
}
