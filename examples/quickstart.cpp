// Quickstart: can this message set be guaranteed on a token ring?
//
// Builds a small synchronous message set (or loads one from a scenario CSV
// file), checks its schedulability under all three protocol implementations
// the paper compares (IEEE 802.5, modified 802.5, FDDI timed token), and
// prints per-stream detail plus worst-case latency quotes and the
// asynchronous capacity the guaranteed load leaves over.
//
//   ./quickstart [--bandwidth-mbps=16] [--file=scenario.csv]

#include <cstdio>

#include "tokenring/analysis/async_capacity.hpp"
#include "tokenring/analysis/latency.hpp"
#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/common/cli.hpp"
#include "tokenring/msg/io.hpp"
#include "tokenring/query/query.hpp"

using namespace tokenring;

namespace {

// An 8-station ring carrying sensor/control/video-like periodic traffic.
msg::MessageSet demo_set() {
  msg::MessageSet set;
  set.add({.period = milliseconds(20), .payload_bits = bytes(1'500), .station = 0});
  set.add({.period = milliseconds(25), .payload_bits = bytes(2'000), .station = 1});
  set.add({.period = milliseconds(40), .payload_bits = bytes(6'000), .station = 2});
  set.add({.period = milliseconds(50), .payload_bits = bytes(4'000), .station = 3});
  set.add({.period = milliseconds(80), .payload_bits = bytes(12'000), .station = 4});
  set.add({.period = milliseconds(100), .payload_bits = bytes(16'000), .station = 5});
  set.add({.period = milliseconds(160), .payload_bits = bytes(20'000), .station = 6});
  set.add({.period = milliseconds(200), .payload_bits = bytes(24'000), .station = 7});
  return set;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("bandwidth-mbps", "16", "link bandwidth in Mbit/s");
  flags.declare("file", "", "scenario CSV (station,period_ms,payload_bits)");
  if (const auto parsed = flags.parse_detailed(argc, argv);
      parsed != CliFlags::ParseOutcome::kOk) {
    return parsed == CliFlags::ParseOutcome::kHelp ? 0 : 1;
  }
  const BitsPerSecond bw = mbps(flags.get_double("bandwidth-mbps"));

  msg::MessageSet set;
  const std::string path = flags.get_string("file");
  if (path.empty()) {
    set = demo_set();
  } else {
    try {
      set = msg::load_message_set(path);
    } catch (const msg::ParseError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }
  if (set.empty()) {
    std::fprintf(stderr, "scenario has no streams\n");
    return 1;
  }

  const int ring_size = query::ring_size_for(set);
  const auto params = [&](planner::Protocol protocol) {
    return planner::default_config(protocol, bw, ring_size);
  };

  std::printf("message set: %zu streams, utilization %.3f at %.0f Mbps\n\n",
              set.size(), set.utilization(bw), to_mbps(bw));

  // --- Priority-driven protocol (both 802.5 implementations) ------------
  for (auto protocol :
       {planner::Protocol::kIeee8025, planner::Protocol::kModified8025}) {
    const analysis::PdpParams pdp = params(protocol).pdp_params();
    const auto verdict = analysis::pdp_schedulable(set, pdp, bw);
    std::printf("%-22s: %s  (blocking B = %.1f us)\n", to_string(pdp.variant),
                verdict.schedulable ? "SCHEDULABLE" : "NOT schedulable",
                to_microseconds(verdict.blocking));
    for (const auto& r : verdict.reports) {
      std::printf("  station %d: P=%5.1fms C'=%7.3fms frames=%3.0f  %s",
                  r.stream.station, to_milliseconds(r.stream.period),
                  to_milliseconds(r.augmented_length), r.frames,
                  r.schedulable ? "ok" : "MISSES");
      if (r.response_time) {
        std::printf("  (worst response %.2f ms)", to_milliseconds(*r.response_time));
      }
      std::printf("\n");
    }
    std::printf("\n");
  }

  // --- Timed-token protocol (FDDI) ---------------------------------------
  const analysis::TtpParams ttp = params(planner::Protocol::kFddi).ttp_params();
  const auto verdict = analysis::ttp_schedulable(set, ttp, bw);
  std::printf("%-22s: %s\n", "FDDI timed token",
              verdict.schedulable ? "SCHEDULABLE" : "NOT schedulable");
  std::printf("  TTRT=%.3fms  Lambda=%.3fms  allocated=%.3fms  available=%.3fms\n",
              to_milliseconds(verdict.ttrt), to_milliseconds(verdict.lambda),
              to_milliseconds(verdict.allocated),
              to_milliseconds(verdict.available));
  for (const auto& r : verdict.reports) {
    std::printf("  station %d: P=%5.1fms q=%2.0f h=%.4fms %s\n", r.stream.station,
                to_milliseconds(r.stream.period), r.q,
                to_milliseconds(r.h), r.deadline_feasible ? "" : "(q<2!)");
  }

  // --- Worst-case latency quotes and leftover async capacity -------------
  std::printf("\nFDDI worst-case latency quotes (Johnson bound):\n");
  for (const auto& b : analysis::ttp_latency_report(set, ttp, bw)) {
    std::printf("  station %d: %3lld visits, response <= %7.2f ms (slack %+.2f ms)\n",
                b.stream.station, static_cast<long long>(b.visits),
                to_milliseconds(b.response_bound), to_milliseconds(b.slack));
  }

  std::printf(
      "\nleftover asynchronous capacity: modified 802.5 %.1f%%, FDDI %.1f%%\n",
      100.0 * analysis::pdp_async_capacity(
                  set, params(planner::Protocol::kModified8025).pdp_params(),
                  bw),
      100.0 * analysis::ttp_async_capacity(set, ttp, bw));
  return 0;
}
