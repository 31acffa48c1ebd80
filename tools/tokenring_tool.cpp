// tokenring_tool — command-line front end for the library.
//
//   tokenring_tool check    --file=set.csv --protocol=fddi --bandwidth-mbps=100
//   tokenring_tool plan     --file=set.csv --bandwidth-mbps=100
//   tokenring_tool simulate --file=set.csv --protocol=modified8025
//                                       --bandwidth-mbps=16 --horizon-ms=500
//   tokenring_tool advise   --stations=100 --mean-period-ms=100
//                                       --bandwidths-mbps=4,16,100
//   tokenring_tool generate --stations=32 --utilization=0.4
//                                       --bandwidth-mbps=100 --file=set.csv
//   tokenring_tool faultcheck --file=set.csv --protocol=fddi
//                                       --bandwidth-mbps=100
//   tokenring_tool help [command]
//
// Every command also takes the shared observability flags: --format
// (table|csv|json), --out <manifest.json>, --profile. `generate` writes its
// scenario with --file; --out is always the run-manifest path.
//
// Exit codes: 0 = success / schedulable, 2 = not schedulable (check,
// faultcheck, plan, simulate), 1 = usage or input error.

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "tokenring/analysis/async_capacity.hpp"
#include "tokenring/analysis/latency.hpp"
#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/common/cli.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/fault/margins.hpp"
#include "tokenring/msg/generator.hpp"
#include "tokenring/msg/io.hpp"
#include "tokenring/net/standards.hpp"
#include "tokenring/obs/registry.hpp"
#include "tokenring/obs/report.hpp"
#include "tokenring/obs/trace_sinks.hpp"
#include "tokenring/planner/advisor.hpp"
#include "tokenring/serve/server.hpp"
#include "tokenring/sim/config.hpp"
#include "tokenring/sim/workload.hpp"

using namespace tokenring;

namespace {

// Ranges for integer flags narrowed to int / size_t / uint64 below.
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kSeedMax = std::numeric_limits<std::int64_t>::max();

struct ParsedProtocol {
  bool is_ttp = false;
  analysis::PdpVariant variant = analysis::PdpVariant::kStandard8025;
};

bool parse_protocol(const std::string& name, ParsedProtocol& out) {
  if (name == "fddi") {
    out.is_ttp = true;
    return true;
  }
  if (name == "ieee8025") {
    out.variant = analysis::PdpVariant::kStandard8025;
    return true;
  }
  if (name == "modified8025") {
    out.variant = analysis::PdpVariant::kModified8025;
    return true;
  }
  std::fprintf(stderr,
               "unknown protocol '%s' (ieee8025|modified8025|fddi)\n",
               name.c_str());
  return false;
}

int ring_size_for(const msg::MessageSet& set) {
  int n = std::max<int>(2, static_cast<int>(set.size()));
  for (const auto& s : set.streams()) n = std::max(n, s.station + 1);
  return n;
}

msg::MessageSet load_or_die(const std::string& path) {
  if (path.empty()) {
    throw msg::ParseError("--file is required for this command");
  }
  return msg::load_message_set(path);
}

/// Record a table in the manifest and print it the way this tool always
/// has in table mode (aligned, no trailing CSV block); print only the CSV
/// form in csv mode.
void emit_table(obs::RunReport& report, const std::string& name,
                const Table& table) {
  report.record_table(name, table);
  if (report.verbose()) {
    table.print(std::cout);
  } else if (report.format() == obs::OutputFormat::kCsv) {
    table.print_csv(std::cout);
  }
}

// ---- check -------------------------------------------------------------------

void flags_check(CliFlags& flags) {
  flags.declare("file", "", "scenario CSV (station,period_ms,payload_bits)");
  flags.declare("protocol", "fddi", "ieee8025 | modified8025 | fddi");
  flags.declare("bandwidth-mbps", "100", "link bandwidth [Mbit/s]");
}

int cmd_check(const CliFlags& flags, obs::RunReport& report) {
  ParsedProtocol proto;
  if (!parse_protocol(flags.get_string("protocol"), proto)) return 1;
  const auto set = load_or_die(flags.get_string("file"));
  const BitsPerSecond bw = mbps(flags.get_double("bandwidth-mbps"));
  const int n = ring_size_for(set);

  bool ok;
  Table verdict({"protocol", "schedulable"});
  if (proto.is_ttp) {
    analysis::TtpParams p;
    p.ring = net::fddi_ring(n);
    p.frame = p.async_frame = net::paper_frame_format();
    const auto v = analysis::ttp_schedulable(set, p, bw);
    ok = v.schedulable;
    report.note("%s: %s (TTRT %.3f ms, allocated %.3f / available %.3f ms)\n",
                flags.get_string("protocol").c_str(),
                ok ? "SCHEDULABLE" : "NOT SCHEDULABLE",
                to_milliseconds(v.ttrt), to_milliseconds(v.allocated),
                to_milliseconds(v.available));
  } else {
    analysis::PdpParams p;
    p.ring = net::ieee8025_ring(n);
    p.frame = net::paper_frame_format();
    p.variant = proto.variant;
    const auto v = analysis::pdp_schedulable(set, p, bw);
    ok = v.schedulable;
    report.note("%s: %s (blocking %.1f us)\n",
                flags.get_string("protocol").c_str(),
                ok ? "SCHEDULABLE" : "NOT SCHEDULABLE",
                to_microseconds(v.blocking));
    for (const auto& r : v.reports) {
      if (!r.schedulable) {
        report.note("  station %d misses: C'=%.3f ms in P=%.1f ms\n",
                    r.stream.station, to_milliseconds(r.augmented_length),
                    to_milliseconds(r.stream.period));
      }
    }
  }
  verdict.add_row({flags.get_string("protocol"), ok ? "yes" : "no"});
  report.record_table("verdict", verdict);
  if (report.format() == obs::OutputFormat::kCsv) {
    verdict.print_csv(std::cout);
  }
  return ok ? 0 : 2;
}

// ---- faultcheck --------------------------------------------------------------

void flags_faultcheck(CliFlags& flags) {
  flags.declare("file", "", "scenario CSV (station,period_ms,payload_bits)");
  flags.declare("protocol", "fddi", "ieee8025 | modified8025 | fddi");
  flags.declare("bandwidth-mbps", "100", "link bandwidth [Mbit/s]");
  flags.declare("noise-ms", "1", "noise burst duration [ms]");
}

int cmd_faultcheck(const CliFlags& flags, obs::RunReport& report) {
  ParsedProtocol proto;
  if (!parse_protocol(flags.get_string("protocol"), proto)) return 1;
  const auto set = load_or_die(flags.get_string("file"));
  const BitsPerSecond bw = mbps(flags.get_double("bandwidth-mbps"));
  const int n = ring_size_for(set);
  const Seconds noise = milliseconds(flags.get_double("noise-ms"));

  // One row per fault kind: how many such faults per period the fault-aware
  // criterion absorbs before the guarantee breaks.
  bool fault_free = false;
  Table table({"fault_kind", "recovery_us", "margin"});
  const auto add_row = [&](fault::FaultKind kind,
                           const fault::FaultMarginReport& fmr) {
    fault_free = fmr.fault_free_schedulable;
    table.add_row({fault::to_string(kind),
                   fmt(to_microseconds(fmr.recovery_per_fault), 1),
                   fmr.margin < 0 ? std::string("-")
                                  : fmt(static_cast<long long>(fmr.margin))});
  };

  if (proto.is_ttp) {
    analysis::TtpParams p;
    p.ring = net::fddi_ring(n);
    p.frame = p.async_frame = net::paper_frame_format();
    for (fault::FaultKind kind : fault::kAllFaultKinds) {
      if (kind == fault::FaultKind::kStationRejoin) continue;  // = crash cost
      fault::FaultBudget budget{kind, noise};
      add_row(kind, fault::ttp_fault_margin(set, p, bw, 0.0, budget));
    }
  } else {
    analysis::PdpParams p;
    p.ring = net::ieee8025_ring(n);
    p.frame = net::paper_frame_format();
    p.variant = proto.variant;
    for (fault::FaultKind kind : fault::kAllFaultKinds) {
      if (kind == fault::FaultKind::kStationRejoin) continue;  // = crash cost
      fault::FaultBudget budget{kind, noise};
      add_row(kind, fault::pdp_fault_margin(set, p, bw, budget));
    }
  }

  report.note("%s at %.0f Mbps: %s fault-free\n",
              flags.get_string("protocol").c_str(), to_mbps(bw),
              fault_free ? "SCHEDULABLE" : "NOT SCHEDULABLE");
  emit_table(report, "fault_margins", table);
  report.note(
      "(margin = max faults of that kind per period the fault-aware\n"
      " criterion still guarantees; '-' = infeasible even fault-free)\n");
  return fault_free ? 0 : 2;
}

// ---- plan --------------------------------------------------------------------

void flags_plan(CliFlags& flags) {
  flags.declare("file", "", "scenario CSV");
  flags.declare("bandwidth-mbps", "100", "link bandwidth [Mbit/s]");
}

int cmd_plan(const CliFlags& flags, obs::RunReport& report) {
  const auto set = load_or_die(flags.get_string("file"));
  const BitsPerSecond bw = mbps(flags.get_double("bandwidth-mbps"));
  const int n = ring_size_for(set);

  analysis::TtpParams ttp;
  ttp.ring = net::fddi_ring(n);
  ttp.frame = ttp.async_frame = net::paper_frame_format();
  const auto v = analysis::ttp_schedulable(set, ttp, bw);
  report.note("FDDI plan at %.0f Mbps: TTRT %.3f ms (%s)\n", to_mbps(bw),
              to_milliseconds(v.ttrt),
              v.schedulable ? "schedulable" : "NOT schedulable");

  Table table({"station", "P_ms", "q", "h_us", "visits", "resp_bound_ms",
               "slack_ms"});
  const auto latency = analysis::ttp_latency_report(set, ttp, bw);
  for (std::size_t i = 0; i < v.reports.size(); ++i) {
    const auto& r = v.reports[i];
    const auto& b = latency[i];
    table.add_row({fmt(static_cast<long long>(r.stream.station)),
                   fmt(to_milliseconds(r.stream.period), 1),
                   fmt(static_cast<long long>(r.q)),
                   fmt(to_microseconds(r.h), 2),
                   fmt(static_cast<long long>(b.visits)),
                   fmt(to_milliseconds(b.response_bound), 2),
                   fmt(to_milliseconds(b.slack), 2)});
  }
  emit_table(report, "latency_plan", table);
  report.note("async capacity left: %.1f%%\n",
              100.0 * analysis::ttp_async_capacity(set, ttp, bw));
  return v.schedulable ? 0 : 2;
}

// ---- simulate ------------------------------------------------------------------

void flags_simulate(CliFlags& flags) {
  flags.declare("file", "", "scenario CSV");
  flags.declare("protocol", "fddi", "ieee8025 | modified8025 | fddi");
  flags.declare("bandwidth-mbps", "100", "link bandwidth [Mbit/s]");
  flags.declare("horizon-ms", "500", "simulated time [ms]");
  flags.declare("async", "saturating", "none|saturating|poisson");
  flags.declare("async-fps", "1000", "Poisson async frames/s per station");
  flags.declare("seed", "1", "simulation seed");
  flags.declare("trace-jsonl", "",
                "write every trace event to this file as JSON Lines");
}

int cmd_simulate(const CliFlags& flags, obs::RunReport& report) {
  ParsedProtocol proto;
  if (!parse_protocol(flags.get_string("protocol"), proto)) return 1;
  const auto set = load_or_die(flags.get_string("file"));
  const BitsPerSecond bw = mbps(flags.get_double("bandwidth-mbps"));
  const int n = ring_size_for(set);

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

  const std::string trace_path = flags.get_string("trace-jsonl");
  std::unique_ptr<obs::JsonlTraceSink> trace;
  if (!trace_path.empty()) {
    trace = std::make_unique<obs::JsonlTraceSink>(trace_path);
    if (!trace->ok()) {
      std::fprintf(stderr, "cannot write trace: %s\n", trace_path.c_str());
      return 1;
    }
  }

  sim::SimConfig cfg;
  if (proto.is_ttp) {
    analysis::TtpParams p;
    p.ring = net::fddi_ring(n);
    p.frame = p.async_frame = net::paper_frame_format();
    cfg = sim::make_sim_config(set, p, bw);
  } else {
    analysis::PdpParams p;
    p.ring = net::ieee8025_ring(n);
    p.frame = net::paper_frame_format();
    p.variant = proto.variant;
    cfg = sim::make_sim_config(set, p, bw);
  }
  cfg.horizon = milliseconds(flags.get_double("horizon-ms"));
  cfg.async_model = async_model;
  cfg.async_frames_per_second = flags.get_double("async-fps");
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 0, kSeedMax));
  cfg.trace = trace.get();
  const sim::SimMetrics m = sim::run_simulation(set, cfg);
  report.note("%s", m.summary().c_str());

  Table table({"released", "completed", "misses", "miss_ratio",
               "mean_response_ms", "token_rotation_ms", "async_frames",
               "max_queue_depth"});
  table.add_row({fmt(static_cast<long long>(m.messages_released)),
                 fmt(static_cast<long long>(m.messages_completed)),
                 fmt(static_cast<long long>(m.deadline_misses)),
                 fmt(m.miss_ratio(), 4),
                 fmt(m.response_time.count() > 0
                         ? to_milliseconds(m.response_time.mean())
                         : 0.0,
                     4),
                 fmt(m.token_rotation.count() > 0
                         ? to_milliseconds(m.token_rotation.mean())
                         : 0.0,
                     4),
                 fmt(static_cast<long long>(m.async_frames_sent)),
                 fmt(static_cast<long long>(m.max_queue_depth))});
  report.record_table("metrics", table);
  if (report.format() == obs::OutputFormat::kCsv) table.print_csv(std::cout);
  return m.deadline_misses == 0 ? 0 : 2;
}

// ---- advise --------------------------------------------------------------------

void flags_advise(CliFlags& flags) {
  flags.declare("stations", "100", "stations on the ring");
  flags.declare("mean-period-ms", "100", "average period [ms]");
  flags.declare("period-ratio", "10", "max/min period ratio");
  flags.declare("bandwidths-mbps", "4,16,100,622", "candidate speeds");
  flags.declare("sets", "50", "Monte Carlo sets per estimate");
  flags.declare("seed", "1", "RNG seed");
  declare_jobs_flag(flags);
  declare_batch_flag(flags);
}

int cmd_advise(const CliFlags& flags, obs::RunReport& report) {
  planner::TrafficProfile profile;
  profile.num_stations =
      static_cast<int>(flags.get_int("stations", 1, kIntMax));
  profile.mean_period = milliseconds(flags.get_double("mean-period-ms"));
  profile.period_ratio = flags.get_double("period-ratio");

  const exec::Executor executor(get_jobs(flags));
  const auto sets =
      static_cast<std::size_t>(flags.get_int("sets", 1, kIntMax));
  const auto batch = get_batch(flags, sets);
  Table table({"BW_Mbps", "ieee8025", "modified8025", "fddi",
               "resil_8025", "resil_fddi", "recommend"});
  for (double bw : flags.get_double_list("bandwidths-mbps")) {
    const auto rec = planner::recommend_protocol(
        profile, mbps(bw), sets,
        static_cast<std::uint64_t>(flags.get_int("seed", 0, kSeedMax)),
        executor, batch);
    table.add_row({fmt(bw, 0), fmt(rec.ieee8025, 3), fmt(rec.modified8025, 3),
                   fmt(rec.fddi, 3), fmt(rec.modified8025_resilience, 1),
                   fmt(rec.fddi_resilience, 1), planner::to_string(rec.best)});
  }
  emit_table(report, "recommendations", table);
  report.note(
      "(resil_* = mean token losses per period absorbed at 70%% of each\n"
      " sampled set's schedulability boundary)\n");
  // The RTA treats an iteration-cap bailout as "unschedulable" to stay
  // conservative; if any probe hit the cap, the estimates above lean
  // pessimistic and the numerics deserve a look.
  const auto metrics = obs::Registry::global().snapshot();
  const auto cap_hits = metrics.counters.find("analysis.rta_cap_hits");
  if (cap_hits != metrics.counters.end() && cap_hits->second > 0) {
    report.note(
        "warning: %llu response-time iterations hit the %d-step cap without\n"
        " converging; the affected sets were conservatively treated as\n"
        " unschedulable (see analysis.rta_cap_hits in the manifest)\n",
        static_cast<unsigned long long>(cap_hits->second),
        analysis::kMaxRtaIterations);
  }
  return 0;
}

// ---- generate ------------------------------------------------------------------

void flags_generate(CliFlags& flags) {
  flags.declare("stations", "32", "stations / streams");
  flags.declare("mean-period-ms", "100", "average period [ms]");
  flags.declare("period-ratio", "10", "max/min period ratio");
  flags.declare("utilization", "0.3", "target utilization at --bandwidth-mbps");
  flags.declare("bandwidth-mbps", "100", "bandwidth the utilization refers to");
  flags.declare("deadline-fraction", "1.0",
                "relative deadline as a fraction of the period (1 = paper model)");
  flags.declare("seed", "1", "RNG seed");
  flags.declare("file", "",
                "output scenario file (empty = stdout; required with "
                "--format=json, whose stdout is the manifest)");
}

int cmd_generate(const CliFlags& flags, obs::RunReport& report) {
  msg::GeneratorConfig g;
  g.num_streams = static_cast<int>(flags.get_int("stations", 1, kIntMax));
  g.mean_period = milliseconds(flags.get_double("mean-period-ms"));
  g.period_ratio = flags.get_double("period-ratio");
  g.deadline_fraction = flags.get_double("deadline-fraction");
  msg::MessageSetGenerator gen(g);
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 0, kSeedMax)));
  auto set = gen.generate(rng);

  const BitsPerSecond bw = mbps(flags.get_double("bandwidth-mbps"));
  const double target = flags.get_double("utilization");
  set = set.scaled(target / set.utilization(bw));

  const std::string out = flags.get_string("file");
  if (out.empty()) {
    if (report.format() == obs::OutputFormat::kJson) {
      std::fprintf(stderr,
                   "generate --format=json needs --file: stdout carries the "
                   "run manifest\n");
      return 1;
    }
    // The scenario itself is the payload, so it prints in csv mode too.
    std::fputs(msg::to_csv(set).c_str(), stdout);
  } else {
    msg::save_message_set(out, set);
    report.note("wrote %zu streams (U=%.3f at %.0f Mbps) to %s\n", set.size(),
                set.utilization(bw), to_mbps(bw), out.c_str());
  }
  return 0;
}

// ---- serve ---------------------------------------------------------------------

void flags_serve(CliFlags& flags) {
  flags.declare("host", "127.0.0.1", "listen address");
  flags.declare("port", "0", "listen port (0 = ephemeral, announced on stderr)");
  flags.declare("rate", "0", "per-client requests/s (0 = unlimited)");
  flags.declare("burst", "0", "rate-limit burst (0 = one second at --rate)");
  flags.declare("cache-shards", "16", "result cache shards");
  flags.declare("cache-capacity", "1024", "cached results per shard");
  flags.declare("max-request-bytes", "1048576",
                "reject longer request lines with a 413");
  flags.declare("batch-group", "0",
                "max compute jobs per batch group (0 = pool width)");
  flags.declare("high-water", "512",
                "shed uncached compute with a 503 beyond this many queued "
                "jobs (0 = serve from cache only)");
  flags.declare("idle-timeout-ms", "30000",
                "drop connections silent for this long (0 = never)");
  flags.declare("write-timeout-ms", "10000",
                "drop connections that stop reading responses (0 = never)");
  flags.declare("reactors", "0",
                "reactor shards (0 = one per available core)");
  flags.declare("backlog", "1024", "listen(2) backlog");
  declare_jobs_flag(flags);
}

serve::Server* g_serve_instance = nullptr;

void serve_stop_handler(int) {
  // request_stop is one write() on a pipe: async-signal-safe.
  if (g_serve_instance != nullptr) g_serve_instance->request_stop();
}

int cmd_serve(const CliFlags& flags, obs::RunReport& report) {
  serve::Server::Options opt;
  opt.host = flags.get_string("host");
  opt.port = static_cast<int>(flags.get_int("port", 0, 65535));
  opt.engine.jobs = get_jobs(flags);
  opt.engine.max_group =
      static_cast<std::size_t>(flags.get_int("batch-group", 0, kIntMax));
  opt.engine.max_request_bytes =
      static_cast<std::size_t>(flags.get_int("max-request-bytes", 1, kIntMax));
  opt.engine.cache.shards =
      static_cast<std::size_t>(flags.get_int("cache-shards", 0, kIntMax));
  opt.engine.cache.capacity_per_shard =
      static_cast<std::size_t>(flags.get_int("cache-capacity", 1, kIntMax));
  opt.engine.limit.rate_per_s = flags.get_double("rate");
  opt.engine.limit.burst = flags.get_double("burst");
  opt.engine.high_water =
      static_cast<std::size_t>(flags.get_int("high-water", 0, kIntMax));
  opt.idle_timeout_ms =
      static_cast<int>(flags.get_int("idle-timeout-ms", 0, kIntMax));
  opt.write_timeout_ms =
      static_cast<int>(flags.get_int("write-timeout-ms", 0, kIntMax));
  opt.backlog = static_cast<int>(flags.get_int("backlog", 0, kIntMax));
  opt.reactors =
      static_cast<std::size_t>(flags.get_int("reactors", 0, kIntMax));

  serve::Server server(opt);
  std::string error;
  if (!server.start(error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  g_serve_instance = &server;
  struct sigaction sa = {};
  sa.sa_handler = serve_stop_handler;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  // Announced on stderr so --format=json keeps stdout for the manifest;
  // scripts scrape this line for the ephemeral port.
  std::fprintf(stderr, "%s listening on %s:%d\n", serve::kServeSchema,
               opt.host.c_str(), server.port());
  server.wait();
  g_serve_instance = nullptr;

  const auto metrics = obs::Registry::global().snapshot();
  const auto requests = metrics.counters.find("serve.requests");
  report.note("drained after %llu requests\n",
              requests == metrics.counters.end()
                  ? 0ULL
                  : static_cast<unsigned long long>(requests->second));
  return 0;
}

// ---- registry ------------------------------------------------------------------

struct Command {
  const char* name;
  const char* summary;
  void (*declare_flags)(CliFlags&);
  int (*run)(const CliFlags&, obs::RunReport&);
};

constexpr Command kCommands[] = {
    {"check", "schedulability verdict for one scenario", flags_check,
     cmd_check},
    {"faultcheck", "fault margins per fault kind for one scenario",
     flags_faultcheck, cmd_faultcheck},
    {"plan", "FDDI TTRT plan with per-station latency bounds", flags_plan,
     cmd_plan},
    {"simulate", "event-driven simulation of one scenario", flags_simulate,
     cmd_simulate},
    {"advise", "recommend a protocol per candidate bandwidth", flags_advise,
     cmd_advise},
    {"generate", "draw a random scenario at a target utilization",
     flags_generate, cmd_generate},
    {"serve", "TCP daemon answering check/faultcheck/advise queries",
     flags_serve, cmd_serve},
};

const Command* find_command(const std::string& name) {
  for (const Command& c : kCommands) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

int usage() {
  std::fprintf(stderr, "usage: tokenring_tool <command> [--flag=value ...]\n");
  for (const Command& c : kCommands) {
    std::fprintf(stderr, "  %-10s %s\n", c.name, c.summary);
  }
  std::fprintf(stderr,
               "  %-10s %s\n"
               "shared flags on every command: --format=table|csv|json, "
               "--out=<manifest.json>, --profile\n"
               "run `tokenring_tool help <command>` for its flags\n",
               "help", "list commands, or show one command's flags");
  return 1;
}

int cmd_help(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 0;  // explicit help request: not an error
  }
  const Command* c = find_command(argv[1]);
  if (!c) {
    std::fprintf(stderr, "unknown command: %s\n", argv[1]);
    return usage();
  }
  CliFlags flags;
  c->declare_flags(flags);
  obs::declare_report_flags(flags);
  flags.print_usage(std::string("tokenring_tool ") + c->name);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    return cmd_help(argc - 1, argv + 1);
  }
  const Command* c = find_command(cmd);
  if (!c) return usage();

  CliFlags flags;
  c->declare_flags(flags);
  obs::declare_report_flags(flags);
  // Shift argv so the command's CliFlags sees its own flags.
  argv[1] = argv[0];
  switch (flags.parse_detailed(argc - 1, argv + 1)) {
    case CliFlags::ParseOutcome::kHelp:
      return 0;  // explicit --help is not an error
    case CliFlags::ParseOutcome::kError:
      std::fprintf(stderr, "run `tokenring_tool help %s` for its flags\n",
                   c->name);
      return 1;
    case CliFlags::ParseOutcome::kOk:
      break;
  }

  obs::RunReport report(std::string("tokenring_tool ") + c->name);
  try {
    if (!report.init(flags)) return 1;
    const int rc = c->run(flags, report);
    const int finish_rc = report.finish();
    return rc != 0 ? rc : finish_rc;
  } catch (const msg::ParseError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  } catch (const PreconditionError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
