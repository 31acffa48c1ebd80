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

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "tokenring/analysis/async_capacity.hpp"
#include "tokenring/analysis/fixed_priority.hpp"
#include "tokenring/analysis/latency.hpp"
#include "tokenring/common/cli.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/msg/generator.hpp"
#include "tokenring/msg/io.hpp"
#include "tokenring/obs/registry.hpp"
#include "tokenring/obs/report.hpp"
#include "tokenring/obs/trace_sinks.hpp"
#include "tokenring/query/query.hpp"
#include "tokenring/serve/server.hpp"
#include "tokenring/sim/config.hpp"
#include "tokenring/sim/simulator.hpp"
#include "tokenring/sim/workload.hpp"

using namespace tokenring;

namespace {

/// --`name` as a number inside a query range rule (query/query.hpp); a
/// value outside it is refused naming the flag and the bound.
double get_ranged(const CliFlags& flags, const std::string& name,
                  const char* (*violation)(double)) {
  const double value = flags.get_double(name);
  if (const char* bound = violation(value)) {
    throw PreconditionError("flag --" + name + " " + bound + ": " +
                            flags.get_string(name));
  }
  return value;
}

/// The scenario query of check, faultcheck, plan and simulate: --file,
/// --bandwidth-mbps, and --protocol / --noise-ms where the command
/// declares them (plan is FDDI only).
query::CheckQuery read_scenario(const CliFlags& flags) {
  query::CheckQuery q;
  if (flags.has("protocol")) {
    const std::string name = flags.get_string("protocol");
    const auto protocol = planner::protocol_from_name(name);
    if (!protocol) {
      throw PreconditionError("unknown protocol '" + name + "' (" +
                              planner::kProtocolNames + ")");
    }
    q.protocol = *protocol;
  }
  const std::string path = flags.get_string("file");
  if (path.empty()) {
    throw msg::ParseError("--file is required for this command");
  }
  q.set = msg::load_message_set(path);
  if (const char* bound = query::scenario_violation(q.set)) {
    throw msg::ParseError("--file " + path + ": the scenario " + bound);
  }
  q.bandwidth_mbps =
      get_ranged(flags, "bandwidth-mbps", query::bandwidth_violation);
  if (flags.has("noise-ms")) {
    q.noise_ms = get_ranged(flags, "noise-ms", query::noise_violation);
  }
  return q;
}

/// The flags read_scenario reads; plan, FDDI only, has no --protocol.
void declare_scenario_flags(CliFlags& flags, bool protocol = true) {
  flags.declare("file", "", "scenario CSV (station,period_ms,payload_bits)");
  if (protocol) flags.declare("protocol", "fddi", planner::kProtocolNames);
  flags.declare("bandwidth-mbps", "100", "link bandwidth [Mbit/s]");
}

// ---- check -------------------------------------------------------------------

void flags_check(CliFlags& flags) { declare_scenario_flags(flags); }

int cmd_check(const CliFlags& flags, obs::RunReport& report) {
  const query::CheckResult result = query::check(read_scenario(flags));
  query::render_table(result, report);
  return result.schedulable ? 0 : 2;
}

// ---- faultcheck --------------------------------------------------------------

void flags_faultcheck(CliFlags& flags) {
  declare_scenario_flags(flags);
  flags.declare("noise-ms", "1", "noise burst duration [ms]");
}

int cmd_faultcheck(const CliFlags& flags, obs::RunReport& report) {
  const query::FaultcheckResult result =
      query::faultcheck(read_scenario(flags));
  query::render_table(result, report);
  return result.schedulable ? 0 : 2;
}

// ---- plan --------------------------------------------------------------------

void flags_plan(CliFlags& flags) { declare_scenario_flags(flags, false); }

int cmd_plan(const CliFlags& flags, obs::RunReport& report) {
  const query::CheckQuery q = read_scenario(flags);
  const analysis::TtpParams ttp = query::config_for(q).ttp_params();
  const BitsPerSecond bw = mbps(q.bandwidth_mbps);
  const analysis::TtpVerdict v = query::check(q).ttp;
  report.note("FDDI plan at %.0f Mbps: TTRT %.3f ms (%s)\n", to_mbps(bw),
              to_milliseconds(v.ttrt),
              v.schedulable ? "schedulable" : "NOT schedulable");

  Table table({"station", "P_ms", "q", "h_us", "visits", "resp_bound_ms",
               "slack_ms"});
  const auto latency = analysis::ttp_latency_report(q.set, ttp, bw);
  for (std::size_t i = 0; i < v.reports.size(); ++i) {
    const auto& r = v.reports[i];
    const auto& b = latency[i];
    table.add_row({fmt(static_cast<long long>(r.stream.station)),
                   fmt(to_milliseconds(r.stream.period), 1),
                   fmt(r.q, 0),
                   fmt(to_microseconds(r.h), 2),
                   fmt(static_cast<long long>(b.visits)),
                   fmt(to_milliseconds(b.response_bound), 2),
                   fmt(to_milliseconds(b.slack), 2)});
  }
  query::print_table(report, "latency_plan", table);
  report.note("async capacity left: %.1f%%\n",
              100.0 * analysis::ttp_async_capacity(q.set, ttp, bw));
  return v.schedulable ? 0 : 2;
}

// ---- simulate ------------------------------------------------------------------

void flags_simulate(CliFlags& flags) {
  declare_scenario_flags(flags);
  flags.declare("horizon-ms", "500", "simulated time [ms]");
  flags.declare("async", "saturating", "none|saturating|poisson");
  flags.declare("async-fps", "1000", "Poisson async frames/s per station");
  flags.declare("seed", "1", "simulation seed");
  flags.declare("trace-jsonl", "",
                "write every trace event to this file as JSON Lines");
}

/// Range rule of simulate's own numbers (no daemon query simulates).
const char* positive_violation(double v) {
  return v > 0.0 ? nullptr : "must be > 0";
}

int cmd_simulate(const CliFlags& flags, obs::RunReport& report) {
  const query::CheckQuery q = read_scenario(flags);

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
  const Seconds horizon =
      milliseconds(get_ranged(flags, "horizon-ms", positive_violation));
  // The rate matters to the Poisson model only.
  const double async_fps =
      async_model == sim::AsyncModel::kPoisson
          ? get_ranged(flags, "async-fps", positive_violation)
          : flags.get_double("async-fps");

  const std::string trace_path = flags.get_string("trace-jsonl");
  std::unique_ptr<obs::JsonlTraceSink> trace;
  if (!trace_path.empty()) {
    trace = std::make_unique<obs::JsonlTraceSink>(trace_path);
    if (!trace->ok()) {
      std::fprintf(stderr, "cannot write trace: %s\n", trace_path.c_str());
      return 1;
    }
  }

  const planner::PlannerConfig config = query::config_for(q);
  sim::SimConfig cfg =
      q.protocol == planner::Protocol::kFddi
          ? sim::make_sim_config(q.set, config.ttp_params(), config.bandwidth)
          : sim::make_sim_config(q.set, config.pdp_params(), config.bandwidth);
  cfg.horizon = horizon;
  cfg.async_model = async_model;
  cfg.async_frames_per_second = async_fps;
  cfg.seed = get_seed(flags);
  cfg.trace = trace.get();
  const sim::SimMetrics m = sim::run_simulation(q.set, cfg);
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
  query::AdviseQuery q;
  q.stations = static_cast<int>(
      flags.get_int("stations", 1, query::kMaxStations));
  q.mean_period_ms =
      get_ranged(flags, "mean-period-ms", query::mean_period_violation);
  q.period_ratio =
      get_ranged(flags, "period-ratio", query::period_ratio_violation);
  q.bandwidths_mbps = flags.get_double_list("bandwidths-mbps");
  if (const char* bound = query::bandwidths_violation(q.bandwidths_mbps)) {
    throw PreconditionError(std::string("flag --bandwidths-mbps ") + bound +
                            ": " + flags.get_string("bandwidths-mbps"));
  }
  q.sets = get_count(flags, "sets");
  q.seed = get_seed(flags);

  query::render_table(
      query::advise(q, exec::Executor(get_jobs(flags)), get_batch(flags)),
      report);
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
  g.num_streams = get_count(flags, "stations");
  g.mean_period = milliseconds(flags.get_double("mean-period-ms"));
  g.period_ratio = flags.get_double("period-ratio");
  g.deadline_fraction = flags.get_double("deadline-fraction");
  msg::MessageSetGenerator gen(g);
  Rng rng(get_seed(flags));
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
  opt.engine.max_request_bytes = static_cast<std::size_t>(
      flags.get_int("max-request-bytes", 1, kIntFlagMax));
  opt.engine.cache.shards =
      static_cast<std::size_t>(flags.get_int("cache-shards", 0, kIntFlagMax));
  opt.engine.cache.capacity_per_shard = static_cast<std::size_t>(
      flags.get_int("cache-capacity", 1, kIntFlagMax));
  opt.engine.limit.rate_per_s = flags.get_double("rate");
  opt.engine.limit.burst = flags.get_double("burst");
  opt.engine.high_water =
      static_cast<std::size_t>(flags.get_int("high-water", 0, kIntFlagMax));
  opt.idle_timeout_ms =
      static_cast<int>(flags.get_int("idle-timeout-ms", 0, kIntFlagMax));
  opt.write_timeout_ms =
      static_cast<int>(flags.get_int("write-timeout-ms", 0, kIntFlagMax));
  opt.backlog = static_cast<int>(flags.get_int("backlog", 0, kIntFlagMax));
  opt.reactors =
      static_cast<std::size_t>(flags.get_int("reactors", 0, kIntFlagMax));

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
  } catch (const sim::EventStormError& e) {
    // simulate's horizon outran the simulator's max-event guard.
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  } catch (const fault::MarginOutOfRange& e) {
    // faultcheck or advise met a margin no int can carry.
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
