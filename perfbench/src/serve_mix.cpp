// serve_mix: an open loop over loopback TCP into an in-process
// serve::Server (1 reactor, 2 compute workers), driven by one generator
// thread over four connections.
//
// Two request classes, each on its own pair of connections (a connection
// answers in order, so a slow miss would hold up hits queued behind it):
//   * hits: repeated `advise` queries from a pre-warmed hot set;
//   * misses: distinct `check`, `faultcheck` and `advise` queries, in a
//     fixed rotation, so each is a cache insert followed by compute.
// Requests go out on a fixed constant-rate schedule and every latency is
// timed from the moment its request was due, so a stall also charges the
// requests it delayed. The miss mix keeps the two workers about half busy.
//
// Untraced: set-up is server start plus hot-set warm-up; the open loop runs
// for the whole measuring time; then every distinct miss query is
// recomputed in process through Engine::compute_*, once serially and once
// on an nproc-thread executor, and each first response must match it byte
// for byte. Traced: the same open loop gives the client-side latencies,
// and in-process replays of the same request stream split them by layer;
// a rate ladder finds the highest sustainable rate.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "report.hpp"
#include "tokenring/exec/executor.hpp"
#include "tokenring/obs/json.hpp"
#include "tokenring/obs/registry.hpp"
#include "tokenring/serve/server.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace tr = tokenring;
using tr::serve::RequestType;

// The fixed operating point and the latency limits of the rate ladder,
// set from the first baseline (README.md).
constexpr double kHitRate = 2000.0;     // hits per second
constexpr double kMissRate = 100.0;     // misses per second
constexpr double kHitP99LimitUs = 5000.0;
constexpr double kMissP99LimitUs = 200000.0;
constexpr std::size_t kHotSet = 64;
constexpr int kHitConns = 2;
constexpr int kMissConns = 2;
constexpr std::size_t kWorkers = 2;
constexpr double kRungSeconds = 2.0;
constexpr double kDrainSeconds = 5.0;
constexpr int kSetups = 5;  // set-ups per run; setup_s is their median

enum class Kind : std::uint8_t { kHit, kMiss };

struct Planned {
  std::uint64_t due_ns = 0;  // offset from the loop's start
  Kind kind = Kind::kHit;
  std::size_t query = 0;     // hot-set slot or miss index
  int conn = 0;
};

/// The generated inputs of one run: hot-set and miss query bodies (JSON
/// objects without the opening brace, so an id can be prefixed).
class Inputs {
 public:
  explicit Inputs(std::uint64_t seed) : seed_(seed) {
    for (std::size_t slot = 0; slot < kHotSet; ++slot) {
      hot_.push_back(advise_body(20, 8, hot_seed(slot)));
    }
  }

  const std::string& hot(std::size_t slot) const { return hot_[slot]; }

  /// Body of miss `index`; distinct for every index.
  std::string miss(std::size_t index) const {
    std::mt19937_64 rng(seed_ * 0x9E3779B97F4A7C15ull + index);
    switch (index % 3) {
      case 0:
        return check_body("check", index, rng);
      case 1:
        return check_body("faultcheck", index, rng);
      default:
        return advise_body(40, 20, miss_seed(index));
    }
  }

  static std::string line(std::uint64_t id, const std::string& body) {
    return "{\"id\":" + std::to_string(id) + "," + body;
  }

 private:
  // Hot-set seeds stay below 10^5 and miss seeds above 10^6, so no miss
  // ever repeats a hot query.
  std::uint64_t hot_seed(std::size_t slot) const {
    return (seed_ % 1000) * kHotSet + slot + 1;
  }
  std::uint64_t miss_seed(std::size_t index) const {
    return (seed_ % 100'000) * 10'000'000 + 1'000'000 + index % 1'000'000;
  }

  static std::string advise_body(int stations, int sets, std::uint64_t seed) {
    return "\"type\":\"advise\",\"stations\":" + std::to_string(stations) +
           ",\"mean_period_ms\":100,\"period_ratio\":10,"
           "\"bandwidths_mbps\":[16,100],\"sets\":" +
           std::to_string(sets) + ",\"seed\":" + std::to_string(seed) + "}";
  }

  static std::string check_body(const char* type, std::size_t index,
                                std::mt19937_64& rng) {
    static const char* const kProtocols[] = {"fddi", "ieee8025",
                                             "modified8025"};
    static const int kBandwidths[] = {4, 16, 100};
    std::uniform_real_distribution<double> period(10.0, 100.0);
    std::uniform_int_distribution<int> payload(1000, 10000);
    std::string body = std::string("\"type\":\"") + type +
                       "\",\"protocol\":\"" + kProtocols[(index / 3) % 3] +
                       "\",\"bandwidth_mbps\":" +
                       std::to_string(kBandwidths[(index / 9) % 3]) +
                       ",\"streams\":[";
    for (int s = 0; s < 16; ++s) {
      char stream[96];
      // The first payload carries the index, so no two misses share a key.
      std::snprintf(stream, sizeof stream,
                    "%s{\"station\":%d,\"period_ms\":%.3f,\"payload_bits\":%d}",
                    s == 0 ? "" : ",", s, period(rng),
                    s == 0 ? 1000 + static_cast<int>(index % 1'000'000)
                           : payload(rng));
      body += stream;
    }
    return body + "]}";
  }

  std::uint64_t seed_;
  std::vector<std::string> hot_;
};

/// Constant-rate schedule: hits and misses evenly spaced at their rates,
/// each class round-robin over its own connections.
std::vector<Planned> make_plan(double seconds, double scale,
                               std::size_t first_miss) {
  std::vector<Planned> plan;
  const double hit_rate = kHitRate * scale;
  const double miss_rate = kMissRate * scale;
  const auto hits = static_cast<std::size_t>(seconds * hit_rate);
  const auto misses = static_cast<std::size_t>(seconds * miss_rate);
  for (std::size_t k = 0; k < hits; ++k) {
    plan.push_back({static_cast<std::uint64_t>((k + 0.5) / hit_rate * 1e9),
                    Kind::kHit, k % kHotSet, static_cast<int>(k % kHitConns)});
  }
  for (std::size_t m = 0; m < misses; ++m) {
    plan.push_back({static_cast<std::uint64_t>((m + 0.25) / miss_rate * 1e9),
                    Kind::kMiss, first_miss + m,
                    kHitConns + static_cast<int>(m % kMissConns)});
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const Planned& a, const Planned& b) {
                     return a.due_ns < b.due_ns;
                   });
  return plan;
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    throw std::runtime_error("connect() to the server failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// One client connection with its send buffer and in-order in-flight
/// queue. Owns the socket.
struct Conn {
  explicit Conn(int port) : fd(connect_loopback(port)) {}
  ~Conn() { ::close(fd); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd;
  std::string out;
  std::string in;
  std::deque<std::size_t> inflight;  // plan indices, in send order
};

int response_status(std::string_view line) {
  const auto at = line.find("\"status\":");
  if (at == std::string_view::npos) return -1;
  int status = 0;
  for (std::size_t i = at + 9; i < line.size() && line[i] >= '0' &&
                               line[i] <= '9';
       ++i) {
    status = status * 10 + (line[i] - '0');
  }
  return status;
}

struct LoopStats {
  std::vector<double> hit_us;
  std::vector<double> miss_us;
  std::vector<double> lag_us;
  std::vector<std::string> miss_responses;  // by position among misses
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;      // refused, failed, wrong or lost
  bool backlog_growing = false;
};

/// Drive `plan` open-loop. `expected_hit(slot, id)` is the exact response
/// a hit must get; miss responses are returned for later checking.
LoopStats run_open_loop(
    int port, const std::vector<Planned>& plan, const Inputs& inputs,
    const std::function<std::string(std::size_t, std::uint64_t)>&
        expected_hit) {
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < kHitConns + kMissConns; ++c) {
    conns.push_back(std::make_unique<Conn>(port));
  }
  std::vector<std::string> lines(plan.size());
  std::vector<std::size_t> miss_pos(plan.size());
  std::size_t misses = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Planned& p = plan[i];
    lines[i] = Inputs::line(i, p.kind == Kind::kHit ? inputs.hot(p.query)
                                                    : inputs.miss(p.query)) +
               "\n";
    if (p.kind == Kind::kMiss) miss_pos[i] = misses++;
  }
  for (const auto& c : conns) {
    ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL, 0) | O_NONBLOCK);
  }

  LoopStats stats;
  stats.miss_responses.resize(misses);
  std::vector<double> latency_us(plan.size(), -1.0);
  stats.attempted = plan.size();
  const std::uint64_t start = now_ns() + 2'000'000;
  const std::uint64_t last_due = plan.empty() ? 0 : plan.back().due_ns;
  const std::uint64_t give_up =
      start + last_due + static_cast<std::uint64_t>(kDrainSeconds * 1e9);
  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::vector<pollfd> pfds(conns.size());
  char chunk[65536];

  while (next < plan.size() || outstanding > 0) {
    std::uint64_t now = now_ns();
    if (now > give_up) break;
    while (next < plan.size() && start + plan[next].due_ns <= now) {
      Conn& c = *conns[static_cast<std::size_t>(plan[next].conn)];
      c.out += lines[next];
      c.inflight.push_back(next);
      stats.lag_us.push_back(
          static_cast<double>(now - start - plan[next].due_ns) * 1e-3);
      ++next;
      ++outstanding;
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = *conns[i];
      while (!c.out.empty()) {
        const ssize_t n =
            ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
        if (n <= 0) break;
        c.out.erase(0, static_cast<std::size_t>(n));
      }
      const short events = POLLIN | (c.out.empty() ? 0 : POLLOUT);
      pfds[i] = {c.fd, events, 0};
    }
    now = now_ns();
    const std::uint64_t wake =
        next < plan.size() ? start + plan[next].due_ns : now + 10'000'000;
    const std::uint64_t wait = wake > now ? wake - now : 0;
    const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                      static_cast<long>(wait % 1'000'000'000)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& c = *conns[i];
      for (;;) {
        const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
        if (n <= 0) break;
        c.in.append(chunk, static_cast<std::size_t>(n));
      }
      const std::uint64_t arrived = now_ns();
      std::size_t from = 0;
      for (std::size_t nl; (nl = c.in.find('\n', from)) != std::string::npos;
           from = nl + 1) {
        if (c.inflight.empty()) {
          ++stats.errors;  // a response nobody asked for
          continue;
        }
        const std::size_t idx = c.inflight.front();
        c.inflight.pop_front();
        --outstanding;
        const std::string_view response(c.in.data() + from, nl - from);
        const Planned& p = plan[idx];
        latency_us[idx] =
            static_cast<double>(arrived - start - p.due_ns) * 1e-3;
        if (p.kind == Kind::kHit) {
          if (response != expected_hit(p.query, idx)) ++stats.errors;
          stats.hit_us.push_back(latency_us[idx]);
        } else {
          if (response_status(response) != 200) ++stats.errors;
          stats.miss_responses[miss_pos[idx]] = std::string(response);
          stats.miss_us.push_back(latency_us[idx]);
        }
      }
      c.in.erase(0, from);
    }
  }
  stats.errors += outstanding + (plan.size() - next);  // lost or never sent

  // A backlog that grows shows as later requests waiting longer: compare
  // the median latency of the last third of the schedule with the first.
  std::vector<double> first;
  std::vector<double> last;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (latency_us[i] < 0.0) continue;
    if (3 * plan[i].due_ns < last_due) first.push_back(latency_us[i]);
    if (3 * plan[i].due_ns > 2 * last_due) last.push_back(latency_us[i]);
  }
  stats.backlog_growing =
      !first.empty() && !last.empty() &&
      median(last) > 2.0 * median(first) + 1000.0;
  return stats;
}

/// Parsed request of one line; throws on a line the wire layer rejects.
tr::serve::Request parse_line(const std::string& line) {
  const auto doc = tr::obs::parse_json(line);
  tr::serve::Request request;
  std::string error;
  if (!doc.ok || !tr::serve::parse_request(doc.value, request, error)) {
    throw std::runtime_error("generated request rejected: " + error);
  }
  return request;
}

std::string compute(const tr::serve::Request& r) {
  switch (r.type) {
    case RequestType::kCheck:
      return tr::serve::Engine::compute_check(r.check);
    case RequestType::kFaultcheck:
      return tr::serve::Engine::compute_faultcheck(r.check);
    default:
      return tr::serve::Engine::compute_advise(r.advise);
  }
}

const char* compute_span(RequestType type) {
  switch (type) {
    case RequestType::kCheck:
      return "serve.compute.check";
    case RequestType::kFaultcheck:
      return "serve.compute.faultcheck";
    default:
      return "serve.compute.advise";
  }
}

tr::serve::Server::Options server_options() {
  tr::serve::Server::Options opt;
  opt.reactors = 1;
  opt.engine.jobs = kWorkers;
  return opt;
}

/// A started server whose cache holds the whole hot set.
std::unique_ptr<tr::serve::Server> start_warm(const Inputs& inputs) {
  auto server = std::make_unique<tr::serve::Server>(server_options());
  std::string error;
  if (!server->start(error)) throw std::runtime_error(error);
  const Conn conn(server->port());
  std::string in;
  char chunk[4096];
  for (std::size_t slot = 0; slot < kHotSet; ++slot) {
    const std::string line = Inputs::line(slot, inputs.hot(slot)) + "\n";
    if (::send(conn.fd, line.data(), line.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(line.size())) {
      throw std::runtime_error("warm-up send failed");
    }
    while (in.find('\n') == std::string::npos) {
      const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("warm-up connection lost");
      in.append(chunk, static_cast<std::size_t>(n));
    }
    in.erase(0, in.find('\n') + 1);
  }
  return server;
}

void stop(tr::serve::Server& server) {
  server.request_stop();
  server.wait();
}

/// Expected response of each hot slot, by direct compute.
std::vector<std::string> hot_results(const Inputs& inputs) {
  std::vector<std::string> results;
  for (std::size_t slot = 0; slot < kHotSet; ++slot) {
    results.push_back(compute(parse_line(Inputs::line(0, inputs.hot(slot)))));
  }
  return results;
}

struct MissReplay {
  std::vector<tr::serve::Request> requests;
  std::vector<std::string> results;
  std::vector<double> compute_us;
  double wall_s = 0.0;
};

/// Recompute every miss of `plan` in process, serially, checking each
/// open-loop response against it.
MissReplay serial_replay(const std::vector<Planned>& plan,
                         const Inputs& inputs, const LoopStats& loop,
                         HostSpeed& host, Trace* trace, Result& result) {
  MissReplay out;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].kind == Kind::kMiss) {
      out.requests.push_back(
          parse_line(Inputs::line(i, inputs.miss(plan[i].query))));
    }
  }
  // Ten chunks, each between reference passes, so the host-speed
  // calibration samples the whole replay.
  const std::size_t chunk = (out.requests.size() + 9) / 10;
  for (std::size_t lo = 0; lo < out.requests.size(); lo += chunk) {
    out.wall_s += host.time(1, [&] {
      const std::size_t hi = std::min(out.requests.size(), lo + chunk);
      for (std::size_t m = lo; m < hi; ++m) {
        const ScopedSpan span(trace, compute_span(out.requests[m].type), 0,
                              m);
        const std::uint64_t c0 = now_ns();
        out.results.push_back(compute(out.requests[m]));
        out.compute_us.push_back(static_cast<double>(now_ns() - c0) * 1e-3);
      }
    });
  }
  std::size_t mismatched = 0;
  for (std::size_t m = 0; m < out.requests.size(); ++m) {
    const auto& r = out.requests[m];
    if (loop.miss_responses[m] !=
        tr::serve::success_response(r.id_token, r.type, false,
                                    out.results[m])) {
      ++mismatched;
    }
  }
  result.gate(mismatched == 0,
              "serve_mix: " + std::to_string(mismatched) +
                  " miss responses differ from a direct compute");
  return out;
}

double parallel_replay_s(const MissReplay& serial, std::size_t jobs,
                         HostSpeed& host, Result& result) {
  std::vector<std::string> results(serial.requests.size());
  const double wall = host.time(jobs, [&] {
    const tr::exec::Executor executor(jobs);
    executor.parallel_for(results.size(), [&](std::size_t m) {
      results[m] = compute(serial.requests[m]);
    });
  });
  result.gate(results == serial.results,
              "serve_mix: parallel recompute differs from the serial one");
  return wall;
}

std::uint64_t counter(const tr::obs::MetricsSnapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double delta(const tr::obs::MetricsSnapshot& before,
             const tr::obs::MetricsSnapshot& after, const char* name) {
  return static_cast<double>(counter(after, name) - counter(before, name));
}

/// Nearest-rank q-quantile, 0 for no samples. The ten-beyond rule is
/// reported in the notes, not enforced, so short ladder rungs still yield
/// a number.
double tail(const std::vector<double>& samples, double q) {
  return samples.empty() ? 0.0 : percentile(samples, q);
}

void note_tail(Result& result, const char* what,
               const std::vector<double>& samples) {
  result.notes.push_back(
      std::string(what) + ": " + std::to_string(samples.size()) +
      " samples, " + std::to_string(samples_beyond(samples.size(), 0.99)) +
      " beyond p99" +
      (tail_resolved(samples.size(), 0.99) ? "" : " (p99 unresolved)"));
}

/// Async latency of each miss through a fresh in-process engine, submitted
/// on the open loop's schedule, minus its compute time.
std::vector<double> queue_waits(const std::vector<Planned>& plan,
                                const Inputs& inputs, const MissReplay& miss,
                                Trace& trace) {
  tr::serve::Engine engine(server_options().engine);
  std::vector<std::string> lines;
  std::vector<std::uint64_t> due;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].kind != Kind::kMiss) continue;
    lines.push_back(Inputs::line(i, inputs.miss(plan[i].query)));
    due.push_back(plan[i].due_ns);
  }
  std::vector<std::uint64_t> submitted(lines.size(), 0);
  std::vector<std::uint64_t> done(lines.size(), 0);
  const std::uint64_t start = now_ns() + 1'000'000;
  for (std::size_t m = 0; m < lines.size(); ++m) {
    while (now_ns() < start + due[m]) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const ScopedSpan span(&trace, "serve.engine_async", 0, m);
    submitted[m] = now_ns();
    engine.handle_line_async(lines[m], "replay",
                             [&done, m](std::string&&) { done[m] = now_ns(); });
  }
  engine.drain();  // every completion has run once this returns
  std::vector<double> waits;
  for (std::size_t m = 0; m < lines.size(); ++m) {
    const double async_us =
        static_cast<double>(done[m] - submitted[m]) * 1e-3;
    waits.push_back(std::max(0.0, async_us - miss.compute_us[m]));
  }
  return waits;
}

struct HitReplay {
  std::vector<double> parse_us;
  std::vector<double> inline_us;
  double wall_s = 0.0;
};

/// Every hit of `plan` replayed in process against the warm engine: the
/// wire parse alone, then the whole inline path.
HitReplay hit_replay(const std::vector<Planned>& plan, const Inputs& inputs,
                     tr::serve::Engine& engine,
                     const std::vector<std::string>& hot, Trace* trace,
                     Result& result) {
  HitReplay out;
  std::size_t wrong = 0;
  std::string response;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].kind != Kind::kHit) continue;
    const std::string line = Inputs::line(i, inputs.hot(plan[i].query));
    const ScopedSpan request(trace, "serve.hit_replay", 0, i);
    {
      const ScopedSpan span(trace, "serve.parse", request.id(), i);
      const std::uint64_t p0 = now_ns();
      const auto doc = tr::obs::parse_json(line);
      tr::serve::Request parsed;
      std::string error;
      const bool ok = doc.ok && tr::serve::parse_request(doc.value, parsed,
                                                         error);
      out.parse_us.push_back(static_cast<double>(now_ns() - p0) * 1e-3);
      if (!ok) ++wrong;
    }
    {
      const ScopedSpan span(trace, "serve.engine_inline", request.id(), i);
      const std::uint64_t e0 = now_ns();
      engine.handle_line_async(line, "replay", [&response](std::string&& r) {
        response = std::move(r);
      });
      out.inline_us.push_back(static_cast<double>(now_ns() - e0) * 1e-3);
    }
    if (response != tr::serve::success_response(std::to_string(i),
                                                RequestType::kAdvise, true,
                                                hot[plan[i].query])) {
      ++wrong;
    }
  }
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  result.gate(wrong == 0, "serve_mix: in-process hit replay gave " +
                              std::to_string(wrong) + " wrong answers");
  return out;
}

/// Highest ladder rate (total requests/s) meeting both p99 limits with no
/// errors and no growing backlog.
double max_rate(tr::serve::Server& server, const Inputs& inputs,
                const std::vector<std::string>& hot, std::size_t next_miss,
                Result& result) {
  const double base = kHitRate + kMissRate;
  const std::vector<double> rungs = rate_ladder(0.5 * base, 4.0 * base, 1.05);
  const int best = highest_passing_rung(rungs, [&](double rate) {
    const auto plan = make_plan(kRungSeconds, rate / base, next_miss);
    next_miss += plan.size();  // misses stay distinct across rungs
    const LoopStats s = run_open_loop(
        server.port(), plan, inputs, [&](std::size_t slot, std::uint64_t id) {
          return tr::serve::success_response(std::to_string(id),
                                             RequestType::kAdvise, true,
                                             hot[slot]);
        });
    // A failed rung can leave compute queued; the next rung starts on an
    // idle server.
    while (server.engine().batcher().depth() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const bool pass = s.errors == 0 && !s.backlog_growing &&
                      tail(s.hit_us, 0.99) <= kHitP99LimitUs &&
                      tail(s.miss_us, 0.99) <= kMissP99LimitUs;
    result.notes.push_back("ladder rung " + std::to_string(rate) + " req/s: " +
                           (pass ? "pass" : "fail"));
    return pass;
  });
  return best < 0 ? 0.0 : rungs[static_cast<std::size_t>(best)];
}

}  // namespace

Result run_serve_mix(const WorkloadArgs& args) {
  Result result;
  const Inputs inputs(args.seed);
  // The open loop takes half the measuring time; recomputing its misses
  // (serially, then in parallel) takes most of the other half.
  const std::vector<Planned> plan = make_plan(0.5 * args.seconds, 1.0, 0);

  // Set-up: server start plus hot-set warm-up; every set-up but the last
  // is stopped again.
  HostSpeed host;
  std::vector<double> setups;
  std::unique_ptr<tr::serve::Server> server;
  host.time(1, [&] {
    for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
      if (server) stop(*server);
      const std::uint64_t t0 = now_ns();
      server = start_warm(inputs);
      setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
  });
  const std::vector<std::string> hot = hot_results(inputs);
  const auto expected_hit = [&](std::size_t slot, std::uint64_t id) {
    return tr::serve::success_response(std::to_string(id),
                                       RequestType::kAdvise, true, hot[slot]);
  };

  // The generator thread wakes for every due request; the default 50 us
  // timer slack would add that much lag to each. Set only now, so the
  // server's threads keep the default.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const auto before = tr::obs::Registry::global().snapshot();
  const LoopStats loop =
      run_open_loop(server->port(), plan, inputs, expected_hit);
  const auto after = tr::obs::Registry::global().snapshot();
  result.attempted = loop.attempted;
  result.failed = loop.errors;
  note_tail(result, "hits", loop.hit_us);
  note_tail(result, "misses", loop.miss_us);

  std::unique_ptr<Trace> trace = args.trace ? std::make_unique<Trace>()
                                            : nullptr;
  const MissReplay miss =
      serial_replay(plan, inputs, loop, host, trace.get(), result);
  double busy = 0.0;
  for (double us : miss.compute_us) busy += us;
  result.notes.push_back(
      "worker busy share at the fixed rate: " +
      std::to_string(busy * 1e-6 / (0.5 * args.seconds * kWorkers)));

  if (!args.trace) {
    result.set("serial_wall_s", host.rescale(miss.wall_s, 1));
    // The parallel recompute is short and sensitive to scheduling, so it
    // runs four times and reports the median.
    std::vector<double> parallel;
    for (int i = 0; i < 4; ++i) {
      parallel.push_back(parallel_replay_s(miss, args.nproc, host, result));
    }
    result.set("parallel_wall_s",
               host.rescale(median(parallel), args.nproc));
    result.set("setup_s", host.rescale(median(setups), 1));
    result.set("peak_rss_mib", peak_rss_mib());
    result.notes.push_back(
        "raw [s]: serial " + std::to_string(miss.wall_s) +
        ", parallel median " + std::to_string(median(parallel)) +
        ", setup median " + std::to_string(median(setups)));
    result.notes.push_back(host.describe());
    stop(*server);
    return result;
  }

  result.set("hit_p50_us", tail(loop.hit_us, 0.5));
  result.set("hit_p99_us", tail(loop.hit_us, 0.99));
  result.set("miss_p50_us", tail(loop.miss_us, 0.5));
  result.set("miss_p99_us", tail(loop.miss_us, 0.99));
  result.set("hit_samples", static_cast<double>(loop.hit_us.size()));
  result.set("miss_samples", static_cast<double>(loop.miss_us.size()));
  result.set("error_share", static_cast<double>(loop.errors) /
                                static_cast<double>(loop.attempted));
  result.set("serve.gen_lag_p99_us", tail(loop.lag_us, 0.99));
  const double requests = delta(before, after, "serve.requests");
  result.set("serve.reactor.wakeups_per_request",
             delta(before, after, "serve.reactor.wakeups") / requests);
  const double hits = delta(before, after, "serve.cache.hits");
  const double misses = delta(before, after, "serve.cache.misses");
  result.set("serve.cache.hit_ratio", hits / (hits + misses));
  result.set("serve.cache.evictions",
             delta(before, after, "serve.cache.evictions"));
  const double groups = delta(before, after, "serve.batch.groups");
  result.set("serve.batch.jobs_per_group",
             groups > 0 ? delta(before, after, "serve.batch.jobs") / groups
                        : 0.0);
  const auto peak = after.gauges.find("serve.batch.peak_depth");
  result.set("serve.batch.peak_depth",
             peak == after.gauges.end() ? 0.0
                                        : static_cast<double>(peak->second));
  result.set("fault.margin_queries",
             delta(before, after, "fault.margin_queries"));
  result.set("serve.shed", delta(before, after, "serve.shed"));
  result.set("serve.deadline_expired",
             delta(before, after, "serve.deadline_expired"));
  result.set("serve.ratelimit.rejected",
             delta(before, after, "serve.ratelimit.rejected"));

  std::vector<double> by_type[3];
  for (std::size_t m = 0; m < miss.requests.size(); ++m) {
    const RequestType t = miss.requests[m].type;
    const int k = t == RequestType::kCheck ? 0
                  : t == RequestType::kFaultcheck ? 1
                                                  : 2;
    by_type[k].push_back(miss.compute_us[m]);
  }
  result.set("serve.compute_us.check", tail(by_type[0], 0.5));
  result.set("serve.compute_us.faultcheck", tail(by_type[1], 0.5));
  result.set("serve.compute_us.advise", tail(by_type[2], 0.5));

  const std::vector<double> waits = queue_waits(plan, inputs, miss, *trace);
  result.set("serve.queue_wait_p50_us", tail(waits, 0.5));
  result.set("serve.queue_wait_p99_us", tail(waits, 0.99));

  tr::serve::Engine& engine = server->engine();
  const HitReplay plain = hit_replay(plan, inputs, engine, hot, nullptr,
                                     result);
  const HitReplay traced = hit_replay(plan, inputs, engine, hot, trace.get(),
                                      result);
  result.set("serve.parse_us", tail(plain.parse_us, 0.5));
  result.set("serve.engine_inline_us", tail(plain.inline_us, 0.5));
  result.set("serve.frontend_p50_us",
             tail(loop.hit_us, 0.5) - tail(plain.inline_us, 0.5));
  result.set("serve.frontend_p99_us",
             tail(loop.hit_us, 0.99) - tail(plain.inline_us, 0.99));
  result.set("trace_overhead_share",
             (traced.wall_s - plain.wall_s) / plain.wall_s);

  result.set("max_rate_qps",
             max_rate(*server, inputs, hot, plan.size(), result));
  stop(*server);
  if (!args.trace_out.empty()) {
    result.gate(trace->write_jsonl(args.trace_out),
                "serve_mix: cannot write " + args.trace_out);
  }
  return result;
}

}  // namespace perfbench
