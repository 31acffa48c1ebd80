// Frozen PDP simulator goldens. Every SimMetrics field (hex floats for
// every double) and the executed-event count of 28 configurations: both
// 802.5 variants at 1-1000 Mbps, worst-case and random phasing,
// saturating, Poisson and no async traffic, sporadic jitter, random and
// scripted fault plans with crashes, several streams per station and
// constrained deadlines (D < P). Plus two storm-guard trips with their
// message text and the full JSONL trace of two small runs.
//
// The literals were captured from the per-event engine, where every frame
// and every token walk was its own queued event. The simulator now stages
// the medium's next step and runs frames and walks in place as runs (a
// message's frames, the async rotation); it keeps no second dispatch
// path, so these goldens are the oracle that it replays the old event
// order bit for bit.
//
// The run-boundary cases below freeze where a run meets something else: a
// queued release tying bit for bit with a frame-done, the horizon on a
// run step and one ulp before it, the storm guard tripping between a lap
// walk and its frame, after the frame and inside an async rotation, a
// verdict-only run stopping at a long message's last frame, Poisson async
// running out mid-rotation around a crash, and a station's second stream
// releasing mid-message. They were captured from the staged engine before
// runs existed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "tokenring/net/standards.hpp"
#include "tokenring/obs/registry.hpp"
#include "tokenring/obs/trace_sinks.hpp"
#include "tokenring/sim/config.hpp"
#include "tokenring/sim/simulator.hpp"

namespace tokenring::sim {
namespace {

using analysis::PdpVariant;

/// `carriers` stations with `per_station` streams each, at total
/// utilization `util` of `bw`. With `constrained`, every other stream has
/// D = 0.8 P.
msg::MessageSet ring_set(int carriers, int per_station, double util,
                         BitsPerSecond bw, bool constrained = false) {
  static constexpr double kPeriodsMs[] = {7.0, 11.0, 17.5, 23.0, 40.0, 64.0};
  const int total = carriers * per_station;
  msg::MessageSet set;
  for (int i = 0; i < total; ++i) {
    msg::SyncStream s;
    s.period = milliseconds(kPeriodsMs[i % 6] * (1.0 + 0.1 * (i / 6)));
    s.payload_bits = util / total * s.period * bw;
    s.station = i / per_station;
    if (constrained && i % 2 == 0) s.relative_deadline = 0.8 * s.period;
    set.add(s);
  }
  return set;
}

SimConfig pdp_config(int ring, PdpVariant variant, double bw_mbps,
                     Seconds horizon) {
  SimConfig cfg;
  cfg.protocol = Protocol::kPdp;
  cfg.pdp.ring = net::ieee8025_ring(ring);
  cfg.pdp.frame = net::paper_frame_format();
  cfg.pdp.variant = variant;
  cfg.bandwidth = mbps(bw_mbps);
  cfg.horizon = horizon;
  return cfg;
}

fault::FaultRates crash_rates() {
  fault::FaultRates rates;
  rates.token_loss = 20.0;
  rates.frame_corruption = 30.0;
  rates.noise_burst = 5.0;
  rates.noise_duration = milliseconds(0.5);
  rates.station_crash = 15.0;
  rates.crash_downtime = milliseconds(15);
  rates.duplicate_token = 10.0;
  return rates;
}

struct Case {
  std::string name;
  msg::MessageSet set;
  SimConfig cfg;
};

/// One configuration: `util` of `bw_mbps` spread over `carriers` stations
/// of a `ring`-station ring, simulated for `horizon_ms`; `tweak` adjusts
/// the config after the defaults (worst-case phasing, saturating async).
template <typename Tweak>
Case make_case(std::string name, PdpVariant variant, double bw_mbps, int ring,
               int carriers, int per_station, double util, double horizon_ms,
               bool constrained, Tweak tweak) {
  Case c{std::move(name),
         ring_set(carriers, per_station, util, mbps(bw_mbps), constrained),
         pdp_config(ring, variant, bw_mbps, milliseconds(horizon_ms))};
  tweak(c.cfg);
  return c;
}

std::vector<Case> golden_cases() {
  constexpr PdpVariant kStd = PdpVariant::kStandard8025;
  constexpr PdpVariant kMod = PdpVariant::kModified8025;
  const auto keep = [](SimConfig&) {};
  const auto random_phase = [](SimConfig& c) {
    c.worst_case_phasing = false;
    c.seed = 11;
  };
  const auto no_async = [](SimConfig& c) {
    c.async_model = AsyncModel::kNone;
  };
  const auto poisson = [](SimConfig& c) {
    c.async_model = AsyncModel::kPoisson;
    c.async_frames_per_second = 400.0;
    c.worst_case_phasing = false;
    c.seed = 5;
  };
  const auto jitter = [](SimConfig& c) {
    c.arrival_jitter = 0.35;
    c.worst_case_phasing = false;
    c.seed = 23;
  };
  const auto jitter_poisson = [](SimConfig& c) {
    c.arrival_jitter = 0.2;
    c.async_model = AsyncModel::kPoisson;
    c.async_frames_per_second = 2000.0;
    c.seed = 29;
  };
  const auto faults = [](std::uint64_t seed) {
    return [seed](SimConfig& c) {
      c.faults = fault::FaultPlan::random(crash_rates(), c.horizon, seed,
                                          c.pdp.ring.num_stations);
    };
  };
  const auto scripted = [](SimConfig& c) {
    c.faults.add_token_loss(milliseconds(3));
    c.faults.add_frame_corruption(milliseconds(9.5));
    c.faults.add_noise_burst(milliseconds(21), milliseconds(2));
    c.faults.add_duplicate_token(milliseconds(33));
    c.faults.add_station_crash(milliseconds(40), 1, milliseconds(25));
    c.faults.add_station_crash(milliseconds(52), 2);  // never rejoins
    c.faults.add_frame_corruption(milliseconds(80));
  };

  std::vector<Case> cases;
  // Columns: name, variant, Mbps, ring stations, stations with streams,
  // streams per station, utilization, horizon [ms], D < P, config tweak.
  const auto add = [&cases](const char* name, PdpVariant variant, double bw,
                            int ring, int carriers, int per_station,
                            double util, double horizon_ms, bool dlp,
                            auto tweak) {
    cases.push_back(make_case(name, variant, bw, ring, carriers, per_station,
                              util, horizon_ms, dlp, tweak));
  };
  add("std-1-wc-sat", kStd, 1, 4, 4, 1, 0.3, 300, false, keep);
  add("mod-1-wc-sat", kMod, 1, 4, 4, 1, 0.3, 300, false, keep);
  add("std-4-wc-none", kStd, 4, 6, 5, 1, 0.5, 250, false, no_async);
  add("mod-4-wc-none", kMod, 4, 6, 5, 1, 0.5, 250, false, no_async);
  add("std-16-rand-sat", kStd, 16, 8, 8, 1, 0.45, 200, false, random_phase);
  add("mod-16-rand-sat", kMod, 16, 8, 8, 1, 0.45, 200, false, random_phase);
  add("std-100-wc-sat", kStd, 100, 12, 12, 1, 0.4, 150, false, keep);
  add("mod-100-wc-sat", kMod, 100, 12, 12, 1, 0.4, 150, false, keep);
  add("std-1000-wc-sat", kStd, 1000, 12, 10, 1, 0.2, 60, false, keep);
  add("mod-1000-wc-sat", kMod, 1000, 12, 10, 1, 0.2, 60, false, keep);
  add("std-100-poisson", kStd, 100, 10, 9, 1, 0.5, 150, false, poisson);
  add("mod-100-poisson", kMod, 100, 10, 9, 1, 0.5, 150, false, poisson);
  add("std-16-jitter", kStd, 16, 8, 6, 1, 0.5, 200, false, jitter);
  add("mod-16-jitter-poisson", kMod, 16, 8, 6, 1, 0.5, 200, false,
      jitter_poisson);
  add("std-100-faults", kStd, 100, 12, 12, 1, 0.5, 150, false, faults(7));
  add("mod-100-faults", kMod, 100, 12, 12, 1, 0.5, 150, false, faults(8));
  add("std-4-faults-none", kStd, 4, 6, 6, 1, 0.4, 250, false,
      [&](SimConfig& c) {
        faults(9)(c);
        no_async(c);
      });
  add("mod-16-faults-poisson", kMod, 16, 8, 8, 1, 0.4, 200, false,
      [&](SimConfig& c) {
        poisson(c);
        faults(10)(c);
      });
  add("std-10-scripted", kStd, 10, 6, 5, 1, 0.5, 120, false, scripted);
  add("mod-10-scripted", kMod, 10, 6, 5, 1, 0.5, 120, false, scripted);
  add("std-16-multi-dlp", kStd, 16, 6, 4, 3, 0.5, 200, true, keep);
  add("mod-16-multi-dlp", kMod, 16, 6, 4, 3, 0.5, 200, true, keep);
  add("std-100-multi-dlp-jitter", kStd, 100, 8, 5, 2, 0.45, 150, true,
      jitter);
  add("mod-100-multi-dlp-poisson", kMod, 100, 8, 5, 2, 0.45, 150, true,
      poisson);
  add("std-16-overload", kStd, 16, 6, 6, 1, 1.3, 150, false, keep);
  add("mod-4-overload-multi", kMod, 4, 5, 3, 2, 1.2, 200, true, random_phase);
  add("std-2-idle", kStd, 2, 12, 3, 1, 0.1, 300, false, no_async);
  add("mod-622-rand-faults", kMod, 622, 10, 10, 1, 0.3, 80, false,
      [&](SimConfig& c) {
        random_phase(c);
        faults(12)(c);
      });
  return cases;
}

std::string hex(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

std::string stats(const RunningStats& s) {
  return std::to_string(s.count()) + " " + hex(s.mean()) + " " +
         hex(s.variance()) + " " + hex(s.min()) + " " + hex(s.max());
}

/// Every SimMetrics field, one line per record, doubles as hex floats.
std::string fingerprint(const SimMetrics& m, std::uint64_t events) {
  std::ostringstream os;
  os << "released=" << m.messages_released
     << " completed=" << m.messages_completed
     << " misses=" << m.deadline_misses << " async=" << m.async_frames_sent
     << " losses=" << m.token_losses << " depth=" << m.max_queue_depth
     << " events=" << events << "\n";
  os << "response " << stats(m.response_time) << "\n";
  os << "normalized " << stats(m.normalized_response) << "\n";
  os << "rotation " << stats(m.token_rotation) << "\n";
  for (const auto& [kind, acct] : m.per_fault) {
    os << "fault " << fault::to_string(kind) << " " << acct.injected << " "
       << hex(acct.outage) << " " << acct.attributed_misses << "\n";
  }
  for (const OutageWindow& w : m.outages) {
    os << "outage " << hex(w.begin) << " " << hex(w.end) << " "
       << fault::to_string(w.kind) << "\n";
  }
  for (const auto& [station, st] : m.per_station) {
    os << "station " << station << " " << st.released << " " << st.completed
       << " " << st.misses << " " << stats(st.response_time) << "\n";
  }
  return os.str();
}

std::uint64_t sim_events() {
  const auto snap = obs::Registry::global().snapshot();
  const auto it = snap.counters.find("sim.events");
  return it == snap.counters.end() ? 0 : it->second;
}

std::string run_fingerprint(const Case& c) {
  const std::uint64_t before = sim_events();
  const SimMetrics m = run_simulation(c.set, c.cfg);
  return fingerprint(m, sim_events() - before);
}

/// Two runs whose storm guard trips mid-train.
std::vector<Case> storm_cases() {
  std::vector<Case> cases;
  cases.push_back(make_case("std-100-guard", PdpVariant::kStandard8025, 100,
                            12, 12, 1, 0.4, 150, false,
                            [](SimConfig& c) { c.max_events = 7'777; }));
  cases.push_back(make_case("mod-16-guard", PdpVariant::kModified8025, 16, 8,
                            8, 1, 0.45, 200, false, [](SimConfig& c) {
                              c.worst_case_phasing = false;
                              c.max_events = 5'001;
                            }));
  return cases;
}

std::string storm_message(const Case& c) {
  try {
    run_simulation(c.set, c.cfg);
  } catch (const EventStormError& e) {
    return e.what();
  }
  return "no trip";
}

/// Two small traced runs: a standard ring at 1 Mbps under saturating
/// async, and a modified ring at 4 Mbps with Poisson async and random
/// phasing.
std::vector<Case> trace_cases() {
  std::vector<Case> cases;
  cases.push_back(make_case("std-1-trace", PdpVariant::kStandard8025, 1, 3, 2,
                            1, 0.4, 16, false, [](SimConfig&) {}));
  cases.push_back(make_case("mod-4-trace", PdpVariant::kModified8025, 4, 4, 3,
                            1, 0.5, 9, false, [](SimConfig& c) {
                              c.async_model = AsyncModel::kPoisson;
                              c.async_frames_per_second = 900.0;
                              c.worst_case_phasing = false;
                              c.seed = 3;
                            }));
  return cases;
}

std::string jsonl_trace(const Case& c) {
  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  SimConfig cfg = c.cfg;
  cfg.trace = &sink;
  run_simulation(c.set, cfg);
  sink.flush();
  return os.str();
}

// ---- run boundaries -----------------------------------------------------------
//
// Cases on a 4-station ring where every time is a whole number of ticks
// (2^-22 s): propagation 2^-20 s, 4 bits of station latency, a 24-bit
// token and 624-bit frames at 2^20 bit/s. A hop is 17 ticks, Theta 164,
// a full frame 2,496 and a full-lap walk 164, so sums of them are exact
// and a release can tie bit for bit with a frame-done. Each case targets
// a place where a run of frames or walks meets something else: a queued
// event at the same instant, the horizon, the storm guard, a verdict-only
// stop, a crash, a release on the sending station. All were captured
// from the staged engine before runs existed.

constexpr Seconds kTick = 0x1p-22;

SimConfig dyadic_config(PdpVariant variant, Seconds horizon) {
  SimConfig cfg = pdp_config(4, variant, 1, horizon);
  cfg.pdp.ring.signal_speed_fraction = 1.0;
  cfg.pdp.ring.station_spacing_m = kSpeedOfLightMps * 0x1p-22;
  cfg.bandwidth = 0x1p20;
  return cfg;
}

/// A one-frame stream at station 1 (period `short_ticks`) and a 40-frame
/// stream at station 0 (period 2^-3 s): the long message runs from tick
/// 5,269 until the short stream's next release preempts it.
msg::MessageSet preempt_set(double short_ticks,
                            Seconds long_deadline = 0.0) {
  msg::MessageSet set;
  set.add({.period = short_ticks * kTick, .payload_bits = 512.0,
           .station = 1});
  set.add({.period = 0x1p-3, .payload_bits = 40 * 512.0, .station = 0,
           .relative_deadline = long_deadline});
  return set;
}

std::vector<Case> boundary_cases() {
  constexpr PdpVariant kStd = PdpVariant::kStandard8025;
  constexpr PdpVariant kMod = PdpVariant::kModified8025;
  std::vector<Case> cases;
  // The release ties with the long message's tenth frame-done (modified:
  // 5,269 + 10 * 2,496; standard: 5,269 + 10 * 2,496 + 9 * 164); the
  // queued release fires first and takes the token.
  cases.push_back({"mod-tie", preempt_set(30'229),
                   dyadic_config(kMod, 0.1)});
  cases.push_back({"std-tie", preempt_set(31'705),
                   dyadic_config(kStd, 0.1)});
  // Horizon on a step of a run, and one ulp before it: the fifth
  // frame-done (modified) and the fourth lap walk (standard).
  for (const auto& [name, variant, ticks] :
       {std::tuple{"mod-horizon", kMod, 17'749.0},
        std::tuple{"std-horizon", kStd, 13'249.0}}) {
    const Seconds on = ticks * kTick;
    cases.push_back({std::string(name) + "-on", preempt_set(30'229),
                     dyadic_config(variant, on)});
    cases.push_back({std::string(name) + "-before", preempt_set(30'229),
                     dyadic_config(variant, std::nextafter(on, 0.0))});
  }
  // Station 0 hosts a two-frame stream and the long one: the short
  // stream's second release (tick 20,000) comes while the long message
  // is on the medium, and the station's next frame serves it.
  for (const auto& [name, variant] :
       {std::pair{"mod-two-stream", kMod}, std::pair{"std-two-stream", kStd}}) {
    msg::MessageSet set;
    set.add({.period = 20'000 * kTick, .payload_bits = 1'024.0,
             .station = 0});
    set.add({.period = 0x1p-3, .payload_bits = 40 * 512.0, .station = 0});
    set.add({.period = 0x1p-4, .payload_bits = 3 * 512.0, .station = 2});
    cases.push_back({name, set, dyadic_config(variant, 0.1)});
  }
  return cases;
}

/// Poisson async at 500 frames/s per station: the rotation that starts
/// near 6.2 ms runs out of pending frames near 9.0 ms, and station 3
/// crashes inside it at 7.4 ms.
Case poisson_crash_case() {
  return make_case("mod-4-poisson-crash", PdpVariant::kModified8025, 4, 4, 3,
                   1, 0.5, 30, false, [](SimConfig& cfg) {
                     cfg.async_model = AsyncModel::kPoisson;
                     cfg.async_frames_per_second = 500.0;
                     cfg.worst_case_phasing = false;
                     cfg.seed = 3;
                     cfg.faults.add_station_crash(milliseconds(7.4), 3,
                                                  milliseconds(5));
                   });
}

/// Storm guards tripping inside runs of the standard "std-tie" case: the
/// 13th event is a lap walk (its frame is refused), the 14th a frame-done
/// (the next lap walk is refused), and the 110th an async frame-done
/// inside the rotation that follows the long message.
std::vector<Case> boundary_storm_cases() {
  std::vector<Case> cases;
  for (const std::size_t cap : {13, 14, 110}) {
    Case c{"std-tie-guard-" + std::to_string(cap), preempt_set(31'705),
           dyadic_config(PdpVariant::kStandard8025, 0.1)};
    c.cfg.max_events = cap;
    cases.push_back(c);
  }
  return cases;
}

/// Verdict-only runs whose first miss is the long message's last frame:
/// its 2^-6 s deadline passes while its frames are still being sent.
std::vector<Case> verdict_cases() {
  std::vector<Case> cases;
  cases.push_back({"mod-verdict", preempt_set(30'229, 0x1p-6),
                   dyadic_config(PdpVariant::kModified8025, 0.1)});
  cases.push_back({"std-verdict", preempt_set(31'705, 0x1p-6),
                   dyadic_config(PdpVariant::kStandard8025, 0.1)});
  return cases;
}

/// The verdict and the events the run executed before it stopped.
std::string verdict_fingerprint(const Case& c) {
  const std::uint64_t before = sim_events();
  const bool misses = make_simulator(c.set, c.cfg)->misses_a_deadline();
  return std::string(misses ? "misses" : "clean") +
         " events=" + std::to_string(sim_events() - before);
}

struct Golden {
  const char* name;
  const char* text;
};

// Captured from a Release build of the per-event engine (GCC 12.2,
// x86-64); doubles print with %a, so every line compares bit for bit.
const Golden kGoldenMetrics[] = {
    {"std-1-wc-sat", R"(released=103 completed=101 misses=0 async=263 losses=0 depth=1 events=1122
response 101 0x1.fc1669af43308p-10 0x1.76a3282c9e232p-20 0x1.b28ee8244e6p-11 0x1.b3cbfdc26dcb6p-8
normalized 101 0x1.4a0a24ba63137p-3 0x1.a3bbc19b81d78p-10 0x1.a03d0672eb8efp-4 0x1.280ec142b18b9p-2
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 43 43 0 43 0x1.2bc549e8b5c04p-10 0x1.3c712e846bb32p-25 0x1.b28ee8244e6p-11 0x1.83dd2158103dp-10
station 1 28 28 0 28 0x1.b6cb8d50ebdd9p-10 0x1.aa3a5427c03b1p-23 0x1.31d544aa96dp-10 0x1.4fdd789a671d2p-9
station 2 18 17 0 17 0x1.71d91130ee775p-9 0x1.1fe978d17c2f5p-21 0x1.d22fde434544p-10 0x1.1b4f121e9af4p-8
station 3 14 13 0 13 0x1.04e08c837d971p-8 0x1.332e32ca04144p-19 0x1.412b94267813p-9 0x1.b3cbfdc26dcb6p-8
)"},
    {"mod-1-wc-sat", R"(released=103 completed=101 misses=0 async=271 losses=0 depth=1 events=1001
response 101 0x1.d62f014caf2b7p-10 0x1.361bc912766f6p-20 0x1.9fbae3b6cb4p-11 0x1.a0a1716ededa9p-8
normalized 101 0x1.341bde9c8758dp-3 0x1.7cc74827b5afbp-10 0x1.8c357e9338c4fp-4 0x1.1b098089eda7fp-2
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 43 43 0 43 0x1.1e457528bc655p-10 0x1.1a5a26a9e2508p-25 0x1.9fbae3b6cb4p-11 0x1.6f615d8298cbcp-10
station 1 28 28 0 28 0x1.91d8a86f0ef9fp-10 0x1.5d649fe9b4b1bp-23 0x1.1f9e1f4e88fp-10 0x1.44e9bab3cc4a7p-9
station 2 18 17 0 17 0x1.5ba4b56aa58b6p-9 0x1.1c65690ef6c68p-21 0x1.bbc108a4e36cp-10 0x1.105b543800215p-8
station 3 14 13 0 13 0x1.d1aa6594afaaap-9 0x1.1c942d4114a83p-19 0x1.2a6351c3efbp-9 0x1.a0a1716ededa9p-8
)"},
    {"std-4-wc-none", R"(released=92 completed=91 misses=0 async=0 losses=0 depth=1 events=2200
response 91 0x1.621442b59b23ap-9 0x1.06377e818d8ep-17 0x1.eff13c8c22cp-11 0x1.0f3b8eb1d7062p-6
normalized 91 0x1.607220f568aeep-3 0x1.f774e3f35b20ep-9 0x1.108738ae12bb8p-3 0x1.a7cd0ef5dff99p-2
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 36 36 0 36 0x1.ffe91bddb9d71p-11 0x1.d6827d8e29d02p-30 0x1.eff13c8c22cp-11 0x1.24f8dac731a3p-10
station 1 23 23 0 23 0x1.d5c2fb521baf5p-10 0x1.99203b5e54357p-23 0x1.826f4dc2eb3p-10 0x1.43d5fa3508e8p-9
station 2 15 15 0 15 0x1.b6d207c0b5ad3p-9 0x1.1574b1f00ee83p-20 0x1.32cd0843d98cp-9 0x1.3b8a3f46072p-8
station 3 11 11 0 11 0x1.4fc116402b295p-8 0x1.4a2512bbcdb63p-18 0x1.91295993b114p-9 0x1.1f80893ef6a89p-7
station 4 7 6 0 6 0x1.5773b6282ad5fp-7 0x1.f9632da81b7ep-17 0x1.9d33449932eap-8 0x1.0f3b8eb1d7062p-6
)"},
    {"mod-4-wc-none", R"(released=92 completed=92 misses=0 async=0 losses=0 depth=1 events=1266
response 92 0x1.4dd83591da6b8p-9 0x1.d4295931dc8f2p-18 0x1.c98326e60542p-11 0x1.f3afce9064654p-7
normalized 92 0x1.460a904d902cdp-3 0x1.941da7ee91115p-9 0x1.f4763fafe08f6p-4 0x1.86615960ce6f1p-2
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 36 36 0 36 0x1.e17637a093313p-11 0x1.8b244c69d89d1p-29 0x1.c98326e60542p-11 0x1.0e16650410c6p-10
station 1 23 23 0 23 0x1.b33bc134ae5acp-10 0x1.66d6db0ee158p-23 0x1.63a44353e9dp-10 0x1.31fdd42ef344p-9
station 2 15 15 0 15 0x1.822001a265e83p-9 0x1.44f5928ae7716p-21 0x1.19900ebb43c08p-9 0x1.207c51d87c54p-8
station 3 11 11 0 11 0x1.33d50d5b665a2p-8 0x1.1fed84643b6a6p-18 0x1.705707f62e7ep-9 0x1.08e942dae3e62p-7
station 4 7 7 0 7 0x1.3aaf51204fbb5p-7 0x1.679c85edcb31cp-17 0x1.7b6eebc4e986p-8 0x1.f3afce9064654p-7
)"},
    {"std-16-rand-sat", R"(released=117 completed=115 misses=0 async=1764 losses=0 depth=1 events=9286
response 115 0x1.bd7037f43dab4p-10 0x1.694c98c7de6c2p-18 0x1.2c880e0f4997p-11 0x1.14c6de8525918p-6
normalized 115 0x1.ba40b8d2f9ccp-4 0x1.a663ad4a1b273p-10 0x1.4bfe1c59385f3p-4 0x1.0e4a354e06b01p-2
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 29 29 0 29 0x1.3784a99654345p-11 0x1.7e2a3948631b8p-33 0x1.2c880e0f4997p-11 0x1.41e6639badp-11
station 1 18 18 0 18 0x1.221219bc18d46p-10 0x1.0338b55e00832p-24 0x1.d7f319292c94p-11 0x1.99b379e0c392p-10
station 2 12 11 0 11 0x1.23925e57d496ap-9 0x1.456b55c49b884p-20 0x1.73d4ec8ce2fap-10 0x1.26b4eaa309367p-8
station 3 8 8 0 8 0x1.826ebce1630eap-9 0x1.8e9bbfcd1f486p-21 0x1.ea4f53f4fa3ap-10 0x1.21821830b054p-8
station 4 5 5 0 5 0x1.8236d5614840bp-8 0x1.39efe77777b4ap-18 0x1.ae3d8c4859143p-9 0x1.0b0a6aec759p-7
station 5 3 3 0 3 0x1.a6e6988c71ca6p-7 0x1.c25a067cb0e9bp-17 0x1.3d777c0af8f32p-7 0x1.14c6de8525918p-6
station 6 26 25 0 25 0x1.92747ad109669p-11 0x1.b3c7ae5bf9494p-25 0x1.49ef5562e05p-11 0x1.4244a439cd31p-10
station 7 16 16 0 16 0x1.76108d6de74b6p-10 0x1.0e61d50c88213p-22 0x1.02d035b7497p-10 0x1.4a7b4ed589dcp-9
)"},
    {"mod-16-rand-sat", R"(released=117 completed=116 misses=0 async=2219 losses=0 depth=1 events=7528
response 116 0x1.624d62cc2b4bfp-10 0x1.aa2a5adf7c2c4p-19 0x1.00f5e6067bcp-11 0x1.bfa7ec78494e8p-7
normalized 116 0x1.66cd109771cb5p-4 0x1.ff67f3b8de32ep-11 0x1.1ad8660fe0576p-4 0x1.c18ba0c120aefp-3
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 29 29 0 29 0x1.0ae8c8e404038p-11 0x1.279addc2286a2p-33 0x1.00f5e6067bcp-11 0x1.149ca813d65p-11
station 1 18 18 0 18 0x1.e56e0fe38eed8p-11 0x1.7fa886e1f1c18p-25 0x1.91e41c051458p-11 0x1.5d95bc617a5ap-10
station 2 12 11 0 11 0x1.d0ee147468ad7p-10 0x1.fe5a81247fd6p-21 0x1.3cc96811c81p-10 0x1.f77da9ce10202p-9
station 3 8 8 0 8 0x1.36335c52594a7p-9 0x1.7b61d76690f63p-22 0x1.a5ecc1f48383p-10 0x1.892d0eaec7p-9
station 4 5 5 0 5 0x1.39d489fb511e7p-8 0x1.570b378677718p-19 0x1.6cff94d088997p-9 0x1.940368c9cfe7p-8
station 5 3 3 0 3 0x1.3b0c79ed359ebp-7 0x1.ac4a41a17abc6p-17 0x1.c4065a01fde2p-8 0x1.bfa7ec78494e8p-7
station 6 26 26 0 26 0x1.37afb806a78c1p-11 0x1.f8dcac11aa0ep-27 0x1.1928b706f7bp-11 0x1.e930d68edde8p-11
station 7 16 16 0 16 0x1.31cdfa03d6a7p-10 0x1.9db9cde485ed1p-23 0x1.b8c04682e01p-11 0x1.1c3be5007718p-9
)"},
    {"std-100-wc-sat", R"(released=113 completed=110 misses=3 async=1 losses=0 depth=2 events=24605
response 110 0x1.158ca0a723693p-8 0x1.5336266731d9cp-13 0x1.260b330fdaap-11 0x1.cd50758a3b126p-4
normalized 110 0x1.3829c6da576d3p-3 0x1.250f399d66c72p-5 0x1.482c7fd88d24ep-4 0x1.998c2859a0ce7p+0
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 22 22 0 22 0x1.29b5f92d45182p-11 0x1.b5c55a609f514p-37 0x1.260b330fdaap-11 0x1.2cf860a46464p-11
station 1 14 14 0 14 0x1.14fe6b1ae618fp-10 0x1.8d7f732671fd9p-23 0x1.ce5b5715bd7p-11 0x1.0fbdd935255c6p-9
station 2 9 9 0 9 0x1.2dedde050cfcfp-9 0x1.d07eb83599018p-21 0x1.6ff8278a0852p-10 0x1.23092028f32cbp-8
station 3 7 7 0 7 0x1.37bcbfcaa6f4ap-8 0x1.2517e7a44e9adp-18 0x1.43a45efdc9ep-9 0x1.273ce313609d8p-7
station 4 4 4 0 4 0x1.40b66c786f0dbp-7 0x1.d79364af6f509p-16 0x1.5c499d0c583b8p-8 0x1.1aed172620b9p-6
station 5 3 2 1 2 0x1.36919de350707p-5 0x1.6ad04b312faebp-10 0x1.7c46b648bcfep-7 0x1.0708c71a38d0bp-4
station 6 20 20 0 20 0x1.6705a1dd7e1aep-11 0x1.ffce713c660bbp-26 0x1.469a9e23a7fd8p-11 0x1.381164ea376bdp-10
station 7 13 13 0 13 0x1.5c1c9c7b5ad06p-10 0x1.84fde40549c5cp-22 0x1.fd0f6fa6f518p-11 0x1.8eab127bae24ep-9
station 8 8 8 0 8 0x1.7bf413da23e2bp-9 0x1.7411a5c83a787p-19 0x1.96371eef9f46p-10 0x1.88604cf40e983p-8
station 9 6 6 0 6 0x1.41f4081c64e75p-8 0x1.c7d0d62ba2ffap-17 0x1.0ab39d307a2ap-9 0x1.867056f78f814p-7
station 10 4 4 0 4 0x1.2c51e522b88c2p-6 0x1.5acac43a23dd5p-14 0x1.a2b4f8ea02c7p-7 0x1.0485750f68c72p-5
station 11 3 1 2 1 0x1.cd50758a3b126p-4 0x0p+0 0x1.cd50758a3b126p-4 0x1.cd50758a3b126p-4
)"},
    {"mod-100-wc-sat", R"(released=113 completed=113 misses=0 async=9864 losses=0 depth=1 events=32941
response 113 0x1.5a50823bdc264p-10 0x1.4f9307fc1e9edp-18 0x1.2df4aa203b1ep-12 0x1.083cdb794e0cap-6
normalized 113 0x1.eb067d09080a4p-5 0x1.8889a11a2693p-10 0x1.4d91f666bfc67p-5 0x1.d52c0e6b057dbp-3
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 22 22 0 22 0x1.33bfa922dd1e7p-12 0x1.10b6723901ae3p-37 0x1.2df4aa203b1ep-12 0x1.38c20e3f2fdp-12
station 1 14 14 0 14 0x1.1d1f1a58785d3p-11 0x1.a8a70698c3ce7p-25 0x1.dc98ab7a62p-12 0x1.185d7273a64cp-10
station 2 9 9 0 9 0x1.221aadfc49c44p-10 0x1.ce54b829e3f61p-23 0x1.77d6f524c9a4p-11 0x1.2aa58d9348362p-9
station 3 7 7 0 7 0x1.043d7c81d5d31p-9 0x1.02620dac84174p-20 0x1.4bb89f9f0882p-10 0x1.069ccf09b729dp-8
station 4 4 4 0 4 0x1.bd002d89f2d2ep-9 0x1.7b9faf6680ccfp-18 0x1.acd97f5a7c18p-10 0x1.b53e50ad636fdp-8
station 5 3 3 0 3 0x1.902da2f6c1e67p-8 0x1.0d4afca61555p-15 0x1.55936ae830ecp-9 0x1.9e4a7d2f8aecap-7
station 6 20 20 0 20 0x1.73bee4e58335bp-12 0x1.12b8b8f3659f9p-27 0x1.4f4a3ea8d2ap-12 0x1.435e7692dd2p-11
station 7 13 13 0 13 0x1.571efa023cd13p-11 0x1.9fe4a81851645p-24 0x1.034c6866f002p-11 0x1.99e8ffdeb7c41p-10
station 8 8 8 0 8 0x1.6266eaaddbe21p-10 0x1.471da0e46f428p-21 0x1.9d77fd86773p-11 0x1.9216e58761713p-9
station 9 6 6 0 6 0x1.bf1e0a6efee34p-10 0x1.6614309a92dcep-19 0x1.0fafddb943a8p-10 0x1.4a486241801a2p-8
station 10 4 4 0 4 0x1.35b72014cb2dp-8 0x1.26806aaabcba7p-17 0x1.43d1041002c4p-9 0x1.29a30ed9d4e78p-7
station 11 3 3 0 3 0x1.0517ed405ade4p-7 0x1.a3f46b8f03cbap-15 0x1.cf3e4b040e1cp-9 0x1.083cdb794e0cap-6
)"},
    {"std-1000-wc-sat", R"(released=45 completed=17 misses=20 async=1 losses=0 depth=5 events=11150
response 17 0x1.8a20ea9084bbap-8 0x1.6d53a198089c8p-14 0x1.8490eb1623b7p-9 0x1.578cd1609b9fbp-5
normalized 17 0x1.691fee0193fcp-1 0x1.5241670c8a941p-1 0x1.b0f3e37507e4ep-2 0x1.e7ff4c51f4545p+1
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 9 9 0 9 0x1.8500c06f883acp-9 0x1.adeade80c37b4p-37 0x1.8490eb1623b7p-9 0x1.85d0518099fccp-9
station 1 6 1 5 1 0x1.578cd1609b9fbp-5 0x0p+0 0x1.578cd1609b9fbp-5 0x1.578cd1609b9fbp-5
station 2 4 0 3 0 0x0p+0 0x0p+0 inf -inf
station 3 3 0 2 0 0x0p+0 0x0p+0 inf -inf
station 4 2 0 1 0 0x0p+0 0x0p+0 inf -inf
station 5 1 0 0 0 0x0p+0 0x0p+0 inf -inf
station 6 8 7 0 7 0x1.3a77aa169458fp-8 0x1.9ef372b7a3cefp-20 0x1.aab7da09ab36p-9 0x1.97836815af028p-8
station 7 5 0 4 0 0x0p+0 0x0p+0 inf -inf
station 8 4 0 3 0 0x0p+0 0x0p+0 inf -inf
station 9 3 0 2 0 0x0p+0 0x0p+0 inf -inf
)"},
    {"mod-1000-wc-sat", R"(released=45 completed=29 misses=12 async=1 losses=0 depth=4 events=11162
response 29 0x1.276803a83f5b7p-8 0x1.eabbcb7231e57p-15 0x1.855d8698fd2ep-10 0x1.57e8e8f75e095p-5
normalized 29 0x1.94f9412efa422p-2 0x1.777f27f9cf6dfp-3 0x1.b1973944b9bb6p-3 0x1.330ff493b8885p+1
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 9 9 0 9 0x1.86275e293e904p-10 0x1.d7941bb326ff1p-39 0x1.855d8698fd2ep-10 0x1.86f4123853d4p-10
station 1 6 6 0 6 0x1.0a250d938541ap-8 0x1.1889f90e3eb5cp-20 0x1.313f7417ce88p-9 0x1.65077dbfc9ad1p-8
station 2 4 1 3 1 0x1.57e8e8f75e095p-5 0x0p+0 0x1.57e8e8f75e095p-5 0x1.57e8e8f75e095p-5
station 3 3 0 2 0 0x0p+0 0x0p+0 inf -inf
station 4 2 0 1 0 0x0p+0 0x0p+0 inf -inf
station 5 1 0 0 0 0x0p+0 0x0p+0 inf -inf
station 6 8 8 0 8 0x1.f9739ad00538fp-10 0x1.4760e9864b893p-22 0x1.ab711d6c5d8bp-10 0x1.98c928a2e2c43p-9
station 7 5 5 1 5 0x1.d1fa34ad41442p-8 0x1.d609219278139p-17 0x1.096bd12076ce8p-8 0x1.b8ecf213aacp-7
station 8 4 0 3 0 0x0p+0 0x0p+0 inf -inf
station 9 3 0 2 0 0x0p+0 0x0p+0 inf -inf
)"},
    {"std-100-poisson", R"(released=96 completed=92 misses=2 async=20 losses=0 depth=3 events=27078
response 92 0x1.d95e093b2dd7ep-9 0x1.1946b17956c56p-15 0x1.c2ba7b3389ap-11 0x1.47ad176adc9adp-5
normalized 92 0x1.ba41121b5748ap-3 0x1.793fe5e7726a6p-6 0x1.f70b8e12a9997p-4 0x1.fffe7496f8b1ep-1
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 21 21 0 21 0x1.c5765f849771ep-11 0x1.7e1717b19f994p-37 0x1.c2ba7b3389ap-11 0x1.c8a74fafee6bp-11
station 1 14 14 0 14 0x1.df3f8a51165a8p-10 0x1.5b71e2fac963ap-23 0x1.63b86c73cc78p-10 0x1.2ed2afe9371ep-9
station 2 9 9 0 9 0x1.18f943320607cp-8 0x1.c3592b4cfd73fp-20 0x1.1b29998dfccp-9 0x1.7af08d83d69f4p-8
station 3 6 6 0 6 0x1.5c9ea1436139ap-7 0x1.be796603e9528p-17 0x1.ef4d5a30268p-9 0x1.c3e766ac77308p-7
station 4 4 3 0 3 0x1.e9f2753ed12cdp-6 0x1.49fd9bfd332e5p-14 0x1.7ebe9acd777c8p-6 0x1.47ad176adc9adp-5
station 5 3 0 2 0 0x0p+0 0x0p+0 inf -inf
station 6 20 20 0 20 0x1.30a7b2ee8673p-10 0x1.086c22ea003c2p-23 0x1.f1e105ae3866p-11 0x1.db07d6c3cceap-10
station 7 12 12 0 12 0x1.41ff3c4098dfap-9 0x1.c2bb270718cedp-21 0x1.878641352148p-10 0x1.2446ddfc5f908p-8
station 8 7 7 0 7 0x1.989fbeadf1338p-8 0x1.b29dee2677739p-18 0x1.b2e9606f85b8cp-9 0x1.6557362b3fd5p-7
)"},
    {"mod-100-poisson", R"(released=96 completed=96 misses=0 async=605 losses=0 depth=1 events=17091
response 96 0x1.946aa4f4efc52p-10 0x1.95fc8a4153b68p-19 0x1.f195076c5d6p-12 0x1.2b171bbcf0228p-7
normalized 96 0x1.7c1f41d4341b4p-4 0x1.91d3186bf0135p-10 0x1.15ab29db541b4p-4 0x1.0a86f5b813da3p-2
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 21 21 0 21 0x1.f63116b19059ap-12 0x1.a2c012c2c428bp-38 0x1.f195076c5d6p-12 0x1.fc621018668p-12
station 1 14 14 0 14 0x1.d6448439c4edbp-11 0x1.e01302743e19ap-25 0x1.88e1842ae4dp-11 0x1.502c538bda48p-10
station 2 9 9 0 9 0x1.e2fa3d3ea66e8p-10 0x1.0ef48935a8358p-22 0x1.377bf6b8cedp-10 0x1.6feb8bd72372p-9
station 3 6 6 0 6 0x1.d633823dbc78ep-9 0x1.2133ea6d9aaa6p-19 0x1.11a18104cbe7p-9 0x1.7d3a1835c21p-8
station 4 4 4 0 4 0x1.3e08d3cb14117p-8 0x1.3049d8a83a395p-23 0x1.1f853d2363e1cp-8 0x1.5b7f7c7d6194p-8
station 5 3 3 0 3 0x1.08d3e33e9175dp-7 0x1.2fe4f39f3a089p-19 0x1.a0a2781c086cp-8 0x1.2b171bbcf0228p-7
station 6 20 20 0 20 0x1.2dc1efc03978cp-11 0x1.756fcdde6515ep-26 0x1.130908a9cb5cp-11 0x1.07efdf3466e6p-10
station 7 12 12 0 12 0x1.27460f94b2f21p-10 0x1.3a42082d939bep-23 0x1.af96c66dd4fp-11 0x1.0d553a962bfep-9
station 8 7 7 0 7 0x1.5e148b9238d8cp-9 0x1.abd1adf24ee19p-20 0x1.6129add97feap-10 0x1.485c8ae2c896p-8
)"},
    {"std-16-jitter", R"(released=66 completed=65 misses=0 async=1737 losses=0 depth=1 events=9177
response 65 0x1.598f348b3757dp-9 0x1.7241c4d637de5p-17 0x1.be401003eb5p-11 0x1.5ecd3a81b42d7p-6
normalized 65 0x1.22cdadb8f058ap-3 0x1.a40a1589e3b1ap-10 0x1.ec0a8aaac3aa5p-4 0x1.56946b22a9f46p-2
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 25 25 0 25 0x1.c8c496ab738b1p-11 0x1.63c14a75cecp-33 0x1.be401003eb5p-11 0x1.d3660680b84p-11
station 1 16 16 0 16 0x1.802b1280413f2p-10 0x1.2d46b236c25dcp-24 0x1.5aa7f55310ap-10 0x1.1cd87940fd3cp-9
station 2 10 9 0 9 0x1.4139d0cd68dcbp-9 0x1.08dc0bc84bfep-22 0x1.1568405d6a9p-9 0x1.b7bafad93007p-9
station 3 7 7 0 7 0x1.0fd1d595f8cb4p-8 0x1.09cd738da60ffp-19 0x1.6a7b434297f9p-9 0x1.802ee0c9154ep-8
station 4 5 5 0 5 0x1.9711f129eb6ap-8 0x1.113edb39205afp-19 0x1.3ae806d3b06dp-8 0x1.04c220c829a2p-7
station 5 3 3 0 3 0x1.e080230ca9ae8p-7 0x1.220aee4272df8p-15 0x1.5c7ca91df8f8p-7 0x1.5ecd3a81b42d7p-6
)"},
    {"mod-16-jitter-poisson", R"(released=70 completed=70 misses=0 async=2034 losses=0 depth=1 events=10463
response 70 0x1.5ad3b6150a055p-9 0x1.ca0b8d495c252p-17 0x1.78b73506c70a4p-11 0x1.392d75eb80f08p-6
normalized 70 0x1.0e313b26c98a9p-3 0x1.502b20d4a10fap-9 0x1.a179014444f0dp-4 0x1.31d66527fbeaep-2
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 26 26 0 26 0x1.83002128bc364p-11 0x1.4924ace5223b7p-33 0x1.78b73506c70a4p-11 0x1.8dd8e05bb7f8p-11
station 1 17 17 0 17 0x1.5fffc8ad21c22p-10 0x1.8f6fcb4958244p-24 0x1.26cc5dd0b32p-10 0x1.eedc24268288p-10
station 2 11 11 0 11 0x1.117c6a4725d25p-9 0x1.51824288019eep-22 0x1.d6b08baeccap-10 0x1.dadcf120bad16p-9
station 3 8 8 0 8 0x1.f4c353af16814p-9 0x1.1392967801003p-19 0x1.33428819ab928p-9 0x1.88fbc7297b3fp-8
station 4 5 5 0 5 0x1.071d6a908e5c6p-7 0x1.9dbde76799aecp-18 0x1.4d22e9a548e2p-8 0x1.607debc1e8fddp-7
station 5 3 3 0 3 0x1.0e918d9c3ed39p-6 0x1.41b444cad138dp-16 0x1.77792bbaeef4p-7 0x1.392d75eb80f08p-6
)"},
    {"std-100-faults", R"(released=113 completed=105 misses=8 async=1 losses=3 depth=3 events=24601
response 105 0x1.645ae5c4e2dadp-8 0x1.01ca1c97b9be7p-12 0x1.6d9ff9c4b57p-11 0x1.c85e59da8b23bp-4
normalized 105 0x1.ceb0f46528262p-3 0x1.fa6c165710a45p-4 0x1.981042301cc87p-4 0x1.442019ff94467p+1
rotation 0 0x0p+0 0x0p+0 inf -inf
fault token_loss 3 0x1.3576fbd31ep-15 4
fault frame_corruption 2 0x1.a2c2623ab38p-17 3
outage 0x1.b630f10597055p-6 0x1.b64b1d2bbab08p-6 frame_corruption
outage 0x1.14e9086a2734p-4 0x1.14ef9373b01edp-4 frame_corruption
outage 0x1.2d61dd763760ap-4 0x1.2d6ec26b602c9p-4 token_loss
outage 0x1.41b38ba04dbcbp-4 0x1.41c070957688ap-4 token_loss
outage 0x1.0e8f34e359e49p-3 0x1.0e95a75dee4a8p-3 token_loss
station 0 22 22 0 22 0x1.7097848d87dbep-11 0x1.037c26f9682e7p-36 0x1.6d9ff9c4b57p-11 0x1.74fe9a31e8cp-11
station 1 14 14 0 14 0x1.7435bcd4eb744p-10 0x1.49e1ce1595df9p-22 0x1.21ca70958604p-10 0x1.53ca6c4c71a6p-9
station 2 9 9 0 9 0x1.b0e3aceb5cbc4p-9 0x1.9123ad4c6d03ep-20 0x1.ced8a4c6d81ep-10 0x1.6b912c96fadaap-8
station 3 7 7 0 7 0x1.a6accf3163d16p-8 0x1.8131a975f8b61p-17 0x1.94cf89df1a8ep-9 0x1.bc87a8f6bef38p-7
station 4 4 4 1 4 0x1.e3e3daa1f1324p-6 0x1.6ba533aaee1d8p-14 0x1.9142feba78a5p-6 0x1.644fa4f1525fbp-5
station 5 3 0 2 0 0x0p+0 0x0p+0 inf -inf
station 6 20 20 0 20 0x1.e03738023fdc8p-11 0x1.5d803a412ebccp-24 0x1.93f8ce4c1a7p-11 0x1.825483b0148p-10
station 7 13 13 0 13 0x1.0b6e726022d7ep-9 0x1.4ab68f932dce1p-21 0x1.3e357c3ec53ap-10 0x1.f0fd32a3da455p-9
station 8 8 8 0 8 0x1.02206e8a90529p-8 0x1.7dec1cb9e5382p-18 0x1.fbd03f6f39eap-10 0x1.24e7fc700f6bap-7
station 9 6 6 0 6 0x1.0e5dd5d47198bp-7 0x1.a898c10c6c41ap-15 0x1.65f08103c758p-9 0x1.675485c84610bp-6
station 10 4 2 3 2 0x1.bbdd917fb2b82p-4 0x1.38a722f7e126fp-16 0x1.af5cc924da4c9p-4 0x1.c85e59da8b23bp-4
station 11 3 0 2 0 0x0p+0 0x0p+0 inf -inf
)"},
    {"mod-100-faults", R"(released=107 completed=107 misses=0 async=7370 losses=5 depth=1 events=30725
response 107 0x1.dd1dcf5ecd316p-10 0x1.530d8b56b2221p-17 0x1.77036e0a38ep-12 0x1.77fa5157fef0bp-6
normalized 107 0x1.3f96e9f9f8005p-4 0x1.6fbf2b7407aaep-9 0x1.a0f12016f211p-5 0x1.4dc980373654fp-2
rotation 0 0x0p+0 0x0p+0 inf -inf
fault token_loss 5 0x1.01e3272fee88p-14 0
fault frame_corruption 3 0x1.3a11c9ac064p-16 0
fault station_crash 3 0x1.c7dae2a09cp-15 0
fault station_rejoin 3 0x1.c7dae2a09cp-15 0
outage 0x1.63c3bed25a28fp-7 0x1.642ae67ba0884p-7 token_loss
outage 0x1.fdc52d0a4d525p-6 0x1.fddf593070fd8p-6 frame_corruption
outage 0x1.a76d414e4f08ap-5 0x1.a77a576160de3p-5 frame_corruption
outage 0x1.d83fffcdd9181p-5 0x1.d859c9b82aafep-5 token_loss
outage 0x1.12b372bcc9f63p-4 0x1.12c057b1f2c22p-4 token_loss
outage 0x1.2b4f653c9de0cp-4 0x1.2b55f04626cb9p-4 frame_corruption
outage 0x1.6fe4c6a3dd9b1p-4 0x1.6ff7c517f9a19p-4 station_crash
outage 0x1.73e39d411532p-4 0x1.73f69bb531388p-4 station_crash
outage 0x1.901344bb3692p-4 0x1.902029b05f5dfp-4 token_loss
outage 0x1.ad556a7ae7d88p-4 0x1.ad6868ef03dfp-4 station_rejoin
outage 0x1.b15441181f6f7p-4 0x1.b1673f8c3b75fp-4 station_rejoin
outage 0x1.dc07756d8c60fp-4 0x1.dc145a62b52cep-4 token_loss
outage 0x1.eed4b540da8b7p-4 0x1.eee7b3b4f691fp-4 station_crash
outage 0x1.1622ac8bf2647p-3 0x1.162c2bc60067bp-3 station_rejoin
station 0 19 19 0 19 0x1.7ba5aeccb471bp-12 0x1.04ae362ad9becp-38 0x1.77036e0a38ep-12 0x1.7ffd8f26d458p-12
station 1 14 14 0 14 0x1.62afa0071ad92p-11 0x1.42faf89c17739p-24 0x1.28b818852574p-11 0x1.5b118f599558p-10
station 2 9 9 0 9 0x1.54438d88be079p-10 0x1.970bba05deb5p-22 0x1.d5290e93a46ap-11 0x1.74420ba8b2e47p-9
station 3 7 7 0 7 0x1.44f9ad6af3d22p-9 0x1.928451567cb78p-20 0x1.9d09b6c08c28p-10 0x1.47a2a732e10f3p-8
station 4 4 4 0 4 0x1.21a2bae1fd518p-8 0x1.6177b35722a2dp-17 0x1.0ad7c29e0b9p-9 0x1.29beb01cbf107p-7
station 5 3 3 0 3 0x1.0266bdbbbd1cdp-7 0x1.d99d79c2e4d3cp-15 0x1.ab4b2bfae0dp-9 0x1.0f3f5b2890eb7p-6
station 6 18 18 0 18 0x1.cce4b98d01b7ep-12 0x1.d00c47c2146c6p-27 0x1.9dd26d29557p-12 0x1.8de35a8e79e8p-11
station 7 13 13 0 13 0x1.bd3824d29349ep-11 0x1.3b13919ee92acp-23 0x1.44dab08f0b3bp-11 0x1.fdb1f6e8e6e87p-10
station 8 8 8 0 8 0x1.ba8363ecb515fp-10 0x1.f9f5f1d3493dep-21 0x1.01dd3b52164cp-10 0x1.f50e288f59f03p-9
station 9 5 5 0 5 0x1.68fc1186e47d5p-9 0x1.485cb9c67ed7fp-18 0x1.51d25e784932p-10 0x1.9c1282d983a7bp-8
station 10 4 4 0 4 0x1.8f4f215168521p-8 0x1.0405b79ac3355p-16 0x1.ab1f0254b73p-9 0x1.867896341b88ap-7
station 11 3 3 0 3 0x1.98c7031c7d233p-7 0x1.6a096328c905ap-14 0x1.566c58406656p-8 0x1.77fa5157fef0bp-6
)"},
    {"std-4-faults-none", R"(released=91 completed=90 misses=1 async=0 losses=6 depth=1 events=1790
response 90 0x1.1b70b4e885b69p-9 0x1.05711581e1546p-17 0x1.47cec5fc2e7p-11 0x1.159e6468ab272p-6
normalized 90 0x1.ced9770d8f73ap-4 0x1.750f6c0495a2bp-10 0x1.67b9b26b8470fp-4 0x1.0f1cae0e37243p-2
rotation 0 0x0p+0 0x0p+0 inf -inf
fault token_loss 6 0x1.0c703856a376p-10 0
fault frame_corruption 8 0x1.4727dcbddb8p-12 0
fault station_crash 5 0x1.d61f0a6223bp-11 1
fault station_rejoin 5 0x1.d61f0a6223bp-11 0
fault duplicate_token 3 0x1.0411f095288p-14 0
outage 0x1.cae6eecd6916ep-7 0x1.d07e9aa48c7e8p-7 token_loss
outage 0x1.d02a1dfc7624fp-6 0x1.d2f5f3e807d8cp-6 token_loss
outage 0x1.026b02e60ac26p-5 0x1.02965b38ce492p-5 duplicate_token
outage 0x1.576bb0db40f06p-5 0x1.5797092e04772p-5 duplicate_token
outage 0x1.5e0f278c7b90fp-5 0x1.5f87406196e0bp-5 station_crash
outage 0x1.d8f06f3a900bdp-5 0x1.da68880fab5b9p-5 station_rejoin
outage 0x1.ae4b1a3652153p-4 0x1.aefe0fb136822p-4 token_loss
outage 0x1.e3313ce53abcbp-4 0x1.e346e90e9c801p-4 duplicate_token
outage 0x1.219088ac9564bp-3 0x1.21ea036a079b3p-3 token_loss
outage 0x1.40af97c72c0dp-3 0x1.410d9dfc72e0fp-3 station_crash
outage 0x1.47b30653a6c9ap-3 0x1.4804d04ad6408p-3 frame_corruption
outage 0x1.4e40a0e2ac98ap-3 0x1.4e9a1ba01ecf2p-3 token_loss
outage 0x1.5f67e9b2b12bcp-3 0x1.5fc5efe7f7ffbp-3 station_rejoin
outage 0x1.9155b29b987edp-3 0x1.91b3b8d0df52cp-3 station_crash
outage 0x1.9609c92bcbb8ap-3 0x1.965b9322fb2f8p-3 frame_corruption
outage 0x1.981437804728dp-3 0x1.98723db58dfccp-3 station_crash
outage 0x1.99eace2fdb88p-3 0x1.9a4448ed4dbe8p-3 token_loss
outage 0x1.b00e04871d9d8p-3 0x1.b06c0abc64717p-3 station_rejoin
outage 0x1.b6cc896bcc478p-3 0x1.b72a8fa1131b7p-3 station_rejoin
outage 0x1.c1cc51512228p-3 0x1.c22a578668fbfp-3 station_crash
outage 0x1.e084a33ca746cp-3 0x1.e0e2a971ee1abp-3 station_rejoin
station 0 34 34 0 34 0x1.6608c1084d097p-11 0x1.5d0e88324f64bp-27 0x1.47cec5fc2e7p-11 0x1.0f73c0969568p-10
station 1 22 21 1 21 0x1.287e5a18d61c9p-10 0x1.00ddf2d0ec275p-24 0x1.ffb32afe6ccp-11 0x1.a82905994d08p-10
station 2 13 13 0 13 0x1.2001e6ee936d7p-9 0x1.732b641312fcdp-22 0x1.9d81042936f8p-10 0x1.a33757a61b2dp-9
station 3 11 11 0 11 0x1.5f4e54bb6c14fp-9 0x1.68ee328ab09e9p-20 0x1.08c204575324p-9 0x1.572dd8ee8d012p-8
station 4 7 7 0 7 0x1.7b1ddcf287865p-8 0x1.fed1d1c26a8f7p-19 0x1.d2c3b7965f04p-9 0x1.34b2268071e3ep-7
station 5 4 4 0 4 0x1.9250e0b852061p-7 0x1.1b224e8d950f1p-16 0x1.e09b706189e2p-8 0x1.159e6468ab272p-6
)"},
    {"mod-16-faults-poisson", R"(released=115 completed=113 misses=0 async=620 losses=2 depth=1 events=4691
response 113 0x1.39d0939e5885cp-10 0x1.b99653dc5bbd1p-20 0x1.c0e41377f28p-12 0x1.fb107c7bed2b2p-8
normalized 113 0x1.440b90f564ddbp-4 0x1.6189aa374c6afp-11 0x1.f488b67c8d465p-5 0x1.6bbd480d58078p-3
rotation 0 0x0p+0 0x0p+0 inf -inf
fault token_loss 2 0x1.825cd6a161c4p-14 0
fault frame_corruption 6 0x1.4727dcbddb88p-13 0
fault station_crash 2 0x1.b0fc96cc5fp-14 0
fault station_rejoin 2 0x1.b0fc96cc5fp-14 0
fault duplicate_token 3 0x1.aebd35a8568p-16 0
outage 0x1.829e81bfab90ep-8 0x1.85a33b6cee53fp-8 token_loss
outage 0x1.e979946181012p-7 0x1.e9c15e951d0f8p-7 duplicate_token
outage 0x1.5fc65808d36dap-6 0x1.5fea3d22a174dp-6 duplicate_token
outage 0x1.f25610f33c45cp-6 0x1.f2f9a4e19b339p-6 frame_corruption
outage 0x1.3c5af6bdb0adcp-5 0x1.3cacc0b4e024ap-5 frame_corruption
outage 0x1.1cee1fbb705f8p-4 0x1.1d1704b7081afp-4 frame_corruption
outage 0x1.4dfeff3ab1c82p-4 0x1.4e27e43649839p-4 frame_corruption
outage 0x1.abb97276cb808p-4 0x1.abc26bbd3f025p-4 duplicate_token
outage 0x1.096ace914b8a6p-3 0x1.0982f45eb5a08p-3 token_loss
outage 0x1.5f4eb24b5058bp-3 0x1.5f69c214bd1eap-3 station_crash
outage 0x1.60d168767ff39p-3 0x1.60ec783fecb98p-3 station_crash
outage 0x1.7e070436d5776p-3 0x1.7e221400423d5p-3 station_rejoin
outage 0x1.7f89ba6205124p-3 0x1.7fa4ca2b71d83p-3 station_rejoin
station 0 25 25 0 25 0x1.d05ec9afdaa77p-12 0x1.51bf8f0be0dafp-33 0x1.c0e41377f28p-12 0x1.ea3f168443p-12
station 1 19 19 0 19 0x1.b8f9ddea89829p-11 0x1.a2b82a3bbb1f4p-25 0x1.6376a0f1d898p-11 0x1.31ec23301f3p-10
station 2 12 12 0 12 0x1.901828023b8c6p-10 0x1.df91eacbceb97p-23 0x1.19764bb4ecp-10 0x1.4bf5f391e14p-9
station 3 8 7 0 7 0x1.6e285eb064299p-9 0x1.b2b7914ffc081p-21 0x1.ef80fd7c6566p-10 0x1.0bb651b3ce1ap-8
station 4 5 5 0 5 0x1.1fc1c0b5b069ep-8 0x1.5d61a61792eeap-24 0x1.0870189bd5b9ap-8 0x1.3c234db0135cp-8
station 5 4 3 0 3 0x1.88e3c21010cabp-8 0x1.839ea8da1507cp-19 0x1.1c8c78498744p-8 0x1.fb107c7bed2b2p-8
station 6 26 26 0 26 0x1.1c0e73d717a4ap-11 0x1.5e7d6d109e669p-26 0x1.f4306da803ap-12 0x1.ef07ab6751dcp-11
station 7 16 16 0 16 0x1.0b797e986d81p-10 0x1.16048ba6d082ep-23 0x1.839d120729p-11 0x1.e85d263d5938p-10
)"},
    {"std-10-scripted", R"(released=40 completed=39 misses=0 async=674 losses=1 depth=1 events=3550
response 39 0x1.7b26b0543298cp-9 0x1.6981f1152675bp-17 0x1.f431863a2a38p-11 0x1.18fb78dd9a6dp-6
normalized 39 0x1.7b7195066054cp-3 0x1.d0daefe769694p-8 0x1.1720353075462p-3 0x1.bb6ce0fc39c24p-2
rotation 0 0x0p+0 0x0p+0 inf -inf
fault token_loss 1 0x1.250cbe8c9806p-14 0
fault frame_corruption 2 0x1.05b97d64afb8p-13 0
fault noise_burst 1 0x1.0f4d43237f6p-9 0
fault station_crash 2 0x1.3a4f04ba79ap-13 0
fault station_rejoin 1 0x1.3a4f04ba798p-14 0
fault duplicate_token 1 0x1.4b21e10f79p-17 0
outage 0x1.89374bc6a7efap-9 0x1.925fb1bb0cafdp-9 token_loss
outage 0x1.374bc6a7ef9dbp-7 0x1.395739a2b8fd1p-7 frame_corruption
outage 0x1.5810624dd2f1bp-6 0x1.79fa0ab242ddbp-6 noise_burst
outage 0x1.0e5604189374cp-5 0x1.0e6ab636a46c5p-5 duplicate_token
outage 0x1.47ae147ae147bp-5 0x1.484b3bfd3e848p-5 station_crash
outage 0x1.a9fbe76c8b43ap-5 0x1.aa990eeee8807p-5 station_crash
outage 0x1.0a3d70a3d70a4p-4 0x1.0a8c046505a8ap-4 station_rejoin
outage 0x1.47ae147ae147bp-4 0x1.47ef82da3a73ap-4 frame_corruption
station 0 18 18 0 18 0x1.1f5fa845816a6p-10 0x1.f59665b7f4ae2p-23 0x1.f431863a2a38p-11 0x1.8d4f1f9a506c8p-9
station 1 9 9 0 9 0x1.0274488cfc60ep-9 0x1.16f9709db95f7p-21 0x1.8d80a98fd238p-10 0x1.cfb1e3e99cca8p-9
station 2 3 3 0 3 0x1.dc123eb65ebb3p-9 0x1.d252ba2aa80e5p-20 0x1.408536c1c14ep-9 0x1.4b0049d9b85d4p-8
station 3 6 6 0 6 0x1.4aee82f6b305ep-8 0x1.79b1375c84daap-18 0x1.9ed672252162p-9 0x1.2b9796176990cp-7
station 4 4 3 0 3 0x1.74ebb5cf7b63dp-7 0x1.e8a1050c1d99cp-16 0x1.a718731ef907p-8 0x1.18fb78dd9a6dp-6
)"},
    {"mod-10-scripted", R"(released=40 completed=39 misses=0 async=784 losses=1 depth=1 events=2754
response 39 0x1.473d346a0d3aap-9 0x1.024c127970d79p-17 0x1.c3a276c14bfp-11 0x1.f998e996aba9ep-7
normalized 39 0x1.51833a114c38p-3 0x1.8c06f51cd94cap-8 0x1.f5a334c8e2c43p-4 0x1.ad38eaa858787p-2
rotation 0 0x0p+0 0x0p+0 inf -inf
fault token_loss 1 0x1.250cbe8c9806p-14 0
fault frame_corruption 2 0x1.05b97d64afb8p-13 0
fault noise_burst 1 0x1.0f4d43237f6p-9 0
fault station_crash 2 0x1.3a4f04ba79ap-13 0
fault station_rejoin 1 0x1.3a4f04ba798p-14 0
fault duplicate_token 1 0x1.4b21e10f79p-17 0
outage 0x1.89374bc6a7efap-9 0x1.925fb1bb0cafdp-9 token_loss
outage 0x1.374bc6a7ef9dbp-7 0x1.395739a2b8fd1p-7 frame_corruption
outage 0x1.5810624dd2f1bp-6 0x1.79fa0ab242ddbp-6 noise_burst
outage 0x1.0e5604189374cp-5 0x1.0e6ab636a46c5p-5 duplicate_token
outage 0x1.47ae147ae147bp-5 0x1.484b3bfd3e848p-5 station_crash
outage 0x1.a9fbe76c8b43ap-5 0x1.aa990eeee8807p-5 station_crash
outage 0x1.0a3d70a3d70a4p-4 0x1.0a8c046505a8ap-4 station_rejoin
outage 0x1.47ae147ae147bp-4 0x1.47ef82da3a73ap-4 frame_corruption
station 0 18 18 0 18 0x1.07d727c877a77p-10 0x1.f1d680de1d1bep-23 0x1.c3a276c14bfp-11 0x1.80954d221a058p-9
station 1 9 9 0 9 0x1.d34618ca3cce5p-10 0x1.eadd5dde1ca34p-22 0x1.6392a6227a838p-10 0x1.ae696eaf35e48p-9
station 2 3 3 0 3 0x1.a9059dca929a7p-9 0x1.7d6c3bf585168p-20 0x1.1d416b87e613p-9 0x1.28d95f8c64fcap-8
station 3 6 6 0 6 0x1.205c0c1c3cc4bp-8 0x1.4b3ee2dbdf221p-18 0x1.713489274ed6p-9 0x1.0ccfb46f4a399p-7
station 4 4 3 0 3 0x1.27cdcfa799085p-7 0x1.01e3f2ca40e51p-15 0x1.7d74682b76c1p-8 0x1.f998e996aba9ep-7
)"},
    {"std-16-multi-dlp", R"(released=149 completed=147 misses=0 async=1257 losses=0 depth=1 events=9449
response 147 0x1.0a15612362e71p-9 0x1.c659bbefa9a9p-17 0x1.b6570e2052bep-12 0x1.f5927244c5eaep-6
normalized 147 0x1.769b7ab402192p-4 0x1.cbc6ed5cf9e0bp-9 0x1.dc7ce5f9783a9p-5 0x1.bd49a62c54125p-2
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 60 60 0 60 0x1.abfe1e957ca7ap-11 0x1.75f773523ba15p-22 0x1.b6570e2052bep-12 0x1.ae1cadb967d52p-9
station 1 19 17 0 17 0x1.476070640aa8dp-8 0x1.a0851b7703939p-16 0x1.d7c33ca88098p-10 0x1.602818e0a10d8p-6
station 2 54 54 0 54 0x1.0373e772ad24cp-10 0x1.56fbacf8df76fp-21 0x1.e024eb198b3p-12 0x1.21068ad8449a8p-8
station 3 16 16 0 16 0x1.c6f2d5316e7cep-8 0x1.d76be988f8c04p-15 0x1.81c3bc3c3fcp-10 0x1.f5927244c5eaep-6
)"},
    {"mod-16-multi-dlp", R"(released=149 completed=148 misses=0 async=1697 losses=0 depth=1 events=7115
response 148 0x1.b8a40a34e3415p-10 0x1.0a59cac32bca4p-17 0x1.8030ae0e56ep-12 0x1.79413baf5fd8p-6
normalized 148 0x1.3ecac4edb0916p-4 0x1.220daa4cbf91p-9 0x1.a3a0c36f088ebp-5 0x1.4eebbb2b54b99p-2
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 60 60 0 60 0x1.7167e938fd585p-11 0x1.0e4efd97a1f4fp-22 0x1.8030ae0e56ep-12 0x1.7a1a6af44ea7bp-9
station 1 19 18 0 18 0x1.0f62067839289p-8 0x1.d2c2297b227acp-17 0x1.a0a78f00641cp-10 0x1.1043845b3caffp-6
station 2 54 54 0 54 0x1.c53ca97b2928ep-11 0x1.023bd53b9a3fdp-21 0x1.a67f910917ep-12 0x1.fb77bb12c2775p-9
station 3 16 16 0 16 0x1.5d4ec380611a6p-8 0x1.0990919b84f94p-15 0x1.54347e9b90b8p-10 0x1.79413baf5fd8p-6
)"},
    {"std-100-multi-dlp-jitter", R"(released=90 completed=87 misses=0 async=4673 losses=0 depth=1 events=32186
response 87 0x1.1591bf2b876c4p-9 0x1.310abd3328e21p-17 0x1.4ec42e279468p-11 0x1.4e77cad8aafd8p-6
normalized 87 0x1.ecfe6a878923ap-4 0x1.75fdd80025c56p-9 0x1.746ef028de0b2p-4 0x1.46a0fc1796fb9p-2
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 31 31 0 31 0x1.c9569960044f8p-11 0x1.39d02f0700292p-23 0x1.4ec42e279468p-11 0x1.32aeeb1de21cp-9
station 1 13 13 0 13 0x1.8043cfef9a0ffp-9 0x1.37669001a0418p-19 0x1.a29edf78ef98p-10 0x1.bc4d0aab900dp-8
station 2 7 5 0 5 0x1.86d1e6651fc2dp-7 0x1.2aa3d5ec6884ap-15 0x1.de71500df4acp-9 0x1.4e77cad8aafd8p-6
station 3 29 28 0 28 0x1.f995eb7774123p-11 0x1.c78c7f16046cfp-24 0x1.700e7c4af7dp-11 0x1.e2d0078ea68b7p-10
station 4 10 10 0 10 0x1.a95261faf0fd2p-9 0x1.ee8dfba21b66cp-20 0x1.cc562e4345p-10 0x1.5536fcf1f03e8p-8
)"},
    {"mod-100-multi-dlp-poisson", R"(released=102 completed=102 misses=0 async=483 losses=0 depth=1 events=15220
response 102 0x1.60d5db05cdf5ap-10 0x1.3476ef88e0bcp-19 0x1.937b2249ec9p-12 0x1.05d21e5d574a8p-7
normalized 102 0x1.38c6461039e4dp-4 0x1.27dfd18a97296p-10 0x1.c1d79442ed4eep-5 0x1.edf2dfeae41b8p-3
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 35 35 0 35 0x1.120b2e874c823p-11 0x1.63265ca39353ap-25 0x1.937b2249ec9p-12 0x1.0eb1b04065e8p-10
station 1 15 15 0 15 0x1.fb74675e23fc2p-10 0x1.c71815468f44ep-21 0x1.f7d2ba8865f2p-11 0x1.ebc8c3b678a8p-9
station 2 7 7 0 7 0x1.63926d4bbb0e9p-8 0x1.2ee556369f489p-19 0x1.fe5cf975373cp-9 0x1.05d21e5d574a8p-7
station 3 32 32 0 32 0x1.427b2e1660ep-11 0x1.5f6c02e3dc383p-24 0x1.bb642651d28cp-12 0x1.b596f46d454ap-10
station 4 13 13 0 13 0x1.459ca4612485dp-9 0x1.059f1f8b252b6p-19 0x1.163b379a5ab6p-10 0x1.8fe6a0cdbb8bp-8
)"},
    {"std-16-overload", R"(released=59 completed=45 misses=12 async=1 losses=0 depth=6 events=6819
response 45 0x1.e0d87b831e321p-8 0x1.f170edd452cfcp-13 0x1.1669e0d07d7bp-9 0x1.a9774d84549bfp-4
normalized 45 0x1.0e0cb069dcdb9p-1 0x1.a2f95d88f3bd7p-2 0x1.36babd31d5302p-2 0x1.210a17718cf51p+2
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 22 22 0 22 0x1.192936753098cp-9 0x1.8ba7674598a69p-33 0x1.1669e0d07d7bp-9 0x1.1bffde364d98p-9
station 1 14 14 0 14 0x1.36dc0d477932cp-8 0x1.d9897f65e0742p-21 0x1.b79a4e1a6e74p-9 0x1.6846f84fd7a9p-8
station 2 9 8 1 8 0x1.cd9caccd54db3p-7 0x1.03e24b9f33ea1p-17 0x1.3390dcf86d198p-7 0x1.2cc0c03e8cf12p-6
station 3 7 1 6 1 0x1.a9774d84549bfp-4 0x0p+0 0x1.a9774d84549bfp-4 0x1.a9774d84549bfp-4
station 4 4 0 3 0 0x0p+0 0x0p+0 inf -inf
station 5 3 0 2 0 0x0p+0 0x0p+0 inf -inf
)"},
    {"mod-4-overload-multi", R"(released=75 completed=66 misses=10 async=8 losses=0 depth=5 events=1454
response 66 0x1.847730454fecdp-8 0x1.87d538428c96p-15 0x1.c2aa556391dcp-10 0x1.dfb7718417d3ep-6
normalized 66 0x1.9df106590a11bp-2 0x1.eb73fbed1d1fdp-5 0x1.f6f9887169a58p-3 0x1.45e4f83f4d67ap+0
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 47 47 0 47 0x1.51704ea0ae63dp-9 0x1.43f990d591dfap-20 0x1.c2aa556391dcp-10 0x1.29eba9295046p-8
station 1 20 19 3 19 0x1.d20630aff68cap-7 0x1.0ad20c4423f95p-14 0x1.1b4c6651df218p-8 0x1.dfb7718417d3ep-6
station 2 8 0 7 0 0x0p+0 0x0p+0 inf -inf
)"},
    {"std-2-idle", R"(released=89 completed=89 misses=0 async=0 losses=0 depth=1 events=396
response 89 0x1.24a3c5abec66cp-11 0x1.a53fba3d6f811p-24 0x1.3a0d6f4e9e2p-12 0x1.ba2716d79a304p-10
normalized 89 0x1.a4139d89dd9ecp-5 0x1.d220fd1f45ecdp-14 0x1.5e8147a7be317p-5 0x1.8ac778f75bf43p-4
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 43 43 0 43 0x1.482d34ebe976ap-12 0x1.5d939b30efe3bp-34 0x1.3a0d6f4e9e2p-12 0x1.576f55f94f8p-12
station 1 28 28 0 28 0x1.3cfb50cfe1665p-11 0x1.a591d2e29b74cp-27 0x1.1b634877d8ep-11 0x1.c2e361b687bp-11
station 2 18 18 0 18 0x1.18ef4dc8adb22p-10 0x1.c8f5e52f2071ap-25 0x1.bbfa597d4c6p-11 0x1.ba2716d79a304p-10
)"},
    {"mod-622-rand-faults", R"(released=53 completed=42 misses=8 async=234 losses=0 depth=3 events=17883
response 42 0x1.29130b799ba1p-8 0x1.7fca338faa6c3p-15 0x1.31b04972cbf3p-10 0x1.de407d3867e68p-6
normalized 42 0x1.59204340b1c45p-2 0x1.aae2772fb2f22p-4 0x1.542bec1e02cfcp-3 0x1.843105396b9b8p+0
rotation 0 0x0p+0 0x0p+0 inf -inf
fault frame_corruption 2 0x1.315f8984b85p-17 4
fault station_crash 1 0x1.c8c3dc8178p-17 2
outage 0x1.365624a2110c9p-11 0x1.38b8e3b51a7ddp-11 frame_corruption
outage 0x1.446a6f32d6884p-5 0x1.4473fa2f22aep-5 frame_corruption
outage 0x1.203bb9bc2fdb6p-4 0x1.2049ffdb13e72p-4 station_crash
station 0 12 12 0 12 0x1.32612ad043b98p-10 0x1.4f3352ff935dap-39 0x1.31b04972cbf3p-10 0x1.32f0373a6064p-10
station 1 7 7 0 7 0x1.6f83c96ba7adep-9 0x1.c0b0ff43aebb5p-23 0x1.def629a31664p-10 0x1.9804b8e644b7p-9
station 2 5 4 0 4 0x1.18a7120d76313p-7 0x1.431f4fa4834ecp-17 0x1.2c512e687816cp-8 0x1.7dd6843277a22p-7
station 3 3 0 2 0 0x0p+0 0x0p+0 inf -inf
station 4 2 0 1 0 0x0p+0 0x0p+0 inf -inf
station 5 1 0 0 0 0x0p+0 0x0p+0 inf -inf
station 6 10 10 0 10 0x1.b1dcd78f03125p-10 0x1.30490322c8951p-22 0x1.4fbe6670a97cp-10 0x1.417c42db096c8p-9
station 7 6 6 0 6 0x1.0dbd683eb96f1p-8 0x1.257a25fbbf45p-20 0x1.9a8e88e1ebcfp-9 0x1.6dbd80f73d22cp-8
station 8 4 3 3 3 0x1.bb9d2afab2b65p-6 0x1.f32a87e3e1174p-19 0x1.a05ee777112acp-6 0x1.de407d3867e68p-6
station 9 3 0 2 0 0x0p+0 0x0p+0 inf -inf
)"},
};

const Golden kGoldenStorms[] = {
    {"std-100-guard", R"(simulation exceeded the max-event guard (7777 events) at t=0.0473741 s with 13 events still queued; a model bug or fault scenario is scheduling an event storm)"},
    {"mod-16-guard", R"(simulation exceeded the max-event guard (5001 events) at t=0.133147 s with 9 events still queued; a model bug or fault scenario is scheduling an event storm)"},
};

const Golden kGoldenTraces[] = {
    {"std-1-trace", R"({"at_s":0,"kind":"message_arrival","station":0,"payload_bits":1400.0000000000002}
{"at_s":0,"kind":"message_arrival","station":1,"payload_bits":2200}
{"at_s":0.000624,"kind":"async_frame","station":2,"frame_time_s":0.000624}
{"at_s":0.0006524447521269309,"kind":"sync_frame_start","station":0,"frame_time_s":0.000624}
{"at_s":0.0013137790085077236,"kind":"sync_frame_start","station":0,"frame_time_s":0.000624}
{"at_s":0.001975113264888516,"kind":"sync_frame_start","station":0,"frame_time_s":0.0004880000000000002}
{"at_s":0.0024631132648885164,"kind":"message_complete","station":0,"response_time_s":0.0024631132648885164}
{"at_s":0.0024915580170154473,"kind":"sync_frame_start","station":1,"frame_time_s":0.000624}
{"at_s":0.0031528922733962397,"kind":"sync_frame_start","station":1,"frame_time_s":0.000624}
{"at_s":0.003814226529777032,"kind":"sync_frame_start","station":1,"frame_time_s":0.000624}
{"at_s":0.0044755607861578246,"kind":"sync_frame_start","station":1,"frame_time_s":0.000624}
{"at_s":0.0051368950425386166,"kind":"sync_frame_start","station":1,"frame_time_s":0.000264}
{"at_s":0.005400895042538617,"kind":"message_complete","station":1,"response_time_s":0.005400895042538617}
{"at_s":0.006053339794665548,"kind":"async_frame","station":2,"frame_time_s":0.000624}
{"at_s":0.006705784546792479,"kind":"async_frame","station":0,"frame_time_s":0.000624}
{"at_s":0.007,"kind":"message_arrival","station":0,"payload_bits":1400.0000000000002}
{"at_s":0.007358229298919409,"kind":"async_frame","station":1,"frame_time_s":0.000624}
{"at_s":0.007391118803173271,"kind":"sync_frame_start","station":0,"frame_time_s":0.000624}
{"at_s":0.008052453059554064,"kind":"sync_frame_start","station":0,"frame_time_s":0.000624}
{"at_s":0.008713787315934857,"kind":"sync_frame_start","station":0,"frame_time_s":0.0004880000000000002}
{"at_s":0.009201787315934858,"kind":"message_complete","station":0,"response_time_s":0.0022017873159348575}
{"at_s":0.009854232068061788,"kind":"async_frame","station":1,"frame_time_s":0.000624}
{"at_s":0.010506676820188719,"kind":"async_frame","station":2,"frame_time_s":0.000624}
{"at_s":0.011,"kind":"message_arrival","station":1,"payload_bits":2200}
{"at_s":0.011159121572315649,"kind":"async_frame","station":0,"frame_time_s":0.000624}
{"at_s":0.01118756632444258,"kind":"sync_frame_start","station":1,"frame_time_s":0.000624}
{"at_s":0.011848900580823373,"kind":"sync_frame_start","station":1,"frame_time_s":0.000624}
{"at_s":0.012510234837204166,"kind":"sync_frame_start","station":1,"frame_time_s":0.000624}
{"at_s":0.013171569093584959,"kind":"sync_frame_start","station":1,"frame_time_s":0.000624}
{"at_s":0.013832903349965751,"kind":"sync_frame_start","station":1,"frame_time_s":0.000264}
{"at_s":0.014,"kind":"message_arrival","station":0,"payload_bits":1400.0000000000002}
{"at_s":0.014096903349965752,"kind":"message_complete","station":1,"response_time_s":0.0030969033499657524}
{"at_s":0.014129792854219614,"kind":"sync_frame_start","station":0,"frame_time_s":0.000624}
{"at_s":0.014791127110600407,"kind":"sync_frame_start","station":0,"frame_time_s":0.000624}
{"at_s":0.0154524613669812,"kind":"sync_frame_start","station":0,"frame_time_s":0.0004880000000000002}
{"at_s":0.0159404613669812,"kind":"message_complete","station":0,"response_time_s":0.0019404613669811981}
)"},
    {"mod-4-trace", R"({"at_s":0.000637323449760256,"kind":"async_frame","station":0,"frame_time_s":0.000156}
{"at_s":0.0008022129540141178,"kind":"async_frame","station":2,"frame_time_s":0.000156}
{"at_s":0.001072569363533933,"kind":"async_frame","station":1,"frame_time_s":0.000156}
{"at_s":0.001244682628422449,"kind":"async_frame","station":0,"frame_time_s":0.000156}
{"at_s":0.00140812738054938,"kind":"async_frame","station":1,"frame_time_s":0.000156}
{"at_s":0.0015744616369301728,"kind":"async_frame","station":0,"frame_time_s":0.000156}
{"at_s":0.0017407958933109654,"kind":"async_frame","station":3,"frame_time_s":0.000156}
{"at_s":0.002016931311338504,"kind":"async_frame","station":2,"frame_time_s":0.000156}
{"at_s":0.00215340130237278,"kind":"message_arrival","station":1,"payload_bits":7333.333333333332}
{"at_s":0.0022699506953351486,"kind":"async_frame","station":1,"frame_time_s":0.000156}
{"at_s":0.002281729703842872,"kind":"sync_frame_start","station":1,"frame_time_s":0.000156}
{"at_s":0.002437729703842872,"kind":"sync_frame_start","station":1,"frame_time_s":0.000156}
{"at_s":0.002593729703842872,"kind":"sync_frame_start","station":1,"frame_time_s":0.000156}
{"at_s":0.002749729703842872,"kind":"sync_frame_start","station":1,"frame_time_s":0.000156}
{"at_s":0.0029057297038428717,"kind":"sync_frame_start","station":1,"frame_time_s":0.000156}
{"at_s":0.0030617297038428716,"kind":"sync_frame_start","station":1,"frame_time_s":0.000156}
{"at_s":0.0032177297038428715,"kind":"sync_frame_start","station":1,"frame_time_s":0.000156}
{"at_s":0.0033737297038428714,"kind":"sync_frame_start","station":1,"frame_time_s":0.000156}
{"at_s":0.0035297297038428713,"kind":"sync_frame_start","station":1,"frame_time_s":0.000156}
{"at_s":0.003685729703842871,"kind":"sync_frame_start","station":1,"frame_time_s":0.000156}
{"at_s":0.003841729703842871,"kind":"sync_frame_start","station":1,"frame_time_s":0.000156}
{"at_s":0.003911361927362253,"kind":"message_arrival","station":0,"payload_bits":4666.666666666666}
{"at_s":0.004008063960223664,"kind":"sync_frame_start","station":0,"frame_time_s":0.000156}
{"at_s":0.004164063960223664,"kind":"sync_frame_start","station":0,"frame_time_s":0.000156}
{"at_s":0.0043200639602236635,"kind":"sync_frame_start","station":0,"frame_time_s":0.000156}
{"at_s":0.004476063960223663,"kind":"sync_frame_start","station":0,"frame_time_s":0.000156}
{"at_s":0.004632063960223663,"kind":"sync_frame_start","station":0,"frame_time_s":0.000156}
{"at_s":0.004788063960223663,"kind":"sync_frame_start","station":0,"frame_time_s":0.000156}
{"at_s":0.004944063960223663,"kind":"sync_frame_start","station":0,"frame_time_s":0.000156}
{"at_s":0.005100063960223663,"kind":"sync_frame_start","station":0,"frame_time_s":0.000156}
{"at_s":0.005256063960223663,"kind":"sync_frame_start","station":0,"frame_time_s":0.000156}
{"at_s":0.005412063960223663,"kind":"sync_frame_start","station":0,"frame_time_s":4.2666666666666513e-05}
{"at_s":0.005454730626890329,"kind":"message_complete","station":0,"response_time_s":0.001543368699528076}
{"at_s":0.00546217537901726,"kind":"sync_frame_start","station":1,"frame_time_s":0.000156}
{"at_s":0.00561817537901726,"kind":"sync_frame_start","station":1,"frame_time_s":0.000156}
{"at_s":0.00577417537901726,"kind":"sync_frame_start","station":1,"frame_time_s":0.000156}
{"at_s":0.00593017537901726,"kind":"sync_frame_start","station":1,"frame_time_s":6.933333333333303e-05}
{"at_s":0.005999508712350592,"kind":"message_complete","station":1,"response_time_s":0.003846107409977812}
{"at_s":0.006162953464477523,"kind":"async_frame","station":2,"frame_time_s":0.000156}
{"at_s":0.0063263982166044536,"kind":"async_frame","station":3,"frame_time_s":0.000156}
{"at_s":0.006489842968731384,"kind":"async_frame","station":0,"frame_time_s":0.000156}
{"at_s":0.006653287720858315,"kind":"async_frame","station":1,"frame_time_s":0.000156}
{"at_s":0.006816732472985245,"kind":"async_frame","station":2,"frame_time_s":0.000156}
{"at_s":0.006980177225112176,"kind":"async_frame","station":3,"frame_time_s":0.000156}
{"at_s":0.007143621977239107,"kind":"async_frame","station":0,"frame_time_s":0.000156}
{"at_s":0.007307066729366037,"kind":"async_frame","station":1,"frame_time_s":0.000156}
{"at_s":0.007471956233619899,"kind":"async_frame","station":3,"frame_time_s":0.000156}
{"at_s":0.007635400985746829,"kind":"async_frame","station":0,"frame_time_s":0.000156}
{"at_s":0.00779884573787376,"kind":"async_frame","station":1,"frame_time_s":0.000156}
{"at_s":0.007963735242127621,"kind":"async_frame","station":3,"frame_time_s":0.000156}
{"at_s":0.008127179994254552,"kind":"async_frame","station":0,"frame_time_s":0.000156}
{"at_s":0.008290624746381483,"kind":"async_frame","station":1,"frame_time_s":0.000156}
{"at_s":0.008455514250635345,"kind":"async_frame","station":3,"frame_time_s":0.000156}
{"at_s":0.008618959002762275,"kind":"async_frame","station":0,"frame_time_s":0.000156}
{"at_s":0.008782403754889206,"kind":"async_frame","station":1,"frame_time_s":0.000156}
{"at_s":0.008947293259143068,"kind":"async_frame","station":3,"frame_time_s":0.000156}
)"},
};

// Captured from a Release build of the staged engine before runs existed
// (GCC 12.2, x86-64), in the formats above.
const Golden kGoldenBoundaries[] = {
    {"mod-tie", R"(released=15 completed=15 misses=0 async=108 losses=0 depth=1 events=304
response 15 0x1.6256666666667p-9 0x1.7c5a5265f15f1p-15 0x1.462p-11 0x1.bae1p-6
normalized 15 0x1.1da4188578971p-3 0x1.6648461afdf46p-10 0x1.618457178d2a2p-4 0x1.bae1p-3
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 1 1 0 1 0x1.bae1p-6 0x0p+0 0x1.bae1p-6 0x1.bae1p-6
station 1 14 14 0 14 0x1.fa4b6db6db6dep-11 0x1.b7f702fd2fd31p-25 0x1.462p-11 0x1.402p-10
)"},
    {"std-tie", R"(released=15 completed=15 misses=0 async=105 losses=0 depth=1 events=334
response 15 0x1.68d8888888887p-9 0x1.a7fdb353f63f8p-15 0x1.462p-11 0x1.d1f1p-6
normalized 15 0x1.07489674d38a1p-3 0x1.b2a4315120093p-10 0x1.510f2bff62e76p-4 0x1.d1f1p-3
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 1 1 0 1 0x1.d1f1p-6 0x0p+0 0x1.d1f1p-6 0x1.d1f1p-6
station 1 14 14 0 14 0x1.e17924924924ap-11 0x1.e04a85cd5cd5cp-25 0x1.462p-11 0x1.439p-10
)"},
    {"mod-horizon-on", R"(released=2 completed=1 misses=0 async=1 losses=0 depth=1 events=12
response 1 0x1.402p-10 0x0p+0 0x1.402p-10 0x1.402p-10
normalized 1 0x1.5b03540492b63p-3 0x0p+0 0x1.5b03540492b63p-3 0x1.5b03540492b63p-3
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 1 0 0 0 0x0p+0 0x0p+0 inf -inf
station 1 1 1 0 1 0x1.402p-10 0x0p+0 0x1.402p-10 0x1.402p-10
)"},
    {"mod-horizon-before", R"(released=2 completed=1 misses=0 async=1 losses=0 depth=1 events=11
response 1 0x1.402p-10 0x0p+0 0x1.402p-10 0x1.402p-10
normalized 1 0x1.5b03540492b63p-3 0x0p+0 0x1.5b03540492b63p-3 0x1.5b03540492b63p-3
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 1 0 0 0 0x0p+0 0x0p+0 inf -inf
station 1 1 1 0 1 0x1.402p-10 0x0p+0 0x1.402p-10 0x1.402p-10
)"},
    {"std-horizon-on", R"(released=2 completed=1 misses=0 async=1 losses=0 depth=1 events=13
response 1 0x1.402p-10 0x0p+0 0x1.402p-10 0x1.402p-10
normalized 1 0x1.5b03540492b63p-3 0x0p+0 0x1.5b03540492b63p-3 0x1.5b03540492b63p-3
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 1 0 0 0 0x0p+0 0x0p+0 inf -inf
station 1 1 1 0 1 0x1.402p-10 0x0p+0 0x1.402p-10 0x1.402p-10
)"},
    {"std-horizon-before", R"(released=2 completed=1 misses=0 async=1 losses=0 depth=1 events=12
response 1 0x1.402p-10 0x0p+0 0x1.402p-10 0x1.402p-10
normalized 1 0x1.5b03540492b63p-3 0x0p+0 0x1.5b03540492b63p-3 0x1.5b03540492b63p-3
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 1 0 0 0 0x0p+0 0x0p+0 inf -inf
station 1 1 1 0 1 0x1.402p-10 0x0p+0 0x1.402p-10 0x1.402p-10
)"},
    {"mod-two-stream", R"(released=24 completed=24 misses=0 async=75 losses=0 depth=1 events=280
response 24 0x1.8f09555555554p-9 0x1.9add30133f128p-15 0x1.415p-10 0x1.253a8p-5
normalized 24 0x1.231e6728d2cebp-2 0x1.bef07800276fdp-8 0x1.8638p-5 0x1.852bd3c361134p-2
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 22 22 0 22 0x1.8bf51745d1745p-9 0x1.c1d9da38cbe9ep-15 0x1.415p-10 0x1.253a8p-5
station 2 2 2 0 2 0x1.b0e8p-9 0x1.c78e4p-23 0x1.8638p-9 0x1.db98p-9
)"},
    {"std-two-stream", R"(released=24 completed=24 misses=0 async=71 losses=0 depth=1 events=343
response 24 0x1.aad4p-9 0x1.cd7009b2c8591p-15 0x1.551p-10 0x1.372a8p-5
normalized 24 0x1.3cb8408541ac3p-2 0x1.ed678db0d8af3p-8 0x1.8818p-5 0x1.906f694467382p-2
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 22 22 0 22 0x1.a97dd1745d174p-9 0x1.f9426c726c9afp-15 0x1.551p-10 0x1.372a8p-5
station 2 2 2 0 2 0x1.b988p-9 0x1.31822p-22 0x1.8818p-9 0x1.eaf8p-9
)"},
    {"mod-4-poisson-crash", R"(released=9 completed=8 misses=0 async=44 losses=0 depth=1 events=298
response 8 0x1.855ce7922d679p-9 0x1.2145ceac840e5p-18 0x1.859a7443f2a3p-10 0x1.ec8853c2e22d6p-8
normalized 8 0x1.1df575a435aa5p-2 0x1.bcb5cb445bff6p-8 0x1.b2d33d3067f15p-3 0x1.b7c2dd1293163p-2
rotation 0 0x0p+0 0x0p+0 inf -inf
fault station_crash 1 0x1.6bfa4039abdcp-13 0
fault station_rejoin 1 0x1.6bfa4039abdcp-13 0
outage 0x1.e4f765fd8adacp-8 0x1.f05737ff5839ap-8 station_crash
outage 0x1.9652bd3c36114p-7 0x1.9c02a63d1cc0bp-7 station_rejoin
station 0 4 4 0 4 0x1.9d0417007990dp-10 0x1.4ed19fbb2d9cdp-27 0x1.859a7443f2a3p-10 0x1.c201e0f49d89p-10
station 1 3 3 0 3 0x1.b29a2258e6954p-9 0x1.6967bf2ad7ef8p-21 0x1.36cae8df774bp-9 0x1.f8c6a8f1e0f7bp-9
station 2 2 1 0 1 0x1.ec8853c2e22d6p-8 0x0p+0 0x1.ec8853c2e22d6p-8 0x1.ec8853c2e22d6p-8
)"},
};

const Golden kGoldenBoundaryStorms[] = {
    {"std-tie-guard-13", R"(simulation exceeded the max-event guard (13 events) at t=0.00315881 s with 2 events still queued; a model bug or fault scenario is scheduling an event storm)"},
    {"std-tie-guard-14", R"(simulation exceeded the max-event guard (14 events) at t=0.0037539 s with 2 events still queued; a model bug or fault scenario is scheduling an event storm)"},
    {"std-tie-guard-110", R"(simulation exceeded the max-event guard (110 events) at t=0.0327971 s with 2 events still queued; a model bug or fault scenario is scheduling an event storm)"},
};

const Golden kGoldenVerdicts[] = {
    {"mod-verdict", "misses events=59"},
    {"std-verdict", "misses events=95"},

};

TEST(PdpGolden, EveryMetricMatchesTheFrozenRuns) {
  const auto cases = golden_cases();
  ASSERT_EQ(cases.size(), std::size(kGoldenMetrics));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    EXPECT_EQ(cases[i].name, kGoldenMetrics[i].name);
    EXPECT_EQ(run_fingerprint(cases[i]), kGoldenMetrics[i].text);
  }
}

TEST(PdpGolden, StormGuardTripsWithTheFrozenMessage) {
  const auto cases = storm_cases();
  ASSERT_EQ(cases.size(), std::size(kGoldenStorms));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    EXPECT_EQ(storm_message(cases[i]), kGoldenStorms[i].text);
  }
}

TEST(PdpGolden, JsonlTracesAreByteIdentical) {
  const auto cases = trace_cases();
  ASSERT_EQ(cases.size(), std::size(kGoldenTraces));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    EXPECT_EQ(jsonl_trace(cases[i]), kGoldenTraces[i].text);
  }
}

TEST(PdpGolden, RunBoundariesMatchTheFrozenRuns) {
  std::vector<Case> cases = boundary_cases();
  cases.push_back(poisson_crash_case());
  ASSERT_EQ(cases.size(), std::size(kGoldenBoundaries));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    EXPECT_EQ(cases[i].name, kGoldenBoundaries[i].name);
    EXPECT_EQ(run_fingerprint(cases[i]), kGoldenBoundaries[i].text);
  }
}

TEST(PdpGolden, StormGuardTripsInsideRunsWithTheFrozenMessage) {
  const auto cases = boundary_storm_cases();
  ASSERT_EQ(cases.size(), std::size(kGoldenBoundaryStorms));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    EXPECT_EQ(storm_message(cases[i]), kGoldenBoundaryStorms[i].text);
  }
}

TEST(PdpGolden, VerdictRunsStopAtTheLastFrameOfTheLateMessage) {
  const auto cases = verdict_cases();
  ASSERT_EQ(cases.size(), std::size(kGoldenVerdicts));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    EXPECT_EQ(verdict_fingerprint(cases[i]), kGoldenVerdicts[i].text);
  }
}

}  // namespace
}  // namespace tokenring::sim
