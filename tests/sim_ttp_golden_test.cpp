// Frozen TTP simulator goldens. Every SimMetrics field (hex floats for
// every double), max_intervisit() and the executed-event count of 24 FDDI
// configurations: 1-1000 Mbps, worst-case and random phasing, saturating,
// Poisson and no async traffic, sporadic jitter, constrained deadlines
// (D < P), stations with several streams and with none, scripted faults of
// every kind (every station down at once included), random fault plans,
// and hibernating runs (collect_rotation_stats = false) on 256- and
// 1024-station rings. Plus one storm-guard trip with its message text and
// the full JSONL trace of two small runs.
//
// The literals were captured from the simulator's two earlier token walks:
// metrics and traces from the frontier walk, event counts and the storm
// message from the per-hop queued walk. A hop a fault makes stale stays
// pending and is counted when it fires; the staged walk does the same.
// Only the frontier walk hibernated, so the two hibernating runs' counts
// are its counts. No second walk is kept, so these goldens are the oracle
// that the staged walk replays the old one bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "tokenring/net/standards.hpp"
#include "tokenring/obs/registry.hpp"
#include "tokenring/obs/trace_sinks.hpp"
#include "tokenring/sim/config.hpp"
#include "tokenring/sim/simulator.hpp"

namespace tokenring::sim {
namespace {

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

/// Four streams spread over a large ring, periods of hundreds of
/// milliseconds: the ring idles for many rotations between releases.
msg::MessageSet sparse_set(int ring) {
  msg::MessageSet set;
  for (int i = 0; i < 4; ++i) {
    set.add({.period = milliseconds(200.0 + 20.0 * i),
             .payload_bits = 4'000.0,
             .station = (i * ring) / 4});
  }
  return set;
}

/// TTRT and the local-scheme h_i are left for make_simulator to derive.
SimConfig ttp_config(int ring, double bw_mbps, Seconds horizon) {
  SimConfig cfg;
  cfg.protocol = Protocol::kTtp;
  cfg.ttp.ring = net::fddi_ring(ring);
  cfg.ttp.frame = net::paper_frame_format();
  cfg.ttp.async_frame = net::paper_frame_format();
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
Case make_case(std::string name, double bw_mbps, int ring, int carriers,
               int per_station, double util, double horizon_ms,
               bool constrained, Tweak tweak) {
  Case c{std::move(name),
         ring_set(carriers, per_station, util, mbps(bw_mbps), constrained),
         ttp_config(ring, bw_mbps, milliseconds(horizon_ms))};
  tweak(c.cfg);
  return c;
}

std::vector<Case> golden_cases() {
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
                                          c.ttp.ring.num_stations);
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
  // Every station of a 4-station ring down at once from 16 ms; faults
  // strike the dark ring, then the stations rejoin one by one.
  const auto all_down = [](SimConfig& c) {
    c.faults.add_station_crash(milliseconds(10), 0, milliseconds(30));
    c.faults.add_station_crash(milliseconds(12), 1, milliseconds(40));
    c.faults.add_station_crash(milliseconds(14), 2, milliseconds(25));
    c.faults.add_station_crash(milliseconds(16), 3, milliseconds(20));
    c.faults.add_token_loss(milliseconds(20));
    c.faults.add_frame_corruption(milliseconds(25));
    c.faults.add_station_crash(milliseconds(70), 2, milliseconds(5));
  };
  const auto hibernate = [](SimConfig& c) {
    c.async_model = AsyncModel::kNone;
    c.collect_rotation_stats = false;
  };

  std::vector<Case> cases;
  // Columns: name, Mbps, ring stations, stations with streams, streams per
  // station, utilization, horizon [ms], D < P, config tweak.
  const auto add = [&cases](const char* name, double bw, int ring,
                            int carriers, int per_station, double util,
                            double horizon_ms, bool dlp, auto tweak) {
    cases.push_back(make_case(name, bw, ring, carriers, per_station, util,
                              horizon_ms, dlp, tweak));
  };
  add("fddi-1-wc-sat", 1, 4, 4, 1, 0.2, 300, false, keep);
  add("fddi-4-wc-none", 4, 6, 5, 1, 0.25, 250, false, no_async);
  add("fddi-16-rand-sat", 16, 8, 8, 1, 0.3, 200, false, random_phase);
  add("fddi-100-wc-sat", 100, 12, 12, 1, 0.3, 150, false, keep);
  add("fddi-1000-wc-sat", 1000, 12, 10, 1, 0.2, 60, false, keep);
  add("fddi-100-poisson", 100, 10, 9, 1, 0.3, 150, false, poisson);
  add("fddi-16-jitter", 16, 8, 6, 1, 0.3, 200, false, jitter);
  add("fddi-16-jitter-poisson", 16, 8, 6, 1, 0.3, 200, false,
      jitter_poisson);
  add("fddi-100-multi-dlp", 100, 8, 4, 3, 0.3, 150, true, keep);
  add("fddi-100-multi-dlp-jitter", 100, 8, 5, 2, 0.25, 150, true, jitter);
  add("fddi-16-overload", 16, 6, 6, 1, 1.3, 150, false, keep);
  add("fddi-4-overload-multi", 4, 5, 3, 2, 1.2, 200, true, random_phase);
  add("fddi-100-streamless", 100, 16, 0, 1, 0.0, 40, false,
      [](SimConfig& c) { c.ttrt = milliseconds(1); });
  add("fddi-100-nostats-sat", 100, 12, 12, 1, 0.3, 150, false,
      [](SimConfig& c) { c.collect_rotation_stats = false; });
  add("fddi-10-scripted", 10, 6, 5, 1, 0.3, 120, false, scripted);
  add("fddi-100-scripted-none", 100, 6, 5, 1, 0.3, 120, false,
      [&](SimConfig& c) {
        scripted(c);
        no_async(c);
      });
  add("fddi-100-all-down", 100, 4, 4, 1, 0.3, 100, false, all_down);
  add("fddi-100-faults", 100, 12, 12, 1, 0.3, 150, false, faults(7));
  add("fddi-4-faults-none", 4, 6, 6, 1, 0.25, 250, false,
      [&](SimConfig& c) {
        faults(9)(c);
        no_async(c);
      });
  add("fddi-16-faults-poisson", 16, 8, 8, 1, 0.25, 200, false,
      [&](SimConfig& c) {
        poisson(c);
        faults(10)(c);
      });
  add("fddi-622-rand-faults", 622, 10, 10, 1, 0.2, 80, false,
      [&](SimConfig& c) {
        random_phase(c);
        faults(12)(c);
      });
  add("fddi-16-jitter-faults", 16, 8, 6, 1, 0.3, 200, true,
      [&](SimConfig& c) {
        jitter(c);
        faults(13)(c);
      });
  // Hibernating runs: no async traffic, no trace, no rotation statistics.
  for (const int ring : {256, 1024}) {
    Case c{"fddi-100-hibernate-" + std::to_string(ring), sparse_set(ring),
           ttp_config(ring, 100, 1.0)};
    hibernate(c.cfg);
    cases.push_back(std::move(c));
  }
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
std::string fingerprint(const SimMetrics& m, Seconds max_intervisit,
                        std::uint64_t events) {
  std::ostringstream os;
  os << "released=" << m.messages_released
     << " completed=" << m.messages_completed
     << " misses=" << m.deadline_misses << " async=" << m.async_frames_sent
     << " losses=" << m.token_losses << " depth=" << m.max_queue_depth
     << " events=" << events << "\n";
  os << "intervisit " << hex(max_intervisit) << "\n";
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
  const auto sim = make_simulator(c.set, c.cfg);
  const SimMetrics m = sim->run();
  return fingerprint(m, sim->max_intervisit(), sim_events() - before);
}

/// A faulted run whose storm guard trips after most of its faults struck.
Case storm_case() {
  return make_case("fddi-100-faults-guard", 100, 12, 12, 1, 0.3, 150, false,
                   [](SimConfig& c) {
                     c.faults = fault::FaultPlan::random(
                         crash_rates(), c.horizon, 7, c.ttp.ring.num_stations);
                     c.max_events = 5'000;
                   });
}

std::string storm_message(const Case& c) {
  try {
    run_simulation(c.set, c.cfg);
  } catch (const EventStormError& e) {
    return e.what();
  }
  return "no trip";
}

/// Two small traced runs: a 1 Mbps ring under saturating async, and a
/// 4 Mbps ring with Poisson async, random phasing and a token loss.
std::vector<Case> trace_cases() {
  std::vector<Case> cases;
  cases.push_back(make_case("fddi-1-trace", 1, 3, 2, 1, 0.3, 20, false,
                            [](SimConfig&) {}));
  cases.push_back(make_case("fddi-4-trace", 4, 4, 3, 1, 0.3, 12, false,
                            [](SimConfig& c) {
                              c.async_model = AsyncModel::kPoisson;
                              c.async_frames_per_second = 900.0;
                              c.worst_case_phasing = false;
                              c.seed = 3;
                              c.faults.add_token_loss(milliseconds(4));
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

struct Golden {
  const char* name;
  const char* text;
};

// Captured from a Release build (GCC 12.2, x86-64); doubles print with
// %a, so every line compares bit for bit.
const Golden kGoldenMetrics[] = {
    {"fddi-1-wc-sat", R"(released=103 completed=100 misses=0 async=165 losses=0 depth=1 events=750
intervisit 0x1.7c37db2ae25aep-9
response 100 0x1.1aa85fd89116p-7 0x1.be63eeb69c512p-16 0x1.8b3b2559c404p-9 0x1.445d048b9221fp-6
normalized 100 0x1.5f44e2e14bd09p-1 0x1.60463b49caeebp-7 0x1.b91b2766787b5p-2 0x1.be8a97edee1a4p-1
rotation 187 0x1.a43dee7fd3dadp-10 0x1.ac88725ee4c72p-24 0x1.0db3eb38fb48p-10 0x1.7c37db2ae25aep-9
station 0 43 43 0 43 0x1.18dbe5d7ec50dp-8 0x1.ded7aa534892ep-22 0x1.8b3b2559c404p-9 0x1.9019e03158697p-8
station 1 28 27 0 27 0x1.ebec3536e5ecdp-8 0x1.0dfd54b0255e1p-22 0x1.ab4bec0421f8p-8 0x1.1561b2293a14p-7
station 2 18 17 0 17 0x1.c01a2c465c1e6p-7 0x1.8ffd9aa20281bp-22 0x1.9b636b875b832p-7 0x1.e86d8084d9c18p-7
station 3 14 13 0 13 0x1.327c264dbbeb5p-6 0x1.9801757229767p-22 0x1.2175dfe413368p-6 0x1.445d048b9221fp-6
)"},
    {"fddi-4-wc-none", R"(released=92 completed=90 misses=0 async=0 losses=0 depth=1 events=6646
intervisit 0x1.1fb3308dcf2p-11
response 90 0x1.ef79262f1b9ccp-9 0x1.03ef73e8812b1p-17 0x1.3c91288c49fp-10 0x1.d0c5946380f1fp-7
normalized 90 0x1.10f8fb4886b3dp-2 0x1.ef1de9b9d2132p-9 0x1.614fb8aedba99p-3 0x1.c23fffc279c46p-2
rotation 1107 0x1.d957706ea7a11p-13 0x1.e97b9031f4752p-28 0x1.1fa9c8d7ep-13 0x1.1fb3308dcf106p-11
station 0 36 36 0 36 0x1.d114015ab14acp-10 0x1.869bd6c68eaafp-23 0x1.3c91288c49fp-10 0x1.7f852a1d86874p-9
station 1 23 23 0 23 0x1.836542b4bbe54p-9 0x1.11508cd04235ep-21 0x1.1ad65944fe96p-9 0x1.3cf9daf780bb6p-8
station 2 15 14 0 14 0x1.358761f570b24p-8 0x1.3df36644884b7p-20 0x1.c053031c8f708p-9 0x1.dbcd3247d07bap-8
station 3 11 11 0 11 0x1.b44dbd834589ep-8 0x1.1d2388452513cp-19 0x1.4271d95ca99cp-8 0x1.384b147947f36p-7
station 4 7 6 0 6 0x1.78e663936b49cp-7 0x1.693a55a797826p-19 0x1.41cee6c328eap-7 0x1.d0c5946380f1fp-7
)"},
    {"fddi-16-rand-sat", R"(released=117 completed=110 misses=0 async=2763 losses=0 depth=1 events=2888
intervisit 0x1.5c690fc534ed8p-11
response 110 0x1.7b6345fe92b01p-7 0x1.9015f55038ee5p-14 0x1.5c11c3cb214d4p-8 0x1.f99b5d7700ddap-5
normalized 110 0x1.be892567d1b29p-1 0x1.fc2ff14e3d98ep-10 0x1.847865f2b52acp-1 0x1.edc1b94636d87p-1
rotation 360 0x1.2279af286e6dfp-11 0x1.70fe107e14ccbp-30 0x1.306c9a3669ep-13 0x1.4c3a9d4cbfa4p-11
station 0 29 28 0 28 0x1.80217d5d874ffp-8 0x1.845d5f59f30acp-25 0x1.5c11c3cb214d4p-8 0x1.950d33a308ddp-8
station 1 18 17 0 17 0x1.3e556954c58c3p-7 0x1.49b38dcbcd5c6p-25 0x1.3577fcb489215p-7 0x1.49168f725c27p-7
station 2 12 11 0 11 0x1.047b83e7caf64p-6 0x1.fe3deb9742862p-26 0x1.00fb293393dcp-6 0x1.0867b8e6b1a4cp-6
station 3 8 8 0 8 0x1.5e5d54a9e0763p-6 0x1.7589c0635db19p-26 0x1.5ad68febb6638p-6 0x1.61ad7f196d348p-6
station 4 5 4 0 4 0x1.3615c7bc67e3ep-5 0x1.218a305caa5e6p-24 0x1.32e6b5b53b743p-5 0x1.374dec9dfb85bp-5
station 5 3 2 0 2 0x1.f8eb2f72593eap-5 0x1.e4fd3ab09bcb4p-27 0x1.f83b016db19fap-5 0x1.f99b5d7700ddap-5
station 6 26 25 0 25 0x1.a4f872f87a0f7p-8 0x1.15d99a83045f9p-25 0x1.8a146ed1a7334p-8 0x1.b80346486e11p-8
station 7 16 15 0 15 0x1.6441ef3dda6fdp-7 0x1.b2ef57531742ep-25 0x1.5288bfc7fa76cp-7 0x1.6e58b663ff668p-7
)"},
    {"fddi-100-wc-sat", R"(released=113 completed=101 misses=0 async=14660 losses=0 depth=1 events=5722
intervisit 0x1.d85ce025ae504p-12
response 101 0x1.ed26cabf53a5ep-7 0x1.704ea6fa069f8p-13 0x1.880c1639ef96p-8 0x1.14050b05a43a7p-4
normalized 101 0x1.d15fe9ca46bb1p-1 0x1.9657337f4aeb3p-11 0x1.b56ff603743bcp-1 0x1.ea204f31eba58p-1
rotation 476 0x1.49efb884fc53p-12 0x1.a7d52a3c6a1f1p-33 0x1.10d599b4cf88p-12 0x1.d85ce025ae504p-12
station 0 22 21 0 21 0x1.92f61dddb6326p-8 0x1.e2aa3957e3825p-27 0x1.880c1639ef96p-8 0x1.a5461e40d0d78p-8
station 1 14 13 0 13 0x1.4585fc004661ep-7 0x1.8c6eb6f092f53p-32 0x1.44b3293336bdp-7 0x1.46ad67697a18p-7
station 2 9 8 0 8 0x1.0967e23d12e6bp-6 0x1.787326953c4d5p-27 0x1.069ab1e5badbcp-6 0x1.0b7c237ee5743p-6
station 3 7 6 0 6 0x1.617c68e70d7d6p-6 0x1.52dd85d53e591p-27 0x1.5f5a599da3cfp-6 0x1.63d236bffd27cp-6
station 4 4 3 0 3 0x1.3684e9d5b087ap-5 0x1.d61892b82e1c8p-28 0x1.35e7b46d0b45cp-5 0x1.373efd5e61806p-5
station 5 3 2 0 2 0x1.f513a8d4be21p-5 0x1.51f3c1ae37de7p-26 0x1.f443ac992ecbcp-5 0x1.f5e3a5104d765p-5
station 6 20 19 0 19 0x1.be19054761048p-8 0x1.a733551eba30bp-27 0x1.af236456f6738p-8 0x1.c6d0c1ecc681p-8
station 7 13 12 0 12 0x1.6f06fc8549c13p-7 0x1.a81bcec709696p-27 0x1.68b7baeeb461p-7 0x1.74d65cc8e157cp-7
station 8 8 7 0 7 0x1.23de93468fb71p-6 0x1.9315fe74b8ca7p-27 0x1.21093d6955498p-6 0x1.268c55ba2ee99p-6
station 9 6 5 0 5 0x1.8533254ed1863p-6 0x1.064711931790ep-26 0x1.8323da95b3824p-6 0x1.87f683b5becd1p-6
station 10 4 3 0 3 0x1.5562baa2d3d7p-5 0x1.1ac698d1220c5p-25 0x1.5482ec27a4f66p-5 0x1.571a116c9e78p-5
station 11 3 2 0 2 0x1.1352ee198e4a4p-4 0x1.efb0ee4c01dc3p-25 0x1.12a0d12d785a2p-4 0x1.14050b05a43a7p-4
)"},
    {"fddi-1000-wc-sat", R"(released=45 completed=36 misses=0 async=73144 losses=0 depth=1 events=3628
intervisit 0x1.0d44d6d095ddap-12
response 36 0x1.89a1e3cfd7749p-7 0x1.9a41017eb5dc5p-15 0x1.92cb3b1b208f3p-8 0x1.32413c0baadf7p-5
normalized 36 0x1.d11a3f382a8d6p-1 0x1.5c2931b62f687p-12 0x1.bf9b18758f56bp-1 0x1.de85edd23afd2p-1
rotation 302 0x1.9ff88710d366bp-13 0x1.c52923f51739fp-31 0x1.8cd946a543p-14 0x1.0d44d6d095ddap-12
station 0 9 8 0 8 0x1.9c3d4433c3026p-8 0x1.7860081022p-27 0x1.92cb3b1b208f3p-8 0x1.a67190d01ade3p-8
station 1 6 5 0 5 0x1.489f7dcfb4beap-7 0x1.10c7ee519a3a1p-28 0x1.455b6b295e3dcp-7 0x1.4a703419ed1c3p-7
station 2 4 3 0 3 0x1.0977d6283d2cep-6 0x1.7506c7bae78c1p-28 0x1.0887ecc812d4cp-6 0x1.0ad48adc3cc86p-6
station 3 3 2 0 2 0x1.5deca00f352cap-6 0x1.dfa9b068d14f5p-29 0x1.5d3d6a636e7f6p-6 0x1.5e9bd5bafbd9dp-6
station 4 2 1 0 1 0x1.32413c0baadf7p-5 0x0p+0 0x1.32413c0baadf7p-5 0x1.32413c0baadf7p-5
station 5 1 0 0 0 0x0p+0 0x0p+0 inf -inf
station 6 8 7 0 7 0x1.be224ec0787e1p-8 0x1.04f9e97418deep-28 0x1.b9290a9717b84p-8 0x1.c517cd8586a0ep-8
station 7 5 5 0 5 0x1.6a5131dbce668p-7 0x1.bf8309322a601p-27 0x1.63e2e88afb958p-7 0x1.6d37f2c6ce7a3p-7
station 8 4 3 0 3 0x1.22f5337132b4p-6 0x1.15ce8f2244dabp-27 0x1.2174eafc06772p-6 0x1.2466c6336574p-6
station 9 3 2 0 2 0x1.8197731afadc7p-6 0x1.f80a7839b9ccp-27 0x1.80303c6716e82p-6 0x1.82fea9ceded0cp-6
)"},
    {"fddi-100-poisson", R"(released=98 completed=98 misses=0 async=602 losses=0 depth=1 events=73771
intervisit 0x1.8d358215d7p-14
response 98 0x1.b237344b911f6p-10 0x1.2a86a1595e089p-19 0x1.1cded292eacp-11 0x1.16450513ed0f8p-7
normalized 98 0x1.d3931ea54f2d3p-4 0x1.7207104222ebdp-10 0x1.38067752caafcp-4 0x1.ed65f017cae36p-3
rotation 7377 0x1.5523637544595p-16 0x1.027d96401fffcp-33 0x1.ae6b91950cp-17 0x1.886058296218p-14
station 0 21 21 0 21 0x1.a28df6539a858p-11 0x1.262e8979b83d9p-24 0x1.1cded292eacp-11 0x1.9f7484db10e9cp-10
station 1 14 14 0 14 0x1.3eb7c70c9a07ap-10 0x1.9c2a24efcaa5p-23 0x1.c4fad261153p-11 0x1.4364373a666bdp-9
station 2 9 9 0 9 0x1.09a3748520fdcp-9 0x1.21fa946ffa341p-21 0x1.75138c81ff2ep-10 0x1.d1878463c2d2p-9
station 3 7 7 0 7 0x1.83ef2b9c81972p-9 0x1.52bab3246d575p-20 0x1.de15a398abdcp-10 0x1.2e005e7d74346p-8
station 4 3 3 0 3 0x1.3a523bbdc1368p-8 0x1.fa816625d6fa9p-20 0x1.fe90950d8d6dp-9 0x1.a1ef3b2ec33cp-8
station 5 3 3 0 3 0x1.f33d5f0654f59p-8 0x1.737e575e485cbp-20 0x1.9b9602c6b47ap-8 0x1.16450513ed0f8p-7
station 6 20 20 0 20 0x1.b224f3f44b139p-11 0x1.b7426769391p-25 0x1.33883758901p-11 0x1.808acdef5c88p-10
station 7 13 13 0 13 0x1.79f0594266312p-10 0x1.226431370f451p-22 0x1.ff41a2d12f7fp-11 0x1.7e166a772fc0fp-9
station 8 8 8 0 8 0x1.1724ea2c8b9a4p-9 0x1.af596695a4932p-21 0x1.996790667f24p-10 0x1.1819c5c960b32p-8
)"},
    {"fddi-16-jitter", R"(released=66 completed=60 misses=0 async=3107 losses=0 depth=1 events=2951
intervisit 0x1.4b1e483a96cf1p-11
response 60 0x1.bc0781d4df48dp-7 0x1.32707723d5b18p-13 0x1.653c11d53796p-8 0x1.eb7d8883f09b1p-5
normalized 60 0x1.b759a730539bdp-1 0x1.15a844c356693p-9 0x1.8eb30ac289776p-1 0x1.dffc142879223p-1
rotation 368 0x1.1c3d5a5e39b27p-11 0x1.f9bd1e186ba06p-30 0x1.f085dec7e956p-13 0x1.4b1e483a96cf1p-11
station 0 25 24 0 24 0x1.7470bae9d3904p-8 0x1.c01f9614fdeffp-26 0x1.653c11d53796p-8 0x1.8cdae1fe2f6ap-8
station 1 16 15 0 15 0x1.36abb345bd72ap-7 0x1.03096347bae76p-26 0x1.2fd935cdec4ep-7 0x1.3c52bb8da6dbp-7
station 2 10 9 0 9 0x1.ff303903cc75fp-7 0x1.f27e53e09454cp-27 0x1.f88894c34e89p-7 0x1.0265c46410c83p-6
station 3 7 6 0 6 0x1.572178daba28ep-6 0x1.e83b900d8d826p-26 0x1.541590ac9e7f6p-6 0x1.5af9d830b8998p-6
station 4 5 4 0 4 0x1.306c6fc2a50c7p-5 0x1.cb71000b9042dp-24 0x1.2db718e8b9c9cp-5 0x1.3330b0bdbe2a6p-5
station 5 3 2 0 2 0x1.ea6bf04962b84p-5 0x1.2466076833bb3p-25 0x1.e95a580ed4d56p-5 0x1.eb7d8883f09b1p-5
)"},
    {"fddi-16-jitter-poisson", R"(released=71 completed=68 misses=0 async=2926 losses=0 depth=1 events=2962
intervisit 0x1.489a61a8a39p-11
response 68 0x1.ceba9dd54ba85p-7 0x1.575d995b06fe3p-13 0x1.50b5fa0bdc995p-8 0x1.ec87dcc46132cp-5
normalized 68 0x1.b96fb0fd03afbp-1 0x1.fbf8e51f6ea73p-10 0x1.77cb195af3eb2p-1 0x1.e0fcad97c6eb9p-1
rotation 370 0x1.1b47b99ac6cd9p-11 0x1.5a52287bfaf39p-29 0x1.868e94898f024p-15 0x1.33f47736308p-11
station 0 26 26 0 26 0x1.796b64392cfb5p-8 0x1.c7a6442ee5f98p-25 0x1.50b5fa0bdc995p-8 0x1.8d8cddcbc026p-8
station 1 18 17 0 17 0x1.3660ac9a6c4fcp-7 0x1.624ba483d7412p-25 0x1.259bf220f26ebp-7 0x1.3faf86053206p-7
station 2 11 10 0 10 0x1.f9d60be40a073p-7 0x1.0cb544058aa98p-24 0x1.ea023dfd524cp-7 0x1.020ff9aa16fdp-6
station 3 8 8 0 8 0x1.55c1ff7dcf3bap-6 0x1.e1a1f975136b8p-25 0x1.4f1086e91f9c1p-6 0x1.5a55ecd7b3178p-6
station 4 5 4 0 4 0x1.307f8e9c7a3b7p-5 0x1.795034c6dc4a3p-24 0x1.2d35054aaf5aap-5 0x1.330f3eb7df474p-5
station 5 3 3 0 3 0x1.ea5a6b3ee2e8p-5 0x1.f721d11dbab31p-25 0x1.e8a7065a0aa61p-5 0x1.ec87dcc46132cp-5
)"},
    {"fddi-100-multi-dlp", R"(released=113 completed=104 misses=0 async=14401 losses=0 depth=1 events=5274
intervisit 0x1.555462ff1d3c2p-12
response 104 0x1.be489154a802fp-7 0x1.43e89b5349e57p-13 0x1.38701e8897bdp-8 0x1.0e8519e5d675cp-4
normalized 104 0x1.9548d102e5375p-1 0x1.506ceee5f591p-7 0x1.5a7dff0796471p-1 0x1.e0539a58d1e11p-1
rotation 659 0x1.dd19f5a99fc49p-13 0x1.544cfedd874cdp-33 0x1.98b91bd2288p-13 0x1.555462ff1d3c2p-12
station 0 45 42 0 42 0x1.0468556918754p-7 0x1.5f723f4163f45p-17 0x1.38701e8897bdp-8 0x1.a6b9eb39222f4p-7
station 1 14 12 0 12 0x1.f35498ad707b3p-6 0x1.a810575e0594ap-13 0x1.592d8298a6dp-6 0x1.e9c8f83382cf4p-5
station 2 41 39 0 39 0x1.23b1f7c0b8b2ap-7 0x1.bd1d504bbbe11p-17 0x1.5580affda5bap-8 0x1.cf9a93423fdcp-7
station 3 13 11 0 11 0x1.135ef431a0582p-5 0x1.1d92511c5f4dap-12 0x1.7b898b6b885p-6 0x1.0e8519e5d675cp-4
)"},
    {"fddi-100-multi-dlp-jitter", R"(released=90 completed=82 misses=0 async=17212 losses=0 depth=1 events=5344
intervisit 0x1.0a2062ed0a235p-12
response 82 0x1.7e2002e377ffap-7 0x1.9c5f687d3a875p-14 0x1.3302c8342cbfap-8 0x1.e301c1f75e87p-5
normalized 82 0x1.8ef693989651cp-1 0x1.48a9a9aa1f10fp-7 0x1.56a564035fa82p-1 0x1.d7afb76b924fdp-1
rotation 667 0x1.d70b6bc789e22p-13 0x1.65193ccf78e5ap-31 0x1.61e39a6893c8p-15 0x1.0a2062ed0a235p-12
station 0 31 29 0 29 0x1.b8adb1e803409p-8 0x1.94311c8230732p-18 0x1.3302c8342cbfap-8 0x1.4864b85e627d4p-7
station 1 13 11 0 11 0x1.0c1d301dec6fep-6 0x1.4681ff6a998fp-16 0x1.963f5499f1218p-7 0x1.5a0638814122ep-6
station 2 7 5 0 5 0x1.5199995802c1ep-5 0x1.12534d0a338b4p-12 0x1.dfee20f916634p-6 0x1.e301c1f75e87p-5
station 3 29 27 0 27 0x1.e470a884d12a7p-8 0x1.fc76c64aeb045p-18 0x1.520809962f24ap-8 0x1.691acfe524f7p-7
station 4 10 10 0 10 0x1.1fb2c4703c031p-6 0x1.766bd9ca3e558p-16 0x1.c5c51dc828ce8p-7 0x1.7adb02c2f1d9p-6
)"},
    {"fddi-16-overload", R"(released=59 completed=37 misses=53 async=13 losses=0 depth=7 events=1160
intervisit 0x1.2cda3d1a89e42p-10
response 37 0x1.317f5c030724fp-5 0x1.78be6cc0ce7afp-12 0x1.40a2421bac8a8p-7 0x1.8d8a026843b09p-4
normalized 37 0x1.8c505b8ec2074p+1 0x1.f6316b8d1049cp+0 0x1.64a18410d527fp+0 0x1.9353ece7c1d4dp+2
rotation 193 0x1.96d7101078869p-11 0x1.8d9af064a9fc1p-31 0x1.95d33e2d9d04p-11 0x1.2cda3d1a89e42p-10
station 0 22 16 21 16 0x1.b98a4a2b909a8p-6 0x1.f1f3c73f59ddep-14 0x1.40a2421bac8a8p-7 0x1.6961b9a4a57b2p-5
station 1 14 9 13 9 0x1.105e17588abb2p-5 0x1.3bd23e348661cp-13 0x1.f622e7012c1fap-7 0x1.a33374f0ca716p-5
station 2 9 5 8 5 0x1.54b543d06f226p-5 0x1.533755efb2049p-13 0x1.a1d77b39d49a4p-6 0x1.d87eca03f3f9cp-5
station 3 7 4 6 4 0x1.9f7ecff62002dp-5 0x1.ab69bfb8b2338p-13 0x1.179cb64ddec28p-5 0x1.13b074cf30a2ap-4
station 4 4 2 3 2 0x1.21cb644edbf5cp-4 0x1.b3585ffe5a14cp-13 0x1.f02118f75cda3p-5 0x1.4b863c22097e6p-4
station 5 3 1 2 1 0x1.8d8a026843b09p-4 0x0p+0 0x1.8d8a026843b09p-4 0x1.8d8a026843b09p-4
)"},
    {"fddi-4-overload-multi", R"(released=75 completed=52 misses=68 async=23 losses=0 depth=8 events=696
intervisit 0x1.8d3283d5f1a8p-10
response 52 0x1.0c3277679803cp-5 0x1.86f93b61bbd9ap-11 0x1.0f8b37274039ep-8 0x1.db9999735509fp-4
normalized 52 0x1.32bc1e3d8de93p+1 0x1.06f14e7768283p+1 0x1.2f0ff22060d2ep-1 0x1.cb07e5500cdbdp+2
rotation 139 0x1.78483d5a31203p-10 0x1.8010b89013fap-25 0x1.5c63b0c57daf8p-11 0x1.8d3283d5f1a8p-10
station 0 47 36 43 36 0x1.608245c672254p-6 0x1.9314530dd4609p-12 0x1.0f8b37274039ep-8 0x1.43285fe66f73dp-4
station 1 20 12 18 12 0x1.a303def5aa6a6p-5 0x1.e532a3eabe43ap-12 0x1.3e9307ae40899p-6 0x1.81f08b7120072p-4
station 2 8 4 7 4 0x1.419d1cb25ba4dp-4 0x1.b55163c0df4d9p-11 0x1.8c93fe2638b5cp-5 0x1.db9999735509fp-4
)"},
    {"fddi-100-streamless", R"(released=0 completed=0 misses=0 async=6304 losses=0 depth=0 events=664
intervisit 0x1.0c9a29069efa4p-10
response 0 0x0p+0 0x0p+0 inf -inf
normalized 0 0x0p+0 0x0p+0 inf -inf
rotation 41 0x1.f5c69b4d5960cp-11 0x1.3353d3a9cbfe7p-25 0x1.08668e2cd3c8p-13 0x1.0c9a29069efa4p-10
)"},
    {"fddi-100-nostats-sat", R"(released=113 completed=101 misses=0 async=14660 losses=0 depth=1 events=5722
intervisit 0x0p+0
response 101 0x1.ed26cabf53a5ep-7 0x1.704ea6fa069f8p-13 0x1.880c1639ef96p-8 0x1.14050b05a43a7p-4
normalized 101 0x1.d15fe9ca46bb1p-1 0x1.9657337f4aeb3p-11 0x1.b56ff603743bcp-1 0x1.ea204f31eba58p-1
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 22 21 0 21 0x1.92f61dddb6326p-8 0x1.e2aa3957e3825p-27 0x1.880c1639ef96p-8 0x1.a5461e40d0d78p-8
station 1 14 13 0 13 0x1.4585fc004661ep-7 0x1.8c6eb6f092f53p-32 0x1.44b3293336bdp-7 0x1.46ad67697a18p-7
station 2 9 8 0 8 0x1.0967e23d12e6bp-6 0x1.787326953c4d5p-27 0x1.069ab1e5badbcp-6 0x1.0b7c237ee5743p-6
station 3 7 6 0 6 0x1.617c68e70d7d6p-6 0x1.52dd85d53e591p-27 0x1.5f5a599da3cfp-6 0x1.63d236bffd27cp-6
station 4 4 3 0 3 0x1.3684e9d5b087ap-5 0x1.d61892b82e1c8p-28 0x1.35e7b46d0b45cp-5 0x1.373efd5e61806p-5
station 5 3 2 0 2 0x1.f513a8d4be21p-5 0x1.51f3c1ae37de7p-26 0x1.f443ac992ecbcp-5 0x1.f5e3a5104d765p-5
station 6 20 19 0 19 0x1.be19054761048p-8 0x1.a733551eba30bp-27 0x1.af236456f6738p-8 0x1.c6d0c1ecc681p-8
station 7 13 12 0 12 0x1.6f06fc8549c13p-7 0x1.a81bcec709696p-27 0x1.68b7baeeb461p-7 0x1.74d65cc8e157cp-7
station 8 8 7 0 7 0x1.23de93468fb71p-6 0x1.9315fe74b8ca7p-27 0x1.21093d6955498p-6 0x1.268c55ba2ee99p-6
station 9 6 5 0 5 0x1.8533254ed1863p-6 0x1.064711931790ep-26 0x1.8323da95b3824p-6 0x1.87f683b5becd1p-6
station 10 4 3 0 3 0x1.5562baa2d3d7p-5 0x1.1ac698d1220c5p-25 0x1.5482ec27a4f66p-5 0x1.571a116c9e78p-5
station 11 3 2 0 2 0x1.1352ee198e4a4p-4 0x1.efb0ee4c01dc3p-25 0x1.12a0d12d785a2p-4 0x1.14050b05a43a7p-4
)"},
    {"fddi-10-scripted", R"(released=39 completed=35 misses=13 async=1069 losses=1 depth=2 events=1181
intervisit 0x1.aedd8a03dd86cp-6
response 35 0x1.ab95573308dc8p-7 0x1.da3e3718073a3p-14 0x1.47f837d0e953p-8 0x1.703c49955d01ep-5
normalized 35 0x1.d9134c1280ccfp-1 0x1.ab665251e5p-6 0x1.6e0999b928fa5p-1 0x1.4ef5124ac7f0dp+0
rotation 197 0x1.3f1b6a7555fb8p-11 0x1.125e65fbbc06ap-24 0x1.5a1f95046b6p-13 0x1.de75d53a7dc2p-9
fault token_loss 1 0x1.64ece672e0b8cp-10 1
fault frame_corruption 2 0x1.05b97d64afb8p-13 1
fault noise_burst 1 0x1.b89b50688afcp-9 2
fault station_crash 2 0x1.3e5bfa5028p-12 5
fault station_rejoin 1 0x1.3e5bfa5028p-13 1
fault duplicate_token 1 0x1.3e5bfa5028p-13 3
outage 0x1.89374bc6a7efap-9 0x1.1dd6df800c26p-8 token_loss
outage 0x1.374bc6a7ef9dbp-7 0x1.395739a2b8fd1p-7 frame_corruption
outage 0x1.5810624dd2f1bp-6 0x1.8f23cc5ae4513p-6 noise_burst
outage 0x1.0e5604189374cp-5 0x1.0f946012e39ccp-5 duplicate_token
outage 0x1.47ae147ae147bp-5 0x1.48ec7075316fbp-5 station_crash
outage 0x1.a9fbe76c8b43ap-5 0x1.ab3a4366db6bap-5 station_crash
outage 0x1.0a3d70a3d70a4p-4 0x1.0adc9ea0ff1e4p-4 station_rejoin
outage 0x1.47ae147ae147bp-4 0x1.47ef82da3a73ap-4 frame_corruption
station 0 18 17 4 17 0x1.9c11f673b21c1p-8 0x1.c8a60d3f42ac8p-20 0x1.47f837d0e953p-8 0x1.2c1f2b03840bp-7
station 1 9 8 2 8 0x1.38c568a8a165fp-7 0x1.d8765f4c89069p-20 0x1.14ec6bbfe7038p-7 0x1.90d61398a00d2p-7
station 2 3 2 2 2 0x1.29532bd27258cp-6 0x1.10df4c8d2104ep-19 0x1.18ce58c0cb24dp-6 0x1.39d7fee4198cap-6
station 3 6 5 3 5 0x1.78ae85313a22ap-6 0x1.6a45347831f39p-17 0x1.3ea09047f2e6cp-6 0x1.b8cc68f29258fp-6
station 4 3 3 2 3 0x1.4db6170df9863p-5 0x1.40da17a9c3842p-16 0x1.28b6da3e7c5bap-5 0x1.703c49955d01ep-5
)"},
    {"fddi-100-scripted-none", R"(released=39 completed=39 misses=0 async=0 losses=1 depth=1 events=67118
intervisit 0x1.9a1cd5ffefb8ap-6
response 39 0x1.0d71190595d39p-9 0x1.ccfb20e975cf9p-19 0x1.4a38c9b13c88p-11 0x1.1b2d7733a5d96p-7
normalized 39 0x1.374453ac62ba3p-3 0x1.69711dc7e2a98p-7 0x1.708d17f5cefc6p-4 0x1.24f40b6746f47p-1
rotation 11186 0x1.67f613f6b9551p-17 0x1.654deecd64eb6p-31 0x1.b77697b43ap-18 0x1.469c7bb21a86p-9
fault token_loss 1 0x1.00de21eb1c54cp-11 0
fault frame_corruption 2 0x1.a2c2623ab34p-17 0
fault noise_burst 1 0x1.465c65a9e1b5p-9 0
fault station_crash 2 0x1.779127a35b8p-15 0
fault station_rejoin 1 0x1.779127a35bp-16 0
fault duplicate_token 1 0x1.779127a35b8p-16 0
outage 0x1.89374bc6a7efap-9 0x1.c96ed4416f04dp-9 token_loss
outage 0x1.374bc6a7ef9dbp-7 0x1.37801ef436f4p-7 frame_corruption
outage 0x1.5810624dd2f1bp-6 0x1.80dbef030f285p-6 noise_burst
outage 0x1.0e5604189374cp-5 0x1.0e84f63d87e03p-5 duplicate_token
outage 0x1.47ae147ae147bp-5 0x1.47dd069fd5b32p-5 station_crash
outage 0x1.a9fbe76c8b43ap-5 0x1.aa2ad9917faf1p-5 station_crash
outage 0x1.0a3d70a3d70a4p-4 0x1.0a54e9b6513ffp-4 station_rejoin
outage 0x1.47ae147ae147bp-4 0x1.47b49f846a328p-4 frame_corruption
station 0 18 18 0 18 0x1.1439a9f5adbdap-10 0x1.819e15e642f05p-21 0x1.4a38c9b13c88p-11 0x1.067c74b6a5f9cp-8
station 1 9 9 0 9 0x1.c47e22d80c62dp-10 0x1.982190f8c64e6p-20 0x1.0e72c9e4de04p-10 0x1.0a9caa4faad31p-8
station 2 3 3 0 3 0x1.9bda42068c5cap-9 0x1.2acc21ca42e1ap-18 0x1.bf9b585dada1p-10 0x1.6cb56f17abaabp-8
station 3 6 6 0 6 0x1.aaa2757a9702ap-9 0x1.8a5b8a4b27cfcp-19 0x1.1d0e82411196p-9 0x1.a8be23f82f912p-8
station 4 3 3 0 3 0x1.6d1a7313e2c71p-8 0x1.de34d3af06c62p-18 0x1.f2b97a27b7b4p-9 0x1.1b2d7733a5d96p-7
)"},
    {"fddi-100-all-down", R"(released=25 completed=17 misses=4 async=9218 losses=1 depth=1 events=18507
intervisit 0x1.4a3ce67cc61c3p-5
response 17 0x1.2614e5ae3cd97p-7 0x1.6dbd493d06e9p-16 0x1.5dd5c896a1e7p-8 0x1.421bff59f5e24p-6
normalized 17 0x1.ac1b13aa0618cp-1 0x1.8809a29ca44b8p-11 0x1.8670e2281dd66p-1 0x1.bdddb1329224ap-1
rotation 409 0x1.001f08dcdac24p-12 0x1.25e77b2810b42p-19 0x1.23bd390cbb8p-16 0x1.ececf77a6c68fp-6
fault token_loss 1 0x1.ac5782f1e3fcp-12 0
fault frame_corruption 1 0x1.a2c2623ab3p-18 0
fault station_crash 5 0x1.3f1fc8a0eca8p-14 4
fault station_rejoin 5 0x1.3f1fc8a0eccp-14 0
outage 0x1.47ae147ae147bp-7 0x1.482dbacb21a66p-7 station_crash
outage 0x1.89374bc6a7efap-7 0x1.89b6f216e84e5p-7 station_crash
outage 0x1.cac083126e979p-7 0x1.cb402962aef64p-7 station_crash
outage 0x1.0624dd2f1a9fcp-6 0x1.0664b0573acf2p-6 station_crash
outage 0x1.47ae147ae147bp-6 0x1.4e5f7286a8d7ap-6 token_loss
outage 0x1.999999999999ap-6 0x1.99b3c5bfbd44dp-6 frame_corruption
outage 0x1.26e978d4fdf3cp-5 0x1.270962690e0b7p-5 station_rejoin
outage 0x1.3f7ced916872bp-5 0x1.3f9cd725788a6p-5 station_rejoin
outage 0x1.47ae147ae147bp-5 0x1.47cdfe0ef15f6p-5 station_rejoin
outage 0x1.a9fbe76c8b43ap-5 0x1.aa1bd1009b5b5p-5 station_rejoin
outage 0x1.1eb851eb851ecp-4 0x1.1ec846b58d2a9p-4 station_crash
outage 0x1.3333333333334p-4 0x1.334327fd3b3f1p-4 station_rejoin
station 0 11 9 1 9 0x1.798ba22161248p-8 0x1.a424a0db9878fp-25 0x1.5dd5c896a1e7p-8 0x1.8f7ef4c8f5a1ep-8
station 1 7 5 1 5 0x1.332759a8f9153p-7 0x1.0be1fb628a835p-27 0x1.2eefd810f64ep-7 0x1.35fe2538a1b59p-7
station 2 3 1 1 1 0x1.ec9e0f677e73p-7 0x0p+0 0x1.ec9e0f677e73p-7 0x1.ec9e0f677e73p-7
station 3 4 2 1 2 0x1.3e0305d1de5bep-6 0x1.0ca3bfd7aa24ep-23 0x1.39ea0c49c6d58p-6 0x1.421bff59f5e24p-6
)"},
    {"fddi-100-faults", R"(released=113 completed=101 misses=4 async=14375 losses=3 depth=2 events=5638
intervisit 0x1.74302ad8d398p-10
response 101 0x1.f5fc05df328b6p-7 0x1.7d3e5b88b31fbp-13 0x1.88b3be96e6adp-8 0x1.1eda420c368d6p-4
normalized 101 0x1.d9d2eccf9a356p-1 0x1.baa2d355267d8p-10 0x1.b59bd08b3cd7fp-1 0x1.0a82e7d6a7ab7p+0
rotation 470 0x1.4e6d3292816cap-12 0x1.29a455848953ap-29 0x1.10d599b4cf88p-12 0x1.f07a2177c44p-11
fault token_loss 3 0x1.0c4a8613d63p-9 4
fault frame_corruption 2 0x1.a2c2623ab38p-17 0
outage 0x1.b630f10597055p-6 0x1.b64b1d2bbab08p-6 frame_corruption
outage 0x1.14e9086a2734p-4 0x1.14ef9373b01edp-4 frame_corruption
outage 0x1.2d61dd763760ap-4 0x1.302d4edbc19bdp-4 token_loss
outage 0x1.41b38ba04dbcbp-4 0x1.447efd05d7f7ep-4 token_loss
outage 0x1.0e8f34e359e49p-3 0x1.0ff4ed961f022p-3 token_loss
station 0 22 21 0 21 0x1.99d26b76f4363p-8 0x1.2eaa30e95656ep-24 0x1.88b3be96e6adp-8 0x1.c617d270e87bp-8
station 1 14 13 0 13 0x1.4abaf2d88f4c3p-7 0x1.965839953fef4p-24 0x1.4443af062a3f8p-7 0x1.5e4fdfe4237p-7
station 2 9 8 1 8 0x1.0eeb469297835p-6 0x1.24194f7fe58f8p-22 0x1.07e60be4c710cp-6 0x1.202b65f56c538p-6
station 3 7 6 1 6 0x1.67da48a341fecp-6 0x1.94d17d6b23083p-22 0x1.602b548ced728p-6 0x1.7905546118b88p-6
station 4 4 3 0 3 0x1.3b2ce7495802ep-5 0x1.feda2679991b8p-21 0x1.35e4046a9c266p-5 0x1.445e4cf740b86p-5
station 5 3 2 0 2 0x1.fb6bef70de9ffp-5 0x1.e5fcc4b68aaf8p-21 0x1.f5e90c2c171fep-5 0x1.0077695ad31p-4
station 6 20 19 0 19 0x1.c5ab0275d1ce2p-8 0x1.43a94b74df872p-24 0x1.af4e9d3543cp-8 0x1.ee4678afaa31p-8
station 7 13 12 2 12 0x1.77985045bcafdp-7 0x1.f7b1b6037ad5dp-23 0x1.67e53d0f1c4c8p-7 0x1.9cc5d4d821968p-7
station 8 8 7 0 7 0x1.2a9c4b162e329p-6 0x1.9234d0ed8bb98p-23 0x1.239d8a9ea74c6p-6 0x1.343478e5a4d88p-6
station 9 6 5 0 5 0x1.8a868cd6cbd4ep-6 0x1.ca31958d42bbap-23 0x1.8298d4c5d5e7p-6 0x1.94c78f993ac9p-6
station 10 4 3 0 3 0x1.5a763463886e9p-5 0x1.16faad957c36dp-20 0x1.544bdcda1b2a2p-5 0x1.63f747c816p-5
station 11 3 2 0 2 0x1.1971004fdfce5p-4 0x1.d47d858c3cdf8p-19 0x1.1407be93890f4p-4 0x1.1eda420c368d6p-4
)"},
    {"fddi-4-faults-none", R"(released=91 completed=88 misses=2 async=0 losses=6 depth=1 events=6031
intervisit 0x1.01b61e9826cb8p-6
response 88 0x1.4f0e756c6589fp-8 0x1.accf0ea0ead1p-16 0x1.15e6927e5e28p-10 0x1.b8754328f27bfp-6
normalized 88 0x1.361e1cb5a916dp-2 0x1.6138c732466d6p-7 0x1.362831362da81p-3 0x1.537a91a3f150ap-1
rotation 949 0x1.13fd476bf1e05p-12 0x1.28f757e35f7f7p-22 0x1.f0aee8ee6a8p-14 0x1.fa3cac0e713fp-7
fault token_loss 6 0x1.b2eb3f6c1f928p-7 0
fault frame_corruption 8 0x1.1e42e126201cp-10 0
fault station_crash 5 0x1.e1b2655c52d4p-10 2
fault station_rejoin 5 0x1.e1b2655c52d4p-10 0
fault duplicate_token 3 0x1.2104a33764dcp-10 0
outage 0x1.cae6eecd6916ep-7 0x1.09b1bcafb72d1p-6 token_loss
outage 0x1.d02a1dfc7624fp-6 0x1.f468634578c69p-6 token_loss
outage 0x1.026b02e60ac26p-5 0x1.056db9ee9e7ap-5 duplicate_token
outage 0x1.576bb0db40f06p-5 0x1.5a6e67e3d4a8p-5 duplicate_token
outage 0x1.5e0f278c7b90fp-5 0x1.6111de950f489p-5 station_crash
outage 0x1.d4520f14e7b9fp-5 0x1.d59936f1a5959p-5 frame_corruption
outage 0x1.d8f06f3a900bdp-5 0x1.dbf3264323c37p-5 station_rejoin
outage 0x1.6595b6749a78ep-4 0x1.66394a62f966bp-4 frame_corruption
outage 0x1.ae4b1a3652153p-4 0x1.b75aab8892bd9p-4 token_loss
outage 0x1.c9bc9995387f6p-4 0x1.ca602d83976d3p-4 frame_corruption
outage 0x1.e3313ce53abcbp-4 0x1.e4b2986984988p-4 duplicate_token
outage 0x1.219088ac9564bp-3 0x1.26185155b5b8ep-3 token_loss
outage 0x1.35965715dbbffp-3 0x1.35e8210d0b36dp-3 frame_corruption
outage 0x1.40af97c72c0dp-3 0x1.4170458950fafp-3 station_crash
outage 0x1.47b30653a6c9ap-3 0x1.4804d04ad6408p-3 frame_corruption
outage 0x1.4e40a0e2ac98ap-3 0x1.52c8698bccecdp-3 token_loss
outage 0x1.5f67e9b2b12bcp-3 0x1.60289774d619bp-3 station_rejoin
outage 0x1.9155b29b987edp-3 0x1.9216605dbd6ccp-3 station_crash
outage 0x1.9609c92bcbb8ap-3 0x1.965b9322fb2f8p-3 frame_corruption
outage 0x1.981437804728dp-3 0x1.98d4e5426c16cp-3 station_crash
outage 0x1.99eace2fdb88p-3 0x1.9e7296d8fbdc3p-3 token_loss
outage 0x1.b00e04871d9d8p-3 0x1.b0ceb249428b7p-3 station_rejoin
outage 0x1.b6cc896bcc478p-3 0x1.b78d372df1357p-3 station_rejoin
outage 0x1.c0a7ad92b2ddfp-3 0x1.c0f97789e254dp-3 frame_corruption
outage 0x1.c1cc51512228p-3 0x1.c28cff134715fp-3 station_crash
outage 0x1.e084a33ca746cp-3 0x1.e14550fecc34bp-3 station_rejoin
station 0 34 34 0 34 0x1.1000d44b0877cp-9 0x1.a1241f78f0704p-21 0x1.15e6927e5e28p-10 0x1.302c4926593ep-8
station 1 22 21 1 21 0x1.9e116ee135bp-9 0x1.01912a4ca59a4p-20 0x1.e568c6f9dd8p-10 0x1.77a641c3d4d3cp-8
station 2 13 12 1 12 0x1.5e4649472e738p-8 0x1.a7f6e54d53ef6p-19 0x1.a2b2e7f5e1afp-9 0x1.2c4baacdfd88p-7
station 3 11 11 0 11 0x1.e0beae11973ap-8 0x1.2a350e6dcfe94p-18 0x1.3fb3c15c0f8fp-8 0x1.6169708d0796p-7
station 4 7 6 0 6 0x1.ae8295412847dp-7 0x1.36675f6a14a5ep-17 0x1.62061c0e6559p-7 0x1.3196ebabf9e01p-6
station 5 4 4 0 4 0x1.6df974ee51371p-6 0x1.5e6caf3c09c3bp-17 0x1.3ba555ab50694p-6 0x1.b8754328f27bfp-6
)"},
    {"fddi-16-faults-poisson", R"(released=116 completed=114 misses=0 async=620 losses=2 depth=1 events=18292
intervisit 0x1.f1530a980fdap-7
response 114 0x1.70f065068dfb5p-9 0x1.ee5ffb13ded3ap-18 0x1.ae9346f0233p-11 0x1.0b70983b6430cp-6
normalized 114 0x1.9b7ec00221dcp-3 0x1.1349f12d5ef43p-8 0x1.bc9a0dea7df34p-4 0x1.051b397f66bd2p-1
rotation 2000 0x1.a36e0bba869f8p-14 0x1.f6a0d39f95ff4p-24 0x1.868e94898dp-15 0x1.f1530a980fdap-7
fault token_loss 2 0x1.424647fc0f5p-9 0
fault frame_corruption 6 0x1.eabbcb1cc968p-13 0
fault station_crash 2 0x1.0dd95aea31p-12 0
fault station_rejoin 2 0x1.0dd95aea31p-12 0
fault duplicate_token 3 0x1.94c6085f49aap-12 0
outage 0x1.829e81bfab90ep-8 0x1.d33013beaf64ep-8 token_loss
outage 0x1.e979946181012p-7 0x1.edb0f9cd29c59p-7 duplicate_token
outage 0x1.5fc65808d36dap-6 0x1.61e20abea7cfdp-6 duplicate_token
outage 0x1.f25610f33c45cp-6 0x1.f2f9a4e19b339p-6 frame_corruption
outage 0x1.3c5af6bdb0adcp-5 0x1.3cacc0b4e024ap-5 frame_corruption
outage 0x1.1cee1fbb705f8p-4 0x1.1d1704b7081afp-4 frame_corruption
outage 0x1.3bbf29927d75fp-4 0x1.3be80e8e15316p-4 frame_corruption
outage 0x1.4dfeff3ab1c82p-4 0x1.4e27e43649839p-4 frame_corruption
outage 0x1.abb97276cb808p-4 0x1.ac405f2440991p-4 duplicate_token
outage 0x1.096ace914b8a6p-3 0x1.0bef5b2143a9p-3 token_loss
outage 0x1.3942978deb6d2p-3 0x1.39570a0bb74aep-3 frame_corruption
outage 0x1.5f4eb24b5058bp-3 0x1.5f9228a20ae4fp-3 station_crash
outage 0x1.60d168767ff39p-3 0x1.6114decd3a7fdp-3 station_crash
outage 0x1.7e070436d5776p-3 0x1.7e4a7a8d9003ap-3 station_rejoin
outage 0x1.7f89ba6205124p-3 0x1.7fcd30b8bf9e8p-3 station_rejoin
station 0 25 25 0 25 0x1.753012a058302p-10 0x1.2183514848f93p-22 0x1.ae9346f0233p-11 0x1.d3e70ef8c87dep-9
station 1 18 18 0 18 0x1.1e858e904e866p-9 0x1.1ab4eb5910c02p-21 0x1.6c28f5d4e7e8p-10 0x1.34963c8aa60cap-8
station 2 12 12 0 12 0x1.e48c8105718a7p-9 0x1.9a68325de92f4p-20 0x1.07d2471e3fap-9 0x1.9a4d678b8cd38p-8
station 3 9 9 0 9 0x1.39f14b43a48fbp-8 0x1.65bf52b775eb6p-19 0x1.b0bac86f61ddp-9 0x1.06f8bb9e8b33ap-7
station 4 5 4 0 4 0x1.1a552034cc42fp-7 0x1.3e75e25ad2b75p-18 0x1.d6aaaa49309cp-8 0x1.84a0a22acefa8p-7
station 5 4 3 0 3 0x1.ee779188105bfp-7 0x1.124e3489b629p-18 0x1.a202e3667242p-7 0x1.0b70983b6430cp-6
station 6 26 26 0 26 0x1.776d09504eed7p-10 0x1.edbc6c506afc5p-24 0x1.cb602f122d6p-11 0x1.16131e078bbp-9
station 7 17 17 0 17 0x1.3ffcf711b42bdp-9 0x1.f3ca4758cca67p-21 0x1.584cb3882p-10 0x1.606f7d3cea9e2p-8
)"},
    {"fddi-622-rand-faults", R"(released=53 completed=46 misses=0 async=62796 losses=0 depth=1 events=4270
intervisit 0x1.a3a3bb9dc1dp-12
response 46 0x1.a5486e862d51dp-7 0x1.b28ffe04fa04ap-14 0x1.85eb1b4cfc8c8p-8 0x1.e5529bc830774p-5
normalized 46 0x1.ca67a9357ec52p-1 0x1.a19310b66d36ep-12 0x1.b32d40c159dcdp-1 0x1.daf2db3df23cap-1
rotation 427 0x1.8874ec27f4831p-13 0x1.85f4905d2aac9p-30 0x1.53baa4e307bp-16 0x1.faa2082e244p-13
fault frame_corruption 2 0x1.0d4c708f1e4p-19 0
fault station_crash 1 0x1.1ee9fb0668p-16 0
outage 0x1.365624a2110c9p-11 0x1.36dccada589adp-11 frame_corruption
outage 0x1.446a6f32d6884p-5 0x1.446c89cbb7a68p-5 frame_corruption
outage 0x1.203bb9bc2fdb6p-4 0x1.204da85be041ep-4 station_crash
station 0 12 11 0 11 0x1.8f63e55537d51p-8 0x1.7dea872340c48p-28 0x1.85eb1b4cfc8c8p-8 0x1.958d063dfdebcp-8
station 1 7 6 0 6 0x1.426f8b6e53fa8p-7 0x1.8e0e778c20c3ap-29 0x1.403b722349ef6p-7 0x1.442faea09e3b4p-7
station 2 5 4 0 4 0x1.04d9c101ac539p-6 0x1.d378adbddcdd3p-27 0x1.0275c20958cfbp-6 0x1.06c09cc45786p-6
station 3 3 2 0 2 0x1.5a66a69ec911ep-6 0x1.22d974d87ee85p-28 0x1.59a5b4110bc28p-6 0x1.5b27992c86614p-6
station 4 2 2 0 2 0x1.2d74d666b27cdp-5 0x1.be8ad1c07ca3dp-26 0x1.2c85c2e78f12dp-5 0x1.2e63e9e5d5e6dp-5
station 5 1 1 0 1 0x1.e5529bc830774p-5 0x0p+0 0x1.e5529bc830774p-5 0x1.e5529bc830774p-5
station 6 10 9 0 9 0x1.bf4c9242ea2fap-8 0x1.93f2b29f3ae7ep-27 0x1.b0a7d55ce3f16p-8 0x1.caeded98925e8p-8
station 7 6 6 0 6 0x1.67ad33ee55e6ap-7 0x1.ee3416b24846ep-28 0x1.6429a1e735bdcp-7 0x1.6ad25c0614a24p-7
station 8 4 3 0 3 0x1.2013b0bbee4d5p-6 0x1.55eb6fa3100d2p-27 0x1.1e47d6edd547p-6 0x1.2179ef566850cp-6
station 9 3 2 0 2 0x1.7cc25dc9f9837p-6 0x1.c435503734492p-24 0x1.79000386a961ep-6 0x1.8084b80d49a5p-6
)"},
    {"fddi-16-jitter-faults", R"(released=66 completed=58 misses=10 async=3034 losses=4 depth=2 events=3100
intervisit 0x1.1b1e191292e74p-6
response 58 0x1.80d32626aaa3ap-7 0x1.e74a29a45a2fp-14 0x1.fe80d3afc014p-9 0x1.174e3b662127p-4
normalized 58 0x1.8ba377e12855ap-1 0x1.af2ca6a75d684p-6 0x1.1ce1086a132fcp-1 0x1.32621703ff676p+0
rotation 391 0x1.0be4150889616p-11 0x1.5014435392ec4p-26 0x1.2b07e5584bcp-13 0x1.0b0569c8bbedp-9
fault token_loss 4 0x1.22ad082d280dfp-8 2
fault frame_corruption 7 0x1.1e42e1262053p-12 0
fault noise_burst 2 0x1.a5bf76c4b55d8p-9 0
fault station_crash 4 0x1.0dd95aea311fp-11 4
fault station_rejoin 4 0x1.0dd95aea310ep-11 3
fault duplicate_token 1 0x1.0dd95aea312p-13 1
outage 0x1.883b552772d2p-13 0x1.53b472d21668p-10 token_loss
outage 0x1.646022bb10fc7p-10 0x1.6e9961a0ffd93p-10 frame_corruption
outage 0x1.7d1632483f478p-8 0x1.e6860ff96c9eep-8 noise_burst
outage 0x1.014c73964e9fp-7 0x1.3604626ee54abp-7 noise_burst
outage 0x1.8a4343a610a82p-7 0x1.8e7aa911b96c9p-7 station_crash
outage 0x1.1b7653cfeea12p-6 0x1.2da12452c122p-6 token_loss
outage 0x1.bae4312f3149dp-6 0x1.bcffe3e505acp-6 station_rejoin
outage 0x1.59494d199de49p-5 0x1.5a5726748815bp-5 duplicate_token
outage 0x1.8c27bf6bb84d4p-4 0x1.8c50a4675008bp-4 frame_corruption
outage 0x1.a53d4d69ff3a2p-4 0x1.a566326596f59p-4 frame_corruption
outage 0x1.ab28c28b2a80bp-4 0x1.abafaf389f994p-4 station_crash
outage 0x1.c22d01b265011p-4 0x1.c2b3ee5fda19ap-4 station_crash
outage 0x1.c456543604027p-4 0x1.c4dd40e3791bp-4 station_crash
outage 0x1.e899666234be2p-4 0x1.e920530fa9d6bp-4 station_rejoin
outage 0x1.e9d2f5f17bf16p-4 0x1.ee5daa1230919p-4 token_loss
outage 0x1.ff9da5896f3e8p-4 0x1.0012491b722b8p-3 station_rejoin
outage 0x1.00e37c06871ffp-3 0x1.0126f25d41ac3p-3 station_rejoin
outage 0x1.0c0b47a166f4p-3 0x1.0e50a1b1c1442p-3 token_loss
outage 0x1.401aab45a54cep-3 0x1.402f1dc3712aap-3 frame_corruption
outage 0x1.463f44c09d1e1p-3 0x1.4653b73e68fbdp-3 frame_corruption
outage 0x1.4be87e20db1b6p-3 0x1.4bfcf09ea6f92p-3 frame_corruption
outage 0x1.531dab7f7c98dp-3 0x1.53321dfd48769p-3 frame_corruption
station 0 25 24 1 24 0x1.1e5bb81a973e4p-8 0x1.8acc01e9ce8eep-23 0x1.fe80d3afc014p-9 0x1.81fba2091102ap-8
station 1 16 15 3 15 0x1.542e04e7c0995p-7 0x1.92a8210c18502p-20 0x1.31af283c3f46p-7 0x1.af6332d686542p-7
station 2 10 9 2 9 0x1.ad403c28293dap-7 0x1.627583b8cf809p-21 0x1.918a7f0ffa84p-7 0x1.dfe853baecafp-7
station 3 7 5 1 5 0x1.659b6f38dd821p-6 0x1.52ee34e4ae846p-25 0x1.5fec198a50f1cp-6 0x1.6821021ab4332p-6
station 4 5 4 1 4 0x1.00b11691c25b4p-5 0x1.14a1e58f39ce5p-18 0x1.e84d299cdaf5p-6 0x1.1742d8d84bdcp-5
station 5 3 1 2 1 0x1.174e3b662127p-4 0x0p+0 0x1.174e3b662127p-4 0x1.174e3b662127p-4
)"},
    {"fddi-100-hibernate-256", R"(released=19 completed=19 misses=0 async=0 losses=0 depth=1 events=117248
intervisit 0x0p+0
response 19 0x1.167cd23bb0bc6p-7 0x1.915f47bc792a3p-21 0x1.df14db93b0dp-8 0x1.4562a815c452dp-7
normalized 19 0x1.30be79073066ep-5 0x1.df36569a864fbp-22 0x1.286683021b883p-5 0x1.3c086f6cb23dp-5
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 5 5 0 5 0x1.e524d449a91d3p-8 0x1.bf1b9428654efp-27 0x1.df14db93b0dp-8 0x1.f1f67aed3124p-8
station 64 5 5 0 5 0x1.0ed2ecf5b88c9p-7 0x1.829b385d98191p-26 0x1.08fee98385e8p-7 0x1.161be72c73e3cp-7
station 128 5 5 0 5 0x1.20fff12272a7fp-7 0x1.92980a203211bp-26 0x1.1c8b5f0c4364p-7 0x1.28c44d14160fdp-7
station 192 4 4 0 4 0x1.3fd24c4f47cabp-7 0x1.62126d6f1944bp-26 0x1.3a41f08882ep-7 0x1.4562a815c452dp-7
)"},
    {"fddi-100-hibernate-1024", R"(released=19 completed=19 misses=0 async=0 losses=0 depth=1 events=227328
intervisit 0x0p+0
response 19 0x1.fe5564d054a25p-7 0x1.89733e9782614p-19 0x1.9e467d1805fcp-7 0x1.255f5cbd8d7a1p-6
normalized 19 0x1.170eaa2040b8dp-4 0x1.9f77375c16613p-18 0x1.02ec0e2f03bd8p-4 0x1.27d172699537bp-4
rotation 0 0x0p+0 0x0p+0 inf -inf
station 0 5 5 0 5 0x1.ad64e316e2593p-7 0x1.3f3028e54fa46p-23 0x1.9e467d1805fcp-7 0x1.bedd49f2c806fp-7
station 256 5 5 0 5 0x1.fd03eb15315c7p-7 0x1.12db8bbdd7504p-23 0x1.efca39b1252cp-7 0x1.0451e9cd8d8d3p-6
station 512 5 5 0 5 0x1.0e355c15b6413p-6 0x1.bb826db1a5d7ap-23 0x1.0606053dabp-6 0x1.171405004fe28p-6
station 768 4 4 0 4 0x1.1fc69b7818de8p-6 0x1.733c6d03054bdp-24 0x1.1a2dda325796p-6 0x1.255f5cbd8d7a1p-6
)"},
};

const char kGoldenStorm[] =
    R"(simulation exceeded the max-event guard (5000 events) at t=0.133263 s with 1 events still queued; a model bug or fault scenario is scheduling an event storm)";

const Golden kGoldenTraces[] = {
    {"fddi-1-trace", R"({"at_s":0,"kind":"token_arrival","station":0,"earliness_s":0.001483354237754943}
{"at_s":0,"kind":"async_frame","station":0,"frame_time_s":0.001872}
{"at_s":0.00032689050425386174,"kind":"message_arrival","station":1,"payload_bits":1649.9999999999998}
{"at_s":0.0019474447521269308,"kind":"token_arrival","station":1,"earliness_s":0}
{"at_s":0.002409889504253862,"kind":"token_arrival","station":2,"earliness_s":0}
{"at_s":0.00016344575212693085,"kind":"message_arrival","station":0,"payload_bits":1050}
{"at_s":0.002573334256380793,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.0031107790085077238,"kind":"token_arrival","station":1,"earliness_s":0}
{"at_s":0.0035732237606346546,"kind":"token_arrival","station":2,"earliness_s":0}
{"at_s":0.0037366685127615856,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.004274113264888517,"kind":"token_arrival","station":1,"earliness_s":0.00017594944837631167}
{"at_s":0.004274113264888517,"kind":"async_frame","station":1,"frame_time_s":0.000624}
{"at_s":0.005360558017015448,"kind":"token_arrival","station":2,"earliness_s":0}
{"at_s":0.005524002769142378,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.005986002769142378,"kind":"message_complete","station":0,"response_time_s":0.005822557017015447}
{"at_s":0.006061447521269309,"kind":"token_arrival","station":1,"earliness_s":0}
{"at_s":0.0065238922733962396,"kind":"token_arrival","station":2,"earliness_s":0}
{"at_s":0.00668733702552317,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.006762781777650101,"kind":"token_arrival","station":1,"earliness_s":0.0004780399627483025}
{"at_s":0.006762781777650101,"kind":"async_frame","station":1,"frame_time_s":0.000624}
{"at_s":0.007849226529777032,"kind":"token_arrival","station":2,"earliness_s":0}
{"at_s":0.007163445752126931,"kind":"message_arrival","station":0,"payload_bits":1050}
{"at_s":0.008012671281903963,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.008550116034030893,"kind":"token_arrival","station":1,"earliness_s":0}
{"at_s":0.008937116034030893,"kind":"message_complete","station":1,"response_time_s":0.00861022552977703}
{"at_s":0.009012560786157824,"kind":"token_arrival","station":2,"earliness_s":0}
{"at_s":0.009176005538284755,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.009713450290411686,"kind":"token_arrival","station":1,"earliness_s":1.6039962748301897e-05}
{"at_s":0.009713450290411686,"kind":"async_frame","station":1,"frame_time_s":0.000624}
{"at_s":0.010412895042538617,"kind":"token_arrival","station":2,"earliness_s":0}
{"at_s":0.010576339794665547,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.011038339794665548,"kind":"message_complete","station":0,"response_time_s":0.003874894042538617}
{"at_s":0.011113784546792477,"kind":"token_arrival","station":1,"earliness_s":8.301998137415223e-05}
{"at_s":0.011113784546792477,"kind":"async_frame","station":1,"frame_time_s":0.000624}
{"at_s":0.011813229298919408,"kind":"token_arrival","station":2,"earliness_s":5.3604603120137664e-05}
{"at_s":0.011813229298919408,"kind":"async_frame","station":2,"frame_time_s":0.000624}
{"at_s":0.012600674051046338,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.011326890504253862,"kind":"message_arrival","station":1,"payload_bits":1649.9999999999998}
{"at_s":0.01267611880317327,"kind":"token_arrival","station":1,"earliness_s":0}
{"at_s":0.0131385635553002,"kind":"token_arrival","station":2,"earliness_s":0.0001580199813741509}
{"at_s":0.0131385635553002,"kind":"async_frame","station":2,"frame_time_s":0.000624}
{"at_s":0.01392600830742713,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.014001453059554062,"kind":"token_arrival","station":1,"earliness_s":7.903996274830245e-05}
{"at_s":0.014001453059554062,"kind":"async_frame","station":1,"frame_time_s":0.000624}
{"at_s":0.015087897811680993,"kind":"token_arrival","station":2,"earliness_s":0}
{"at_s":0.01416344575212693,"kind":"message_arrival","station":0,"payload_bits":1050}
{"at_s":0.015251342563807923,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.015788787315934853,"kind":"token_arrival","station":1,"earliness_s":0}
{"at_s":0.016251232068061783,"kind":"token_arrival","station":2,"earliness_s":0}
{"at_s":0.016414676820188715,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.016952121572315647,"kind":"token_arrival","station":1,"earliness_s":1.6039962748300163e-05}
{"at_s":0.016952121572315647,"kind":"async_frame","station":1,"frame_time_s":0.000624}
{"at_s":0.018038566324442576,"kind":"token_arrival","station":2,"earliness_s":0}
{"at_s":0.018202011076569508,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.01866401107656951,"kind":"message_complete","station":0,"response_time_s":0.0045005653244425785}
{"at_s":0.01873945582869644,"kind":"token_arrival","station":1,"earliness_s":0}
{"at_s":0.01920190058082337,"kind":"token_arrival","station":2,"earliness_s":0}
{"at_s":0.019365345332950302,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.019440790085077233,"kind":"token_arrival","station":1,"earliness_s":0.00047803996274830077}
{"at_s":0.01982779008507723,"kind":"message_complete","station":1,"response_time_s":0.00850089958082337}
{"at_s":0.019440790085077233,"kind":"async_frame","station":1,"frame_time_s":0.000624}
)"},
    {"fddi-4-trace", R"({"at_s":0,"kind":"token_arrival","station":0,"earliness_s":0.0008315365653740456}
{"at_s":1.919475212693087e-05,"kind":"token_arrival","station":1,"earliness_s":0.0008123418132471147}
{"at_s":3.838950425386174e-05,"kind":"token_arrival","station":2,"earliness_s":0.0007931470611201838}
{"at_s":5.758425638079261e-05,"kind":"token_arrival","station":3,"earliness_s":0.0007739523089932529}
{"at_s":9.877900850772348e-05,"kind":"token_arrival","station":0,"earliness_s":0.000732757556866322}
{"at_s":0.00011797376063465435,"kind":"token_arrival","station":1,"earliness_s":0.000732757556866322}
{"at_s":0.0001371685127615852,"kind":"token_arrival","station":2,"earliness_s":0.000732757556866322}
{"at_s":0.0001563632648885161,"kind":"token_arrival","station":3,"earliness_s":0.000732757556866322}
{"at_s":0.00019755801701544696,"kind":"token_arrival","station":0,"earliness_s":0.000732757556866322}
{"at_s":0.00021675276914237784,"kind":"token_arrival","station":1,"earliness_s":0.000732757556866322}
{"at_s":0.00023594752126930872,"kind":"token_arrival","station":2,"earliness_s":0.000732757556866322}
{"at_s":0.0002551422733962396,"kind":"token_arrival","station":3,"earliness_s":0.000732757556866322}
{"at_s":0.00029633702552317047,"kind":"token_arrival","station":0,"earliness_s":0.000732757556866322}
{"at_s":0.00029633702552317047,"kind":"async_frame","station":0,"frame_time_s":0.000156}
{"at_s":0.00047153177765010135,"kind":"token_arrival","station":1,"earliness_s":0.0005767575568663222}
{"at_s":0.0004907265297770322,"kind":"token_arrival","station":2,"earliness_s":0.000576757556866322}
{"at_s":0.000509921281903963,"kind":"token_arrival","station":3,"earliness_s":0.0005767575568663222}
{"at_s":0.0005511160340308939,"kind":"token_arrival","station":0,"earliness_s":0.0005767575568663222}
{"at_s":0.0005703107861578248,"kind":"token_arrival","station":1,"earliness_s":0.0007327575568663222}
{"at_s":0.0005703107861578248,"kind":"async_frame","station":1,"frame_time_s":0.000156}
{"at_s":0.0007455055382847557,"kind":"token_arrival","station":2,"earliness_s":0.000576757556866322}
{"at_s":0.0007455055382847557,"kind":"async_frame","station":2,"frame_time_s":0.000312}
{"at_s":0.0010767002904116865,"kind":"token_arrival","station":3,"earliness_s":0.00026475755686632195}
{"at_s":0.0011178950425386174,"kind":"token_arrival","station":0,"earliness_s":0.00026475755686632216}
{"at_s":0.0011178950425386174,"kind":"async_frame","station":0,"frame_time_s":0.000156}
{"at_s":0.0012930897946655483,"kind":"token_arrival","station":1,"earliness_s":0.00010875755686632206}
{"at_s":0.001312284546792479,"kind":"token_arrival","station":2,"earliness_s":0.00026475755686632216}
{"at_s":0.001312284546792479,"kind":"async_frame","station":2,"frame_time_s":0.000156}
{"at_s":0.00148747929891941,"kind":"token_arrival","station":3,"earliness_s":0.00042075755686632205}
{"at_s":0.00148747929891941,"kind":"async_frame","station":3,"frame_time_s":0.000156}
{"at_s":0.001684674051046341,"kind":"token_arrival","station":0,"earliness_s":0.00026475755686632216}
{"at_s":0.0017038688031732717,"kind":"token_arrival","station":1,"earliness_s":0.00042075755686632205}
{"at_s":0.0017230635553002025,"kind":"token_arrival","station":2,"earliness_s":0.00042075755686632205}
{"at_s":0.0017422583074271332,"kind":"token_arrival","station":3,"earliness_s":0.0005767575568663224}
{"at_s":0.001783453059554064,"kind":"token_arrival","station":0,"earliness_s":0.0007327575568663225}
{"at_s":0.0018026478116809949,"kind":"token_arrival","station":1,"earliness_s":0.0007327575568663225}
{"at_s":0.0018218425638079256,"kind":"token_arrival","station":2,"earliness_s":0.0007327575568663225}
{"at_s":0.0018218425638079256,"kind":"async_frame","station":2,"frame_time_s":0.000156}
{"at_s":0.0019970373159348565,"kind":"token_arrival","station":3,"earliness_s":0.0005767575568663224}
{"at_s":0.002038232068061787,"kind":"token_arrival","station":0,"earliness_s":0.0005767575568663224}
{"at_s":0.002038232068061787,"kind":"async_frame","station":0,"frame_time_s":0.000312}
{"at_s":0.002369426820188718,"kind":"token_arrival","station":1,"earliness_s":0.00026475755686632216}
{"at_s":0.002369426820188718,"kind":"async_frame","station":1,"frame_time_s":0.000156}
{"at_s":0.0025446215723156492,"kind":"token_arrival","station":2,"earliness_s":0.00010875755686632184}
{"at_s":0.0025446215723156492,"kind":"async_frame","station":2,"frame_time_s":0.000156}
{"at_s":0.0027198163244425803,"kind":"token_arrival","station":3,"earliness_s":0.00010875755686632184}
{"at_s":0.002761011076569511,"kind":"token_arrival","station":0,"earliness_s":0.00010875755686632184}
{"at_s":0.002761011076569511,"kind":"async_frame","station":0,"frame_time_s":0.000156}
{"at_s":0.002936205828696442,"kind":"token_arrival","station":1,"earliness_s":0.00026475755686632173}
{"at_s":0.002955400580823373,"kind":"token_arrival","station":2,"earliness_s":0.00042075755686632205}
{"at_s":0.0029745953329503036,"kind":"token_arrival","station":3,"earliness_s":0.0005767575568663224}
{"at_s":0.0030157900850772343,"kind":"token_arrival","station":0,"earliness_s":0.0005767575568663224}
{"at_s":0.0030157900850772343,"kind":"async_frame","station":0,"frame_time_s":0.000156}
{"at_s":0.0031909848372041654,"kind":"token_arrival","station":1,"earliness_s":0.0005767575568663224}
{"at_s":0.003210179589331096,"kind":"token_arrival","station":2,"earliness_s":0.0005767575568663224}
{"at_s":0.003229374341458027,"kind":"token_arrival","station":3,"earliness_s":0.0005767575568663224}
{"at_s":0.0032705690935849576,"kind":"token_arrival","station":0,"earliness_s":0.0005767575568663224}
{"at_s":0.0032897638457118883,"kind":"token_arrival","station":1,"earliness_s":0.0007327575568663223}
{"at_s":0.003308958597838819,"kind":"token_arrival","station":2,"earliness_s":0.0007327575568663227}
{"at_s":0.00332815334996575,"kind":"token_arrival","station":3,"earliness_s":0.0007327575568663223}
{"at_s":0.003369348102092681,"kind":"token_arrival","station":0,"earliness_s":0.0007327575568663218}
{"at_s":0.0033885428542196117,"kind":"token_arrival","station":1,"earliness_s":0.0007327575568663223}
{"at_s":0.0034077376063465425,"kind":"token_arrival","station":2,"earliness_s":0.0007327575568663218}
{"at_s":0.0034269323584734733,"kind":"token_arrival","station":3,"earliness_s":0.0007327575568663223}
{"at_s":0.0034681271106004044,"kind":"token_arrival","station":0,"earliness_s":0.0007327575568663218}
{"at_s":0.003487321862727335,"kind":"token_arrival","station":1,"earliness_s":0.0007327575568663223}
{"at_s":0.003506516614854266,"kind":"token_arrival","station":2,"earliness_s":0.0007327575568663218}
{"at_s":0.0035257113669811967,"kind":"token_arrival","station":3,"earliness_s":0.0007327575568663223}
{"at_s":0.0035669061191081278,"kind":"token_arrival","station":0,"earliness_s":0.0007327575568663218}
{"at_s":0.0035669061191081278,"kind":"async_frame","station":0,"frame_time_s":0.000156}
{"at_s":0.003742100871235059,"kind":"token_arrival","station":1,"earliness_s":0.0005767575568663219}
{"at_s":0.003742100871235059,"kind":"async_frame","station":1,"frame_time_s":0.000468}
{"at_s":0.003911361927362253,"kind":"message_arrival","station":0,"payload_bits":2800}
{"at_s":0.005838631147763538,"kind":"token_arrival","station":0,"earliness_s":0.0008315365653740452}
{"at_s":0.005838631147763538,"kind":"async_frame","station":0,"frame_time_s":0.000624}
{"at_s":0.006492653987174473,"kind":"message_arrival","station":1,"payload_bits":4399.999999999999}
{"at_s":0.006609825899890469,"kind":"token_arrival","station":1,"earliness_s":6.034181324711396e-05}
{"at_s":0.006609825899890469,"kind":"async_frame","station":1,"frame_time_s":0.000156}
{"at_s":0.006904687318684067,"kind":"token_arrival","station":2,"earliness_s":0}
{"at_s":0.006923882070810998,"kind":"token_arrival","station":3,"earliness_s":0}
{"at_s":0.0069650768229379285,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.007112271575064859,"kind":"token_arrival","station":1,"earliness_s":0.0003290908901996551}
{"at_s":0.007112271575064859,"kind":"async_frame","station":1,"frame_time_s":0.000312}
{"at_s":0.007563132993858457,"kind":"token_arrival","station":2,"earliness_s":0}
{"at_s":0.007582327745985388,"kind":"token_arrival","station":3,"earliness_s":0}
{"at_s":0.0076235224981123185,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.007770717250239249,"kind":"token_arrival","station":1,"earliness_s":0.00017309089019965605}
{"at_s":0.007770717250239249,"kind":"async_frame","station":1,"frame_time_s":0.000156}
{"at_s":0.008065578669032847,"kind":"token_arrival","station":2,"earliness_s":0.00026766217485282677}
{"at_s":0.008065578669032847,"kind":"async_frame","station":2,"frame_time_s":0.000312}
{"at_s":0.008396773421159777,"kind":"token_arrival","station":3,"earliness_s":0}
{"at_s":0.008437968173286708,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.00858516292541364,"kind":"token_arrival","station":1,"earliness_s":1.709089019965443e-05}
{"at_s":0.00858516292541364,"kind":"async_frame","station":1,"frame_time_s":0.000156}
{"at_s":0.008880024344207238,"kind":"token_arrival","station":2,"earliness_s":1.709089019965443e-05}
{"at_s":0.008880024344207238,"kind":"async_frame","station":2,"frame_time_s":0.000156}
{"at_s":0.009055219096334168,"kind":"token_arrival","station":3,"earliness_s":0.00010955831292555097}
{"at_s":0.009055219096334168,"kind":"async_frame","station":3,"frame_time_s":0.000156}
{"at_s":0.0092524138484611,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.009399608600588031,"kind":"token_arrival","station":1,"earliness_s":1.709089019965443e-05}
{"at_s":0.009399608600588031,"kind":"async_frame","station":1,"frame_time_s":0.000156}
{"at_s":0.009694470019381628,"kind":"token_arrival","station":2,"earliness_s":1.709089019965443e-05}
{"at_s":0.009694470019381628,"kind":"async_frame","station":2,"frame_time_s":0.000156}
{"at_s":0.009869664771508559,"kind":"token_arrival","station":3,"earliness_s":1.709089019965443e-05}
{"at_s":0.009869664771508559,"kind":"async_frame","station":3,"frame_time_s":0.000156}
{"at_s":0.01006685952363549,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.010214054275762422,"kind":"token_arrival","station":1,"earliness_s":1.709089019965443e-05}
{"at_s":0.010214054275762422,"kind":"async_frame","station":1,"frame_time_s":0.000156}
{"at_s":0.009796423639518227,"kind":"message_arrival","station":2,"payload_bits":7000}
{"at_s":0.01050891569455602,"kind":"token_arrival","station":2,"earliness_s":1.709089019965443e-05}
{"at_s":0.01050891569455602,"kind":"async_frame","station":2,"frame_time_s":0.000156}
{"at_s":0.01079961044668295,"kind":"token_arrival","station":3,"earliness_s":0}
{"at_s":0.010840805198809882,"kind":"token_arrival","station":0,"earliness_s":0}
{"at_s":0.010968805198809882,"kind":"message_complete","station":0,"response_time_s":0.007057443271447628}
{"at_s":0.010968805198809882,"kind":"deadline_miss","station":0,"response_time_s":0.007057443271447628}
{"at_s":0.010987999950936814,"kind":"token_arrival","station":1,"earliness_s":5.75908901996533e-05}
{"at_s":0.010987999950936814,"kind":"async_frame","station":1,"frame_time_s":0.000156}
{"at_s":0.011282861369730411,"kind":"token_arrival","station":2,"earliness_s":5.75908901996533e-05}
{"at_s":0.011417556121857343,"kind":"token_arrival","station":3,"earliness_s":0.0001151817803993066}
{"at_s":0.011417556121857343,"kind":"async_frame","station":3,"frame_time_s":0.000156}
{"at_s":0.010911361927362254,"kind":"message_arrival","station":0,"payload_bits":2800}
{"at_s":0.011614750873984274,"kind":"token_arrival","station":0,"earliness_s":4.463623139758059e-05}
{"at_s":0.011614750873984274,"kind":"async_frame","station":0,"frame_time_s":0.000156}
{"at_s":0.011917945626111206,"kind":"token_arrival","station":1,"earliness_s":0}
)"},
};

TEST(TtpGolden, EveryMetricMatchesTheFrozenRuns) {
  const auto cases = golden_cases();
  ASSERT_EQ(cases.size(), std::size(kGoldenMetrics));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    EXPECT_EQ(cases[i].name, kGoldenMetrics[i].name);
    EXPECT_EQ(run_fingerprint(cases[i]), kGoldenMetrics[i].text);
  }
}

TEST(TtpGolden, StormGuardTripsWithTheFrozenMessage) {
  EXPECT_EQ(storm_message(storm_case()), kGoldenStorm);
}

TEST(TtpGolden, JsonlTracesAreByteIdentical) {
  const auto cases = trace_cases();
  ASSERT_EQ(cases.size(), std::size(kGoldenTraces));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    EXPECT_EQ(jsonl_trace(cases[i]), kGoldenTraces[i].text);
  }
}

}  // namespace
}  // namespace tokenring::sim
