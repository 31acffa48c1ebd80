#include "tokenring/sim/config.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/msg/generator.hpp"
#include "tokenring/net/standards.hpp"

namespace tokenring::sim {
namespace {

SimConfig base_config(int stations, BitsPerSecond bw, Seconds ttrt) {
  SimConfig cfg;
  cfg.protocol = Protocol::kTtp;
  cfg.ttp.ring = net::fddi_ring(stations);
  cfg.ttp.frame = net::paper_frame_format();
  cfg.ttp.async_frame = net::paper_frame_format();
  cfg.bandwidth = bw;
  cfg.ttrt = ttrt;
  cfg.horizon = 0.5;
  cfg.worst_case_phasing = true;
  cfg.async_model = AsyncModel::kNone;
  return cfg;
}

msg::SyncStream stream(Seconds period, Bits payload, int station) {
  return msg::SyncStream{period, payload, station};
}

TEST(TtpSim, IdleRotationTakesTheta) {
  // No traffic at all: the token circulates in exactly Theta per lap.
  const BitsPerSecond bw = mbps(100);
  auto cfg = base_config(10, bw, milliseconds(5));
  cfg.horizon = milliseconds(50);
  const auto m = run_simulation(msg::MessageSet{}, cfg);
  ASSERT_GT(m.token_rotation.count(), 10u);
  EXPECT_NEAR(m.token_rotation.mean(), cfg.ttp.ring.theta(bw), 1e-12);
  EXPECT_NEAR(m.token_rotation.max(), cfg.ttp.ring.theta(bw), 1e-12);
}

TEST(TtpSim, AsyncFundedByEarlinessOnly) {
  // Idle sync + saturating async: every visit is early, so each station
  // burns its earliness on async frames; rotations stay <= 2*TTRT.
  const BitsPerSecond bw = mbps(100);
  auto cfg = base_config(4, bw, milliseconds(2));
  cfg.async_model = AsyncModel::kSaturating;
  cfg.horizon = milliseconds(200);
  const auto sim = make_simulator(msg::MessageSet{}, cfg);
  const auto m = sim->run();
  EXPECT_GT(m.async_frames_sent, 0u);
  EXPECT_LE(sim->max_intervisit(), 2.0 * cfg.ttrt + 1e-9);
}

TEST(TtpSim, NoAsyncWithoutSaturation) {
  auto cfg = base_config(4, mbps(100), milliseconds(2));
  EXPECT_EQ(run_simulation(msg::MessageSet{}, cfg).async_frames_sent, 0u);
}

TEST(TtpSim, SingleStreamServedWithinAllocation) {
  // One stream with the local allocation completes every message on time.
  const BitsPerSecond bw = mbps(100);
  const Seconds ttrt = milliseconds(2);
  auto cfg = base_config(4, bw, ttrt);
  cfg.horizon = milliseconds(400);
  cfg.async_model = AsyncModel::kSaturating;

  msg::MessageSet set;
  set.add(stream(milliseconds(20), 100'000.0, 1));  // 1 ms of payload
  const auto h = analysis::ttp_local_bandwidth(set[0], cfg.ttp, bw, ttrt);
  ASSERT_TRUE(h.has_value());
  cfg.sync_bandwidth_per_stream.push_back(*h);

  const auto sim = make_simulator(set, cfg);
  const auto m = sim->run();
  EXPECT_GT(m.messages_completed, 10u);
  EXPECT_EQ(m.deadline_misses, 0u);
  // Johnson's bound holds throughout.
  EXPECT_LE(sim->max_intervisit(), 2.0 * ttrt + 1e-9);
}

TEST(TtpSim, MultiVisitServiceTakesQMinusOneVisits) {
  // h sized for exactly (q-1) visits: the response time must stay within
  // the period but span multiple rotations.
  const BitsPerSecond bw = mbps(100);
  const Seconds ttrt = milliseconds(2);
  auto cfg = base_config(4, bw, ttrt);
  cfg.horizon = milliseconds(400);

  msg::MessageSet set;
  set.add(stream(milliseconds(20), 450'000.0, 0));  // 4.5 ms payload, q=10
  const auto h = analysis::ttp_local_bandwidth(set[0], cfg.ttp, bw, ttrt);
  ASSERT_TRUE(h.has_value());
  cfg.sync_bandwidth_per_stream.push_back(*h);

  const auto m = run_simulation(set, cfg);
  ASSERT_GT(m.messages_completed, 0u);
  EXPECT_EQ(m.deadline_misses, 0u);
  // Needs multiple token visits: response well above one rotation.
  EXPECT_GT(m.response_time.min(), ttrt);
  EXPECT_LE(m.response_time.max(), milliseconds(20) + 1e-9);
}

TEST(TtpSim, HundredsOfExactChunksDoNotAccumulateRounding) {
  // Regression: a message sized for exactly q-1 = 138 full-budget visits
  // must not leak a sub-bit floating-point residue into an extra rotation
  // (which would blow a near-zero-slack deadline).
  const BitsPerSecond bw = mbps(100);
  const Seconds ttrt = milliseconds(0.72);
  auto cfg = base_config(12, bw, ttrt);
  cfg.horizon = milliseconds(450);
  cfg.async_model = AsyncModel::kSaturating;

  msg::MessageSet set;
  // P just above 139*TTRT -> q = 139, 138 usable visits.
  set.add(stream(139.3 * ttrt, 843'013.9, 11));
  const auto h = analysis::ttp_local_bandwidth(set[0], cfg.ttp, bw, ttrt);
  ASSERT_TRUE(h.has_value());
  cfg.sync_bandwidth_per_stream.push_back(*h);

  const auto m = run_simulation(set, cfg);
  ASSERT_GT(m.messages_completed, 2u);
  EXPECT_EQ(m.deadline_misses, 0u);
  // Every response fits the Johnson bound (q visits' worth of rotations).
  EXPECT_LE(m.response_time.max(), 139.0 * ttrt + 1e-9);
}

TEST(TtpSim, MultipleStreamsPerStationEachGetTheirBandwidth) {
  // Generalization beyond the paper's one-stream-per-node model: two
  // streams at one station each own their local-scheme h_i and both meet
  // their deadlines; a station's visit may carry frames of both.
  const BitsPerSecond bw = mbps(100);
  const Seconds ttrt = milliseconds(2);
  auto cfg = base_config(4, bw, ttrt);
  cfg.horizon = milliseconds(400);
  cfg.async_model = AsyncModel::kSaturating;

  msg::MessageSet set;
  set.add(stream(milliseconds(20), 100'000.0, 2));
  set.add(stream(milliseconds(40), 200'000.0, 2));  // same station
  set.add(stream(milliseconds(30), 50'000.0, 0));
  ASSERT_TRUE(analysis::ttp_feasible_at(set, cfg.ttp, bw, ttrt));
  for (const auto& s : set.streams()) {
    cfg.sync_bandwidth_per_stream.push_back(
        analysis::ttp_local_bandwidth(s, cfg.ttp, bw, ttrt).value());
  }
  const auto sim = make_simulator(set, cfg);
  const auto m = sim->run();
  EXPECT_GT(m.messages_completed, 30u);
  EXPECT_EQ(m.deadline_misses, 0u);
  // Station 2 hosts two streams: 21 + 11 releases by t = 400 ms.
  ASSERT_TRUE(m.per_station.count(2));
  EXPECT_GE(m.per_station.at(2).released, 30u);
  EXPECT_LE(sim->max_intervisit(), 2.0 * ttrt + 1e-9);
}

TEST(TtpSim, ZeroAllocationStarvesStream) {
  const BitsPerSecond bw = mbps(100);
  auto cfg = base_config(4, bw, milliseconds(2));
  cfg.horizon = milliseconds(100);
  msg::MessageSet set;
  set.add(stream(milliseconds(20), 10'000.0, 0));
  cfg.sync_bandwidth_per_stream.push_back(0.0);  // starved on purpose
  const auto m = run_simulation(set, cfg);
  EXPECT_EQ(m.messages_completed, 0u);
  EXPECT_GT(m.deadline_misses, 0u);
}

TEST(TtpSim, JohnsonBoundAcrossRandomFeasibleSets) {
  // Property: for any set passing Theorem 5.1 with the local allocation,
  // the token inter-visit time never exceeds 2*TTRT.
  Rng rng(31);
  msg::GeneratorConfig g;
  g.num_streams = 12;
  g.mean_period = milliseconds(60);
  msg::MessageSetGenerator gen(g);

  const BitsPerSecond bw = mbps(100);
  int tested = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const auto base = gen.generate(rng).scaled(rng.uniform(10.0, 200.0));
    SimConfig cfg = base_config(12, bw, 0.0);
    cfg.ttrt = analysis::select_ttrt(base, cfg.ttp.ring, bw);
    cfg.async_model = AsyncModel::kSaturating;
    cfg.horizon = milliseconds(300);
    cfg.seed = static_cast<std::uint64_t>(trial);

    const analysis::TtpParams p = cfg.ttp;
    if (!analysis::ttp_feasible_at(base, p, bw, cfg.ttrt)) continue;
    for (const auto& s : base.streams()) {
      cfg.sync_bandwidth_per_stream.push_back(
          analysis::ttp_local_bandwidth(s, p, bw, cfg.ttrt).value());
    }
    const auto sim = make_simulator(base, cfg);
    sim->run();
    EXPECT_LE(sim->max_intervisit(), 2.0 * cfg.ttrt + 1e-9)
        << "trial " << trial;
    ++tested;
  }
  EXPECT_GT(tested, 0);
}

TEST(TtpSim, WrapperFillsTtrtAndAllocation) {
  const BitsPerSecond bw = mbps(100);
  msg::MessageSet set;
  set.add(stream(milliseconds(20), 50'000.0, 0));
  set.add(stream(milliseconds(40), 50'000.0, 1));

  SimConfig cfg;
  cfg.protocol = Protocol::kTtp;
  cfg.ttp.ring = net::fddi_ring(4);
  cfg.ttp.frame = net::paper_frame_format();
  cfg.ttp.async_frame = net::paper_frame_format();
  cfg.bandwidth = bw;
  cfg.horizon = milliseconds(200);
  // ttrt and sync_bandwidth left empty: the factory must fill both.
  const auto m = run_simulation(set, cfg);
  EXPECT_GT(m.messages_completed, 0u);
  EXPECT_EQ(m.deadline_misses, 0u);
}

TEST(TtpSim, ReleasedCountMatchesPeriods) {
  const BitsPerSecond bw = mbps(100);
  auto cfg = base_config(2, bw, milliseconds(2));
  cfg.horizon = milliseconds(100);
  cfg.worst_case_phasing = false;
  cfg.seed = 3;
  msg::MessageSet set;
  set.add(stream(milliseconds(10), 1'000.0, 0));
  cfg.sync_bandwidth_per_stream.push_back(analysis::ttp_local_bandwidth(set[0], cfg.ttp, bw, cfg.ttrt).value());
  const auto m = run_simulation(set, cfg);
  // phase in [0,10ms): 10 or 11 releases by t=100ms.
  EXPECT_GE(m.messages_released, 10u);
  EXPECT_LE(m.messages_released, 11u);
}

TEST(TtpSim, ConfigValidation) {
  msg::MessageSet set;
  set.add(stream(milliseconds(10), 1'000.0, 0));
  auto cfg = base_config(2, mbps(100), milliseconds(2));
  cfg.sync_bandwidth_per_stream = {1e-4, 1e-4};  // wrong size (set has 1)
  EXPECT_THROW(make_simulator(set, cfg), PreconditionError);

  cfg = base_config(2, mbps(100), milliseconds(2));
  cfg.horizon = 0.0;
  EXPECT_THROW(make_simulator(set, cfg), PreconditionError);

  cfg = base_config(2, mbps(100), milliseconds(2));
  msg::MessageSet bad;
  bad.add(stream(milliseconds(10), 1'000.0, 5));
  EXPECT_THROW(make_simulator(bad, cfg), PreconditionError);
}

TEST(TtpSim, StreamlessRingWithoutTtrtIsRefusedByName) {
  // The paper's TTRT rule reads the streams' deadlines, so a ring with no
  // streams must bring its own TTRT; with one it simulates (idle laps).
  auto cfg = base_config(4, mbps(100), 0.0);
  cfg.horizon = milliseconds(5);
  try {
    make_simulator(msg::MessageSet{}, cfg);
    ADD_FAILURE() << "a streamless ring without a ttrt was accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(e.reason().find("ring without streams needs an explicit ttrt"),
              std::string::npos)
        << e.reason();
  }
  cfg.ttrt = milliseconds(1);
  EXPECT_EQ(make_simulator(msg::MessageSet{}, cfg)->run().messages_released,
            0u);
}

TEST(TtpSim, RotationUnderLoadStaysAboveTheta) {
  // Serving traffic can only slow the token down relative to idle.
  const BitsPerSecond bw = mbps(100);
  auto cfg = base_config(4, bw, milliseconds(2));
  cfg.horizon = milliseconds(200);
  msg::MessageSet set;
  set.add(stream(milliseconds(20), 100'000.0, 0));
  cfg.sync_bandwidth_per_stream.push_back(analysis::ttp_local_bandwidth(set[0], cfg.ttp, bw, cfg.ttrt).value());
  const auto m = run_simulation(set, cfg);
  EXPECT_GE(m.token_rotation.max(), cfg.ttp.ring.theta(bw) - 1e-12);
}

}  // namespace
}  // namespace tokenring::sim
