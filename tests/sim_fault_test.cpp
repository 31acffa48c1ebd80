// Failure-injection tests: FaultPlan-driven faults and recovery in both
// simulators — token loss, frame corruption, noise bursts, station
// crash/rejoin, duplicate tokens, miss attribution and determinism.

#include <gtest/gtest.h>

#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/fault/recovery.hpp"
#include "tokenring/net/standards.hpp"
#include "tokenring/obs/registry.hpp"
#include "tokenring/sim/config.hpp"
#include "tokenring/sim/simulator.hpp"
#include "tokenring/sim/workload.hpp"

namespace tokenring::sim {
namespace {

msg::SyncStream stream(Seconds period, Bits payload, int station) {
  return msg::SyncStream{period, payload, station};
}

msg::MessageSet light_set() {
  msg::MessageSet set;
  set.add(stream(milliseconds(20), 10'000.0, 0));
  set.add(stream(milliseconds(40), 20'000.0, 2));
  return set;
}

analysis::TtpParams ttp_params() {
  analysis::TtpParams p;
  p.ring = net::fddi_ring(4);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  return p;
}

analysis::PdpParams pdp_params() {
  analysis::PdpParams p;
  p.ring = net::ieee8025_ring(4);
  p.frame = net::paper_frame_format();
  p.variant = analysis::PdpVariant::kModified8025;
  return p;
}

// ---- TTP --------------------------------------------------------------------

TEST(TtpFault, LossIsCountedAndRingRecovers) {
  const BitsPerSecond bw = mbps(100);
  auto cfg = make_sim_config(light_set(), ttp_params(), bw, 10.0);
  cfg.faults.add_token_loss(milliseconds(50));
  const auto m = run_simulation(light_set(), cfg);
  EXPECT_EQ(m.token_losses, 1u);
  EXPECT_EQ(m.faults_injected(), 1u);
  EXPECT_GT(m.total_outage(), 0.0);
  // Traffic continues after recovery: completions span the whole horizon.
  EXPECT_GT(m.messages_completed, 15u);
  EXPECT_LT(m.miss_ratio(), 0.3);
}

TEST(TtpFault, NoFaultsMeansCountersStayZero) {
  const BitsPerSecond bw = mbps(100);
  const auto cfg = make_sim_config(light_set(), ttp_params(), bw, 5.0);
  const auto m = run_simulation(light_set(), cfg);
  EXPECT_EQ(m.token_losses, 0u);
  EXPECT_EQ(m.faults_injected(), 0u);
  EXPECT_EQ(m.total_outage(), 0.0);
}

TEST(TtpFault, OutageShowsUpAsInterVisitGap) {
  const BitsPerSecond bw = mbps(100);
  auto cfg = make_sim_config(light_set(), ttp_params(), bw, 10.0);
  const Seconds outage =
      fault::ttp_token_loss_outage(cfg.ttp, bw, cfg.ttrt);
  cfg.faults.add_token_loss(milliseconds(50));
  const auto sim = make_simulator(light_set(), cfg);
  const auto m = sim->run();
  // The recovery gap dominates every normal rotation, and the accounted
  // outage matches the recovery model.
  EXPECT_GE(sim->max_intervisit(), outage - 1e-9);
  EXPECT_NEAR(m.total_outage(), outage, 1e-9);
}

TEST(TtpFault, RepeatedLossesAllRecovered) {
  const BitsPerSecond bw = mbps(100);
  auto cfg = make_sim_config(light_set(), ttp_params(), bw, 15.0);
  cfg.faults.add_token_loss(milliseconds(30));
  cfg.faults.add_token_loss(milliseconds(120));
  cfg.faults.add_token_loss(milliseconds(250));
  const auto m = run_simulation(light_set(), cfg);
  EXPECT_EQ(m.token_losses, 3u);
  EXPECT_GT(m.messages_completed, 20u);
}

TEST(TtpFault, BackToBackLossesSupersedeCleanly) {
  // A second loss during the first recovery must not spawn two tokens.
  const BitsPerSecond bw = mbps(100);
  auto cfg = make_sim_config(light_set(), ttp_params(), bw, 10.0);
  cfg.faults.add_token_loss(milliseconds(50));
  cfg.faults.add_token_loss(milliseconds(50.1));
  const auto m = run_simulation(light_set(), cfg);
  EXPECT_EQ(m.token_losses, 2u);
  // Ring still alive at the end (steady completions).
  EXPECT_GT(m.messages_completed, 10u);
}

TEST(TtpFault, LossBurstCausesAttributedMissesForTightStreams) {
  // A stream using 17 of its 18 token visits per period has ~0.25 ms of
  // slack; a burst of three token losses (~0.7 ms of outage) must blow it,
  // and the misses must be attributed to the outage windows.
  const BitsPerSecond bw = mbps(100);
  analysis::TtpParams p = ttp_params();
  msg::MessageSet set;
  set.add(stream(milliseconds(2), 20'000.0, 0));
  auto cfg = make_sim_config(set, p, bw, 40.0);
  ASSERT_GT(cfg.sync_bandwidth_per_stream[0], 0.0);
  cfg.faults.add_token_loss(milliseconds(20));
  cfg.faults.add_token_loss(milliseconds(20.3));
  cfg.faults.add_token_loss(milliseconds(20.6));
  const auto m = run_simulation(set, cfg);
  EXPECT_EQ(m.token_losses, 3u);
  EXPECT_GT(m.deadline_misses, 0u);
  EXPECT_GT(m.fault_attributed_misses(), 0u);
  EXPECT_LE(m.fault_attributed_misses(), m.deadline_misses);
  EXPECT_GT(m.per_fault.at(fault::FaultKind::kTokenLoss).attributed_misses,
            0u);

  cfg.faults = {};
  EXPECT_EQ(run_simulation(set, cfg).deadline_misses, 0u);
}

TEST(TtpFault, CorruptionWastesOneSlotNotAClaimRecovery) {
  const BitsPerSecond bw = mbps(100);
  auto cfg = make_sim_config(light_set(), ttp_params(), bw, 10.0);
  cfg.faults.add_frame_corruption(milliseconds(50));
  const auto m = run_simulation(light_set(), cfg);
  const auto& acct = m.per_fault.at(fault::FaultKind::kFrameCorruption);
  EXPECT_EQ(acct.injected, 1u);
  // Retransmission costs at most one max-size frame — far below the claim
  // recovery a token loss would trigger.
  EXPECT_LE(acct.outage, fault::ttp_corruption_outage(cfg.ttp, bw) + 1e-12);
  EXPECT_LT(acct.outage,
            fault::ttp_token_loss_outage(cfg.ttp, bw, cfg.ttrt));
  EXPECT_EQ(m.token_losses, 0u);
  EXPECT_GT(m.messages_completed, 15u);
}

TEST(TtpFault, NoiseBurstOutlastsPlainTokenLoss) {
  const BitsPerSecond bw = mbps(100);
  auto base = make_sim_config(light_set(), ttp_params(), bw, 10.0);

  auto loss_cfg = base;
  loss_cfg.faults.add_token_loss(milliseconds(50));
  const auto loss_m = run_simulation(light_set(), loss_cfg);

  auto noise_cfg = base;
  noise_cfg.faults.add_noise_burst(milliseconds(50), milliseconds(3));
  const auto noise_m = run_simulation(light_set(), noise_cfg);

  EXPECT_NEAR(noise_m.total_outage() - loss_m.total_outage(), milliseconds(3),
              1e-9);
}

TEST(TtpFault, CrashedStationLosesQueueAndRingRunsOn) {
  const BitsPerSecond bw = mbps(100);
  auto cfg = make_sim_config(light_set(), ttp_params(), bw, 10.0);
  // Station 2 (the P=40ms stream's host) dies mid-run and never returns.
  cfg.faults.add_station_crash(milliseconds(100), 2);
  const auto m = run_simulation(light_set(), cfg);
  EXPECT_EQ(m.per_fault.at(fault::FaultKind::kStationCrash).injected, 1u);
  // Station 0 keeps completing messages on the reconfigured ring.
  ASSERT_TRUE(m.per_station.count(0));
  EXPECT_GT(m.per_station.at(0).completed, 15u);
  // Station 2 releases stop at the crash: roughly 100ms/40ms ~ 3 releases,
  // far below the ~10 a full run would produce.
  ASSERT_TRUE(m.per_station.count(2));
  EXPECT_LT(m.per_station.at(2).released, 5u);
}

TEST(TtpFault, CrashAndRejoinReconfigureTwiceAndTrafficResumes) {
  const BitsPerSecond bw = mbps(100);
  auto cfg = make_sim_config(light_set(), ttp_params(), bw, 10.0);
  cfg.faults.add_station_crash(milliseconds(60), 2, milliseconds(80));
  const auto m = run_simulation(light_set(), cfg);
  EXPECT_EQ(m.per_fault.at(fault::FaultKind::kStationCrash).injected, 1u);
  EXPECT_EQ(m.per_fault.at(fault::FaultKind::kStationRejoin).injected, 1u);
  // After the rejoin station 2 releases and completes messages again:
  // more releases than the pre-crash ~2, fewer than the clean ~10.
  ASSERT_TRUE(m.per_station.count(2));
  EXPECT_GT(m.per_station.at(2).completed, 3u);
}

TEST(TtpFault, DuplicateTokenResolvedWithShortOutage) {
  const BitsPerSecond bw = mbps(100);
  auto cfg = make_sim_config(light_set(), ttp_params(), bw, 10.0);
  cfg.faults.add_duplicate_token(milliseconds(50));
  const auto m = run_simulation(light_set(), cfg);
  const auto& acct = m.per_fault.at(fault::FaultKind::kDuplicateToken);
  EXPECT_EQ(acct.injected, 1u);
  EXPECT_LT(acct.outage,
            fault::ttp_token_loss_outage(cfg.ttp, bw, cfg.ttrt));
  EXPECT_GT(m.messages_completed, 15u);
}

TEST(TtpFault, InvalidPlanRejected) {
  auto cfg = make_sim_config(light_set(), ttp_params(), mbps(100), 5.0);
  cfg.faults.add_token_loss(milliseconds(1));
  cfg.faults.add(fault::FaultEvent{-1.0, fault::FaultKind::kTokenLoss});
  EXPECT_THROW(make_simulator(light_set(), cfg), PreconditionError);

  auto bad_station = make_sim_config(light_set(), ttp_params(), mbps(100),
                                         5.0);
  bad_station.faults.add_station_crash(milliseconds(1), 99);
  EXPECT_THROW(make_simulator(light_set(), bad_station), PreconditionError);
}

// ---- PDP --------------------------------------------------------------------

TEST(PdpFault, LossIsCountedAndRingRecovers) {
  const BitsPerSecond bw = mbps(16);
  auto cfg = make_sim_config(light_set(), pdp_params(), bw, 10.0);
  cfg.faults.add_token_loss(milliseconds(50));
  const auto m = run_simulation(light_set(), cfg);
  EXPECT_EQ(m.token_losses, 1u);
  EXPECT_NEAR(m.total_outage(), fault::pdp_monitor_outage(cfg.pdp, bw),
              1e-9);
  EXPECT_GT(m.messages_completed, 15u);
}

TEST(PdpFault, AbortedFrameIsRetransmitted) {
  // Kill the token right in the middle of the only message's transmission:
  // the payload must still arrive (later), not be silently lost.
  const BitsPerSecond bw = mbps(1);
  auto cfg = make_sim_config(light_set(), pdp_params(), bw, 1.0);
  cfg.async_model = AsyncModel::kNone;
  msg::MessageSet set;
  set.add(stream(milliseconds(100), 5'000.0, 0));  // ~10 frames, ~6 ms
  cfg.horizon = milliseconds(99);
  cfg.faults.add_token_loss(milliseconds(3));  // mid-message
  const auto m = run_simulation(set, cfg);
  EXPECT_EQ(m.token_losses, 1u);
  ASSERT_EQ(m.messages_completed, 1u);
  EXPECT_EQ(m.deadline_misses, 0u);
  // The outage pushed the completion later than the clean run.
  cfg.faults = {};
  const auto mc = run_simulation(set, cfg);
  EXPECT_GT(m.response_time.mean(), mc.response_time.mean());
}

TEST(PdpFault, RecoveryRestartsArbitrationByPriority) {
  // Two messages pending during the outage: after recovery the
  // shorter-period one transmits first (no misses for it).
  const BitsPerSecond bw = mbps(16);
  auto cfg = make_sim_config(light_set(), pdp_params(), bw, 5.0);
  cfg.faults.add_token_loss(milliseconds(1));
  const auto m = run_simulation(light_set(), cfg);
  EXPECT_EQ(m.token_losses, 1u);
  ASSERT_TRUE(m.per_station.count(0));
  EXPECT_EQ(m.per_station.at(0).misses, 0u);  // P=20ms stream unharmed
}

TEST(PdpFault, ManyLossesDegradeButNeverWedge) {
  const BitsPerSecond bw = mbps(16);
  auto cfg = make_sim_config(light_set(), pdp_params(), bw, 20.0);
  for (int i = 1; i <= 20; ++i) {
    cfg.faults.add_token_loss(milliseconds(18.0 * i));
  }
  const auto m = run_simulation(light_set(), cfg);
  EXPECT_EQ(m.token_losses, 20u);
  // Ring keeps making progress between losses.
  EXPECT_GT(m.messages_completed, 20u);
}

TEST(PdpFault, CorruptionRetransmitsWithinOneSlot) {
  const BitsPerSecond bw = mbps(16);
  auto cfg = make_sim_config(light_set(), pdp_params(), bw, 10.0);
  cfg.faults.add_frame_corruption(milliseconds(50));
  const auto m = run_simulation(light_set(), cfg);
  const auto& acct = m.per_fault.at(fault::FaultKind::kFrameCorruption);
  EXPECT_EQ(acct.injected, 1u);
  EXPECT_LE(acct.outage, fault::pdp_corruption_outage(cfg.pdp, bw) + 1e-12);
  EXPECT_EQ(m.token_losses, 0u);
  EXPECT_GT(m.messages_completed, 15u);
}

TEST(PdpFault, CrashShrinksThetaAndRejoinRestoresService) {
  const BitsPerSecond bw = mbps(16);
  auto cfg = make_sim_config(light_set(), pdp_params(), bw, 10.0);
  cfg.faults.add_station_crash(milliseconds(60), 2, milliseconds(60));
  const auto m = run_simulation(light_set(), cfg);
  EXPECT_EQ(m.per_fault.at(fault::FaultKind::kStationCrash).injected, 1u);
  EXPECT_EQ(m.per_fault.at(fault::FaultKind::kStationRejoin).injected, 1u);
  // Station 0 rides through both reconfigurations; station 2 resumes after
  // the rejoin.
  ASSERT_TRUE(m.per_station.count(0));
  EXPECT_GT(m.per_station.at(0).completed, 15u);
  ASSERT_TRUE(m.per_station.count(2));
  EXPECT_GT(m.per_station.at(2).completed, 3u);
}

TEST(PdpFault, DuplicateTokenCheaperThanMonitorRecovery) {
  const BitsPerSecond bw = mbps(16);
  auto cfg = make_sim_config(light_set(), pdp_params(), bw, 10.0);
  cfg.faults.add_duplicate_token(milliseconds(50));
  const auto m = run_simulation(light_set(), cfg);
  const auto& acct = m.per_fault.at(fault::FaultKind::kDuplicateToken);
  EXPECT_EQ(acct.injected, 1u);
  EXPECT_LT(acct.outage, fault::pdp_monitor_outage(cfg.pdp, bw));
  EXPECT_GT(m.messages_completed, 15u);
}

// ---- determinism & guards ---------------------------------------------------

TEST(FaultDeterminism, RandomPlanRunsAreBitIdentical) {
  const BitsPerSecond bw = mbps(100);
  fault::FaultRates rates;
  rates.token_loss = 20.0;
  rates.frame_corruption = 20.0;
  rates.noise_burst = 5.0;
  rates.noise_duration = milliseconds(1);
  rates.station_crash = 5.0;
  rates.crash_downtime = milliseconds(20);
  rates.duplicate_token = 10.0;

  auto cfg = make_sim_config(light_set(), ttp_params(), bw, 10.0);
  cfg.faults = fault::FaultPlan::random(rates, cfg.horizon, 1234,
                                        cfg.ttp.ring.num_stations);
  ASSERT_FALSE(cfg.faults.empty());
  const auto a = run_simulation(light_set(), cfg);
  const auto b = run_simulation(light_set(), cfg);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.messages_completed, b.messages_completed);
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_EQ(a.total_outage(), b.total_outage());          // bit-identical
  EXPECT_EQ(a.response_time.mean(), b.response_time.mean());

  // Same seed regenerates the same plan; a different seed does not.
  const auto again = fault::FaultPlan::random(rates, cfg.horizon, 1234,
                                              cfg.ttp.ring.num_stations);
  EXPECT_EQ(again.size(), cfg.faults.size());
  const auto other = fault::FaultPlan::random(rates, cfg.horizon, 99,
                                              cfg.ttp.ring.num_stations);
  EXPECT_NE(other.sorted_events().front().time,
            cfg.faults.sorted_events().front().time);
}

// ---- verdict-only runs ------------------------------------------------------

std::uint64_t sim_events() {
  const auto snap = obs::Registry::global().snapshot();
  const auto it = snap.counters.find("sim.events");
  return it == snap.counters.end() ? 0 : it->second;
}

SimConfig verdict_config(bool pdp) {
  return pdp ? make_sim_config(light_set(), pdp_params(), mbps(16), 10.0)
             : make_sim_config(light_set(), ttp_params(), mbps(100), 10.0);
}

TEST(VerdictRun, StopsAtACrashAbandonedMiss) {
  // Station 0 crashes for good while its first message is queued: that
  // abandoned message is the run's only miss. No trace record marks it
  // (kDeadlineMiss traces late completions), and the verdict-only run
  // must stop right there.
  for (const bool pdp : {true, false}) {
    SCOPED_TRACE(pdp ? "pdp" : "ttp");
    auto cfg = verdict_config(pdp);
    cfg.faults.add_station_crash(milliseconds(0.1), 0);
    std::size_t traced_misses = 0;
    CallbackSink sink([&](const TraceRecord& r) {
      if (r.kind == TraceEventKind::kDeadlineMiss) ++traced_misses;
    });
    auto traced = cfg;
    traced.trace = &sink;
    std::uint64_t before = sim_events();
    const auto m = run_simulation(light_set(), traced);
    const std::uint64_t full_events = sim_events() - before;
    EXPECT_EQ(m.deadline_misses, 1u);
    EXPECT_EQ(traced_misses, 0u);

    before = sim_events();
    EXPECT_TRUE(make_simulator(light_set(), cfg)->misses_a_deadline());
    EXPECT_LT(sim_events() - before, full_events / 10);
  }
}

TEST(VerdictRun, AgreesWithFullRunsUnderRandomCrashPlans) {
  fault::FaultRates rates;
  rates.token_loss = 10.0;
  rates.frame_corruption = 20.0;
  rates.noise_burst = 5.0;
  rates.noise_duration = milliseconds(2);
  rates.station_crash = 8.0;
  rates.crash_downtime = milliseconds(30);
  std::size_t missed = 0;
  std::size_t clean = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    for (const bool pdp : {true, false}) {
      auto cfg = verdict_config(pdp);
      cfg.faults = fault::FaultPlan::random(rates, cfg.horizon, seed, 4);
      const bool full = run_simulation(light_set(), cfg).deadline_misses > 0;
      EXPECT_EQ(make_simulator(light_set(), cfg)->misses_a_deadline(), full)
          << (pdp ? "pdp" : "ttp") << " seed " << seed;
      ++(full ? missed : clean);
    }
  }
  // The plans land on both sides of the verdict.
  EXPECT_GT(missed, 0u);
  EXPECT_GT(clean, 0u);
}

TEST(EventStormGuard, TinyEventBudgetAborts) {
  const BitsPerSecond bw = mbps(100);
  auto cfg = make_sim_config(light_set(), ttp_params(), bw, 10.0);
  cfg.max_events = 50;  // a real run takes many thousands
  EXPECT_THROW(run_simulation(light_set(), cfg), EventStormError);
}

TEST(EventStormGuard, DefaultBudgetDoesNotTripNormalRuns) {
  const BitsPerSecond bw = mbps(16);
  auto cfg = make_sim_config(light_set(), pdp_params(), bw, 5.0);
  cfg.faults.add_token_loss(milliseconds(10));
  EXPECT_NO_THROW(run_simulation(light_set(), cfg));
}

}  // namespace
}  // namespace tokenring::sim
