// Cross-module randomized property tests. Each property here is either an
// invariant the paper's analysis depends on, or a documented *non*-property
// (like the bandwidth anomaly) pinned as an executable fact.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tokenring/analysis/async_capacity.hpp"
#include "tokenring/analysis/fixed_priority.hpp"
#include "tokenring/analysis/kernels.hpp"
#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/breakdown/saturation.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/exec/seed_stream.hpp"
#include "tokenring/msg/generator.hpp"
#include "tokenring/msg/io.hpp"
#include "tokenring/net/standards.hpp"
#include "tokenring/obs/registry.hpp"

namespace tokenring {
namespace {

msg::MessageSetGenerator generator(int streams, Seconds mean = milliseconds(80),
                                   double ratio = 8.0) {
  msg::GeneratorConfig g;
  g.num_streams = streams;
  g.mean_period = mean;
  g.period_ratio = ratio;
  return msg::MessageSetGenerator(g);
}

analysis::PdpParams pdp_params(int n, analysis::PdpVariant v) {
  analysis::PdpParams p;
  p.ring = net::ieee8025_ring(n);
  p.frame = net::paper_frame_format();
  p.variant = v;
  return p;
}

analysis::TtpParams ttp_params(int n) {
  analysis::TtpParams p;
  p.ring = net::fddi_ring(n);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  return p;
}

// ---- order invariance ----------------------------------------------------------

class OrderInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderInvariance, VerdictsIgnoreStreamOrder) {
  Rng rng(GetParam());
  auto gen = generator(12);
  const auto pdp = pdp_params(12, analysis::PdpVariant::kModified8025);
  const auto ttp = ttp_params(12);
  for (int trial = 0; trial < 10; ++trial) {
    const auto base = gen.generate(rng).scaled(rng.uniform(1.0, 60.0));
    const BitsPerSecond bw = mbps(rng.uniform(4.0, 200.0));

    std::vector<msg::SyncStream> shuffled = base.streams();
    std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
    const msg::MessageSet permuted{std::move(shuffled)};

    EXPECT_EQ(analysis::pdp_feasible(base, pdp, bw),
              analysis::pdp_feasible(permuted, pdp, bw));
    EXPECT_EQ(analysis::ttp_feasible(base, ttp, bw),
              analysis::ttp_feasible(permuted, ttp, bw));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderInvariance, ::testing::Values(1, 2, 3));

// ---- breakdown utilization bounds ------------------------------------------------

class BreakdownBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BreakdownBounds, SaturatedUtilizationIsAProperFraction) {
  Rng rng(GetParam());
  auto gen = generator(10);
  const auto pdp = pdp_params(10, analysis::PdpVariant::kStandard8025);
  const auto ttp = ttp_params(10);
  for (int trial = 0; trial < 8; ++trial) {
    const auto base = gen.generate(rng);
    const BitsPerSecond bw = mbps(rng.uniform(2.0, 500.0));
    for (const auto& predicate :
         {breakdown::SchedulablePredicate(
              [&](const msg::MessageSet& m) {
                return analysis::pdp_feasible(m, pdp, bw);
              }),
          breakdown::SchedulablePredicate([&](const msg::MessageSet& m) {
            return analysis::ttp_feasible(m, ttp, bw);
          })}) {
      const auto sat = breakdown::find_saturation(base, predicate, bw);
      if (sat.found) {
        EXPECT_GT(sat.breakdown_utilization, 0.0);
        EXPECT_LE(sat.breakdown_utilization, 1.0 + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BreakdownBounds, ::testing::Values(5, 7));

// ---- the bandwidth anomaly, pinned ------------------------------------------------
//
// Two complementary executable facts:
//  * For a FIXED message set, more bandwidth never hurts: every cost term
//    of Theorem 4.1 (C'_i, B) decreases with bandwidth, so feasibility is
//    monotone. The paper's anomaly is NOT about fixed sets.
//  * What falls with bandwidth is the breakdown *utilization*: at high
//    speed every frame still occupies a Theta-bound slot, so schedulable
//    sets carry an ever-smaller payload fraction.

class BandwidthMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BandwidthMonotone, FixedSetFeasibilityNeverDegradesWithBandwidth) {
  Rng rng(GetParam());
  auto gen = generator(12);
  const auto p = pdp_params(12, analysis::PdpVariant::kModified8025);
  int feasible_seen = 0;
  for (int trial = 0; trial < 15; ++trial) {
    const auto set = gen.generate(rng).scaled(rng.uniform(1.0, 60.0));
    bool prev = false;
    for (double bw_mbps : {2.0, 5.0, 20.0, 100.0, 1000.0}) {
      const bool ok = analysis::pdp_feasible(set, p, mbps(bw_mbps));
      if (prev) {
        EXPECT_TRUE(ok) << "feasibility lost at " << bw_mbps << " Mbps";
      }
      prev = ok;
      feasible_seen += ok ? 1 : 0;
    }
  }
  EXPECT_GT(feasible_seen, 0);  // property must not hold vacuously
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandwidthMonotone, ::testing::Values(41, 43));

TEST(BandwidthAnomaly, BreakdownUtilizationFallsWhileTtpRises) {
  // The paper's Figure 1 mechanism on a single payload direction.
  Rng rng(3);
  auto gen = generator(20, milliseconds(100), 10.0);
  const auto base = gen.generate(rng);
  const auto pdp = pdp_params(20, analysis::PdpVariant::kModified8025);
  const auto ttp = ttp_params(20);

  const auto breakdown_at = [&](const auto& params, auto feasible,
                                double bw_mbps) {
    const BitsPerSecond bw = mbps(bw_mbps);
    return breakdown::find_saturation(
               base,
               [&](const msg::MessageSet& m) {
                 return feasible(m, params, bw);
               },
               bw)
        .breakdown_utilization;
  };
  const auto pdp_feasible_fn = [](const msg::MessageSet& m, const auto& p,
                                  BitsPerSecond bw) {
    return analysis::pdp_feasible(m, p, bw);
  };
  const auto ttp_feasible_fn = [](const msg::MessageSet& m, const auto& p,
                                  BitsPerSecond bw) {
    return analysis::ttp_feasible(m, p, bw);
  };

  const double pdp_low = breakdown_at(pdp, pdp_feasible_fn, 5.0);
  const double pdp_high = breakdown_at(pdp, pdp_feasible_fn, 1000.0);
  const double ttp_low = breakdown_at(ttp, ttp_feasible_fn, 5.0);
  const double ttp_high = breakdown_at(ttp, ttp_feasible_fn, 1000.0);

  EXPECT_GT(pdp_low, 2.0 * pdp_high)
      << "PDP breakdown utilization must collapse at high bandwidth";
  EXPECT_GT(ttp_high, ttp_low)
      << "TTP breakdown utilization must keep rising";
}

// ---- augmented length consistency ---------------------------------------------------

class AugmentedLength : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AugmentedLength, HighBandwidthFloorIsThetaPerFrame) {
  // Once F <= Theta, the augmented length equals K*Theta (+ token
  // overhead), independent of the payload's exact bit count within a frame.
  Rng rng(GetParam());
  const auto p = pdp_params(100, analysis::PdpVariant::kModified8025);
  const BitsPerSecond bw = mbps(1000);
  const Seconds theta = p.ring.theta(bw);
  ASSERT_LE(p.frame.frame_time(bw), theta);
  for (int trial = 0; trial < 40; ++trial) {
    const double payload = rng.uniform(1.0, 50'000.0);
    const msg::SyncStream s{milliseconds(100), payload, 0};
    const auto k = p.frame.frames_for_payload(payload);
    EXPECT_NEAR(analysis::pdp_augmented_length(s, p, bw),
                static_cast<double>(k) * theta + theta / 2.0, 1e-15);
  }
}

TEST_P(AugmentedLength, TtpAugmentedMatchesReportField) {
  Rng rng(GetParam() + 100);
  auto gen = generator(8);
  const auto p = ttp_params(8);
  const auto set = gen.generate(rng).scaled(20.0);
  const BitsPerSecond bw = mbps(100);
  const auto v = analysis::ttp_schedulable(set, p, bw);
  for (const auto& r : v.reports) {
    // C'_i = C_i + (q_i - 1) * F_ovhd (paper eq. 8).
    EXPECT_NEAR(r.augmented_length,
                r.stream.payload_time(bw) +
                    static_cast<double>(r.q - 1) * p.frame.overhead_time(bw),
                1e-15);
    // h_i = C'_i / (q_i - 1) (paper eq. 5).
    EXPECT_NEAR(r.h, r.augmented_length / static_cast<double>(r.q - 1),
                1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AugmentedLength, ::testing::Values(11, 13));

// ---- async capacity coherence ---------------------------------------------------------

TEST(AsyncCapacityProperty, CapacityPlusDemandNeverExceedsOneWhenFeasible) {
  Rng rng(31);
  auto gen = generator(10);
  const auto p = pdp_params(10, analysis::PdpVariant::kStandard8025);
  int feasible_seen = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const auto set = gen.generate(rng).scaled(rng.uniform(0.1, 40.0));
    const BitsPerSecond bw = mbps(rng.uniform(2.0, 200.0));
    if (!analysis::pdp_feasible(set, p, bw)) continue;  // capacity undefined
    ++feasible_seen;
    const double cap = analysis::pdp_async_capacity(set, p, bw);
    // For a guaranteed load: raw synchronous utilization + async leftover
    // can never exceed the link.
    EXPECT_LE(set.utilization(bw) + cap, 1.0 + 1e-9);
  }
  EXPECT_GT(feasible_seen, 0);
}

// ---- scenario CSV fuzz round trip --------------------------------------------------------

class CsvRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsvRoundTrip, RandomSetsSurviveSerialization) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 40));
    auto gen = generator(n, milliseconds(rng.uniform(5.0, 500.0)),
                         rng.uniform(1.0, 50.0));
    const auto set = gen.generate(rng).scaled(rng.uniform(0.01, 1'000.0));
    const auto parsed = msg::message_set_from_csv(msg::to_csv(set));
    ASSERT_EQ(parsed.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i) {
      EXPECT_EQ(parsed[i].station, set[i].station);
      EXPECT_DOUBLE_EQ(parsed[i].period, set[i].period);
      EXPECT_DOUBLE_EQ(parsed[i].payload_bits, set[i].payload_bits);
    }
    // Verdicts survive the round trip bit-exactly.
    const auto p = ttp_params(40);
    const BitsPerSecond bw = mbps(100);
    EXPECT_EQ(analysis::ttp_feasible(set, p, bw),
              analysis::ttp_feasible(parsed, p, bw));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTrip, ::testing::Values(17, 19, 23));

// ---- fast-kernel differential --------------------------------------------------------
//
// The screened verdict (rta_feasible_fast) and the scale-space kernels
// (PdpBatchKernel, TtpBatchKernel; one lane here, many below) are drop-in
// replacements for the exact analyses; these tests pin verdict-for-verdict
// agreement on a large randomized corpus drawn from the exec/ seed stream
// (fixed master seeds, so every run and every machine sees the same sets).

std::vector<analysis::FpTask> random_task_set(Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 8));
  // Total utilization straddling the feasibility boundary so both verdicts
  // appear, plus occasional zero-cost (degenerate payload) tasks.
  double remaining = rng.uniform(0.1, 1.4);
  const bool constrained = rng.uniform01() < 0.3;
  std::vector<analysis::FpTask> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& t = tasks[i];
    t.period = rng.uniform(0.01, 0.1);
    const double share =
        i + 1 == n ? remaining : rng.uniform(0.0, remaining);
    remaining -= share;
    t.cost = share * t.period;
    if (rng.uniform01() < 0.1) t.cost = 0.0;
    if (constrained) t.deadline = t.period * rng.uniform(0.5, 1.0);
  }
  std::sort(tasks.begin(), tasks.end(),
            [](const analysis::FpTask& a, const analysis::FpTask& b) {
              return a.effective_deadline() < b.effective_deadline();
            });
  return tasks;
}

TEST(FastKernelDifferential, ScreenedVerdictsMatchExactOn10kTaskSets) {
  int schedulable = 0;
  int infeasible = 0;
  for (std::uint64_t trial = 0; trial < 10'000; ++trial) {
    Rng rng = exec::make_trial_rng(0xFA57, trial);
    const auto tasks = random_task_set(rng);
    const Seconds blocking =
        rng.uniform01() < 0.3 ? 0.0 : rng.uniform(0.0, 0.02);

    const bool exact_rta =
        analysis::response_time_analysis(tasks, blocking).schedulable;
    const bool exact_lsd =
        analysis::lsd_point_test_all(tasks, blocking).schedulable;
    ASSERT_EQ(exact_rta, exact_lsd) << "exact analyses split at trial "
                                    << trial;
    ASSERT_EQ(exact_rta, analysis::rta_feasible_fast(tasks, blocking))
        << "rta_feasible_fast disagrees at trial " << trial;
    (exact_rta ? schedulable : infeasible) += 1;
  }
  // The corpus must exercise both verdicts, or the agreement is vacuous.
  EXPECT_GT(schedulable, 100);
  EXPECT_GT(infeasible, 100);
}

// ---- deadline-point certificate ------------------------------------------------------
//
// rta_feasible_fast passes a task without a fixpoint when the fixpoint's
// right-hand side at r = D_i is at most D_i and the arrival counts keep the
// iteration cap out of reach (deadline_certifies). An accept must mean the
// cold fixpoint converges; a decline decides nothing and leaves the task to
// the fixpoint.

TEST(DeadlineCertificate, AcceptsOnlyTasksWhoseColdFixpointConverges) {
  int accepts = 0;
  int declined_converging = 0;
  for (std::uint64_t trial = 0; trial < 10'000; ++trial) {
    Rng rng = exec::make_trial_rng(0xFA57, trial);
    const auto tasks = random_task_set(rng);
    const Seconds blocking =
        rng.uniform01() < 0.3 ? 0.0 : rng.uniform(0.0, 0.02);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      analysis::RtaStatus status = analysis::RtaStatus::kConverged;
      const auto cold = analysis::response_time(tasks, i, blocking, &status);
      if (analysis::deadline_certifies(tasks, i, blocking)) {
        ASSERT_EQ(status, analysis::RtaStatus::kConverged)
            << "trial " << trial << " task " << i;
        ++accepts;
      } else if (cold) {
        ++declined_converging;
      }
    }
  }
  EXPECT_GT(accepts, 10'000);
  EXPECT_GT(declined_converging, 1'000);
}

TEST(DeadlineCertificate, ExactTieAcceptsAndTheFixpointDecidesTheRest) {
  // Dyadic values, so every sum is exact: f(D_1) = B + C_1 + 2 C_0 =
  // 0.75 + 0.5 + 0.5 = 1.75 = D_1 (and f(D_0) = 1 = D_0). Neither task is
  // hyperbolic-screened, so the deadline point decides both.
  std::vector<analysis::FpTask> tasks = {{1.0, 0.25, 0.0}, {1.75, 0.5, 0.0}};
  const Seconds blocking = 0.75;
  EXPECT_TRUE(analysis::deadline_certifies(tasks, 0, blocking));
  EXPECT_TRUE(analysis::deadline_certifies(tasks, 1, blocking));
  analysis::RtaSearchState state;
  EXPECT_TRUE(analysis::rta_feasible_fast(tasks, blocking, &state));
  EXPECT_TRUE(analysis::response_time_analysis(tasks, blocking).schedulable);
  EXPECT_EQ(state.work.deadline_accepts, 2u);
  EXPECT_EQ(state.work.fixpoint_runs, 0u);

  // One ulp less deadline puts f(D_1) one ulp above D_1: declined, and the
  // fixpoint (r = 1.25 -> 1.75 > D_1) rejects, as the cold analysis does.
  tasks[1].period = std::nextafter(1.75, 0.0);
  EXPECT_FALSE(analysis::deadline_certifies(tasks, 1, blocking));
  state = {};
  EXPECT_FALSE(analysis::rta_feasible_fast(tasks, blocking, &state));
  EXPECT_FALSE(analysis::response_time_analysis(tasks, blocking).schedulable);
  EXPECT_EQ(state.work.fixpoint_runs, 1u);

  // A decline is no verdict: f(D_1) = 0.25 + 2 * 0.625 > D_1 = 1.0625, yet
  // the fixpoint converges at 0.875.
  const std::vector<analysis::FpTask> early = {{1.0, 0.625, 0.0},
                                               {1.0625, 0.25, 0.0}};
  EXPECT_FALSE(analysis::deadline_certifies(early, 1, 0.0));
  state = {};
  EXPECT_TRUE(analysis::rta_feasible_fast(early, 0.0, &state));
  EXPECT_EQ(analysis::response_time(early, 1, 0.0), 0.875);
  EXPECT_EQ(state.work.fixpoint_runs, 1u);
}

TEST(DeadlineCertificate, CountGuardKeepsTheIterationCapOutOfReach) {
  // U_0 = 1 - 2^-16 and P_1/P_0 = 2^16: f(D_1) = 0.5 + (1 - 2^-16) * 2^16
  // = 2^16 - 0.5 <= D_1, but the cold fixpoint raises ceil(r/P_0) by one
  // per iteration for ~2^15 iterations and stops at the cap. The count sum
  // 2^16 + 2 reaches kMaxRtaIterations, so the certificate declines and
  // the verdict stays the cold RTA's conservative one.
  const std::vector<analysis::FpTask> tasks = {
      {1.0, 1.0 - std::ldexp(1.0, -16), 0.0}, {65536.0, 0.5, 0.0}};
  ASSERT_LE(tasks[1].cost + tasks[0].cost * std::ceil(tasks[1].period /
                                                      tasks[0].period),
            tasks[1].period);
  EXPECT_FALSE(analysis::deadline_certifies(tasks, 1, 0.0));
  const auto cold = analysis::response_time_analysis(tasks, 0.0);
  EXPECT_FALSE(cold.schedulable);
  EXPECT_EQ(cold.iteration_cap_hits, 1u);
  EXPECT_FALSE(analysis::rta_feasible_fast(tasks, 0.0));
  analysis::RtaSearchState state;
  EXPECT_FALSE(analysis::rta_feasible_fast(tasks, 0.0, &state));
  EXPECT_EQ(state.work.deadline_accepts, 0u);
}

TEST(FastKernelDifferential, ScaleKernelsMatchPredicatesScaleForScale) {
  int schedulable = 0;
  int infeasible = 0;
  for (std::uint64_t trial = 0; trial < 1'000; ++trial) {
    Rng rng = exec::make_trial_rng(0x5CA1E, trial);
    const int n = static_cast<int>(rng.uniform_int(1, 16));
    auto gen = generator(n, milliseconds(rng.uniform(20.0, 200.0)),
                         rng.uniform(1.0, 10.0));
    auto base = gen.generate(rng);
    if (rng.uniform01() < 0.05) {
      // Degenerate all-zero payload set: kernels must still agree.
      std::vector<msg::SyncStream> zeroed = base.streams();
      for (auto& s : zeroed) s.payload_bits = 0.0;
      base = msg::MessageSet{std::move(zeroed)};
    }
    const BitsPerSecond bw = mbps(rng.uniform(4.0, 200.0));
    const auto pdp = pdp_params(n, analysis::PdpVariant::kModified8025);
    const auto ttp = ttp_params(n);
    const Seconds pinned_ttrt = milliseconds(rng.uniform(0.5, 20.0));

    const std::span<const msg::MessageSet> lane(&base, 1);
    const analysis::PdpBatchKernel pdp_kernel(lane, pdp, bw);
    const analysis::TtpBatchKernel ttp_kernel(lane, ttp, bw);
    const analysis::TtpBatchKernel ttp_kernel_at(lane, ttp, bw, pinned_ttrt);
    const auto verdict = [](const auto& kernel, double scale) {
      const double scales[] = {scale};
      const std::uint8_t active[] = {1};
      std::uint8_t verdicts[] = {0};
      kernel.evaluate(scales, active, verdicts);
      return verdicts[0] != 0;
    };

    // Random probe order, including scale 0, exercises the PDP kernel's
    // carried search state (failed-task hint, warm start and the cost
    // dominance witnesses) with costs that rise and fall between probes.
    for (int probe = 0; probe < 5; ++probe) {
      const double scale =
          probe == 0 ? 0.0 : rng.uniform(0.0, 50.0);
      const auto scaled = base.scaled(scale);
      const bool pdp_ref = analysis::pdp_feasible(scaled, pdp, bw);
      ASSERT_EQ(verdict(pdp_kernel, scale), pdp_ref)
          << "PDP kernel disagrees at trial " << trial << " scale " << scale;
      ASSERT_EQ(verdict(ttp_kernel, scale),
                analysis::ttp_feasible(scaled, ttp, bw))
          << "TTP kernel disagrees at trial " << trial << " scale " << scale;
      ASSERT_EQ(verdict(ttp_kernel_at, scale),
                analysis::ttp_feasible_at(scaled, ttp, bw, pinned_ttrt))
          << "pinned-TTRT kernel disagrees at trial " << trial << " scale "
          << scale;
      (pdp_ref ? schedulable : infeasible) += 1;
    }
  }
  EXPECT_GT(schedulable, 100);
  EXPECT_GT(infeasible, 100);
}

// ---- warm-start differential ---------------------------------------------------------
//
// With a search state, rta_feasible_fast starts each fixpoint from the
// task's last committed response while neither the blocking nor any cost up
// to it has fallen. One state per task set is driven first through cost
// vectors that rise, fall (some costs only), repeat and lose one ulp on one
// cost under a fixed blocking, then through blocking terms that rise, fall,
// move against the costs, lose one ulp and rise with them, and then through
// the whole schedule three more times from where it ended; every verdict
// must be the cold analysis's, and every response the state holds after a
// schedulable step must be the cold response time, bit for bit. Tasks the
// deadline point passes hold no response, so the later rounds keep the
// held-response count up.

TEST(WarmStartDifferential, VerdictsAndHeldResponsesMatchColdRtaOn10kTaskSets) {
  int schedulable = 0;
  int infeasible = 0;
  int held = 0;
  int below_commit = 0;  // probes whose blocking is under the committed one
  std::uint64_t certified = 0;  // tasks the deadline point passed
  for (std::uint64_t trial = 0; trial < 10'000; ++trial) {
    Rng rng = exec::make_trial_rng(0x3A125, trial);
    const auto base = random_task_set(rng);
    Seconds blocking = rng.uniform01() < 0.3 ? 0.0 : rng.uniform(0.0, 0.02);

    auto tasks = base;
    const auto scale_all = [&](double factor) {
      for (auto& t : tasks) t.cost *= factor;
    };
    const auto scale_some = [&](double lo, double hi) {
      for (auto& t : tasks) t.cost *= rng.uniform(lo, hi);
    };
    const auto raise_blocking = [&] {
      blocking = blocking * rng.uniform(1.0, 1.5) + rng.uniform(0.0, 0.004);
    };
    const auto lower_blocking = [&] { blocking *= rng.uniform(0.2, 0.95); };
    analysis::RtaSearchState state;
    for (int step = 0; step < 4 * 14; ++step) {
      switch (step % 14) {
        case 0: scale_all(rng.uniform(0.3, 0.8)); break;  // first probe
        case 1: scale_all(rng.uniform(1.0, 1.3)); break;  // rise
        case 2: scale_some(0.6, 1.1); break;              // mixed fall
        case 3: break;                                    // repeat
        case 4: scale_all(rng.uniform(1.0, 1.5)); break;  // rise
        case 5: {                                         // one ulp down
          auto& t = tasks[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(tasks.size()) -
                                     1))];
          t.cost = std::nextafter(t.cost, 0.0);
          break;
        }
        case 6: scale_all(rng.uniform(0.5, 0.9)); break;  // fall
        case 7: scale_all(rng.uniform(1.0, 2.0)); break;  // rise
        // From here on the blocking moves too.
        case 8: raise_blocking(); break;                  // blocking rises
        case 9: lower_blocking(); break;                  // blocking falls
        case 10:                                          // cost rise,
          scale_all(rng.uniform(1.0, 1.5));               // blocking fall
          lower_blocking();
          break;
        case 11:                                          // cost fall,
          scale_all(rng.uniform(0.5, 0.9));               // blocking rise
          raise_blocking();
          break;
        case 12:                                          // blocking one
          blocking = std::nextafter(blocking, 0.0);       // ulp down
          break;
        default:                                          // both rise
          scale_all(rng.uniform(1.0, 1.3));
          raise_blocking();
          break;
      }
      const bool cold =
          analysis::response_time_analysis(tasks, blocking).schedulable;
      if (blocking < state.blocking) ++below_commit;
      ASSERT_EQ(analysis::rta_feasible_fast(tasks, blocking, &state), cold)
          << "trial " << trial << " step " << step;
      (cold ? schedulable : infeasible) += 1;
      if (!cold) continue;
      ASSERT_EQ(state.response.size(), tasks.size());
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (state.response[i] == 0.0) continue;  // screened: none held
        const auto r = analysis::response_time(tasks, i, blocking);
        ASSERT_TRUE(r.has_value());
        ASSERT_EQ(std::bit_cast<std::uint64_t>(state.response[i]),
                  std::bit_cast<std::uint64_t>(*r))
            << "trial " << trial << " step " << step << " task " << i;
        ++held;
      }
    }
    certified += state.work.deadline_accepts;
  }
  EXPECT_GT(schedulable, 1000);
  EXPECT_GT(infeasible, 1000);
  EXPECT_GT(held, 10'000);
  EXPECT_GT(below_commit, 1000);
  EXPECT_GT(certified, 100'000u);
}

// ---- batched (SoA) kernel differential -----------------------------------------------
//
// The batch kernels (PdpBatchKernel, TtpBatchKernel) and the lockstep
// bisector (find_saturation_batch) claim bit-identity with the paper's
// predicates and the scalar search. These tests pin that claim on
// randomized corpora: lockstep verdicts verdict-for-verdict against
// pdp_feasible, ttp_feasible and ttp_feasible_at on the scaled sets
// (including masked lanes, zero-payload lanes and deadline-infeasible
// q_i < 2 TTP lanes), and every field of the batched saturation results
// against per-lane find_saturation searches over the same predicates.

/// One BatchScaleKernel view over a concrete SoA kernel instance.
template <typename Kernel>
breakdown::BatchScaleKernel as_batch_kernel(const Kernel& kernel) {
  return [&kernel](std::span<const double> scales,
                   std::span<const std::uint8_t> active,
                   std::span<std::uint8_t> verdicts) {
    kernel.evaluate(scales, active, verdicts);
  };
}

TEST(BatchKernelDifferential, LockstepVerdictsMatchPredicates) {
  constexpr std::size_t kLanes = 6;
  int schedulable = 0;
  int infeasible = 0;
  int zero_payload_lanes = 0;
  int low_q_lanes = 0;
  for (std::uint64_t trial = 0; trial < 300; ++trial) {
    Rng rng = exec::make_trial_rng(0xBA7C, trial);
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    auto gen = generator(n, milliseconds(rng.uniform(20.0, 200.0)),
                         rng.uniform(1.0, 10.0));
    std::vector<msg::MessageSet> bases;
    bases.reserve(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
      msg::MessageSet base = gen.generate(rng);
      if (l == 2 && rng.uniform01() < 0.5) {
        // Degenerate zero-payload lane: the full-width SoA cost loops must
        // keep it exactly 0 next to live lanes.
        std::vector<msg::SyncStream> zeroed = base.streams();
        for (auto& s : zeroed) s.payload_bits = 0.0;
        base = msg::MessageSet{std::move(zeroed)};
        ++zero_payload_lanes;
      }
      bases.push_back(std::move(base));
    }
    const BitsPerSecond bw = mbps(rng.uniform(4.0, 200.0));
    // Alternate variants so both token-overhead branches of the batched
    // cost loop (per-frame vs per-message) face the predicate.
    const auto variant = trial % 2 == 0 ? analysis::PdpVariant::kModified8025
                                        : analysis::PdpVariant::kStandard8025;
    const auto pdp = pdp_params(n, variant);
    const auto ttp = ttp_params(n);
    const Seconds pinned_ttrt = milliseconds(rng.uniform(0.5, 40.0));
    // The PDP comparison must not be vacuous about blocking.
    ASSERT_GT(analysis::pdp_blocking(pdp, bw), 0.0);
    for (const auto& base : bases) {
      double min_deadline = base.streams()[0].deadline();
      for (const auto& s : base.streams()) {
        min_deadline = std::min(min_deadline, s.deadline());
      }
      if (min_deadline / pinned_ttrt < 2.0) ++low_q_lanes;
    }

    const analysis::PdpBatchKernel pdp_batch(bases, pdp, bw);
    const analysis::TtpBatchKernel ttp_batch(bases, ttp, bw);
    const analysis::TtpBatchKernel ttp_batch_at(bases, ttp, bw, pinned_ttrt);

    std::vector<double> scales(kLanes, 0.0);
    const auto pdp_ref = [&](std::size_t l) {
      return analysis::pdp_feasible(bases[l].scaled(scales[l]), pdp, bw);
    };
    const auto ttp_ref = [&](std::size_t l) {
      return analysis::ttp_feasible(bases[l].scaled(scales[l]), ttp, bw);
    };
    const auto ttp_at_ref = [&](std::size_t l) {
      return analysis::ttp_feasible_at(bases[l].scaled(scales[l]), ttp, bw,
                                       pinned_ttrt);
    };
    std::vector<std::uint8_t> verdicts(kLanes, 0);
    for (int probe = 0; probe < 4; ++probe) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        scales[l] = probe == 0 ? 0.0 : rng.uniform(0.0, 50.0);
      }
      pdp_batch.evaluate(scales, verdicts);
      for (std::size_t l = 0; l < kLanes; ++l) {
        const bool ref = pdp_ref(l);
        ASSERT_EQ(verdicts[l] != 0, ref)
            << "PDP lane " << l << " disagrees at trial " << trial
            << " scale " << scales[l];
        (ref ? schedulable : infeasible) += 1;
      }
      ttp_batch.evaluate(scales, verdicts);
      for (std::size_t l = 0; l < kLanes; ++l) {
        ASSERT_EQ(verdicts[l] != 0, ttp_ref(l))
            << "TTP lane " << l << " disagrees at trial " << trial
            << " scale " << scales[l];
      }
      ttp_batch_at.evaluate(scales, verdicts);
      for (std::size_t l = 0; l < kLanes; ++l) {
        ASSERT_EQ(verdicts[l] != 0, ttp_at_ref(l))
            << "pinned-TTRT lane " << l << " disagrees at trial " << trial
            << " scale " << scales[l];
      }
    }

    // Masked evaluation: inactive lanes keep their verdict slot untouched,
    // active lanes still match the predicate.
    constexpr std::uint8_t kSentinel = 0xEE;
    std::vector<std::uint8_t> active(kLanes, 0);
    for (std::size_t l = 0; l < kLanes; ++l) {
      active[l] = l % 2 == 0 ? 1 : 0;
      scales[l] = rng.uniform(0.0, 50.0);
      verdicts[l] = kSentinel;
    }
    pdp_batch.evaluate(scales, active, verdicts);
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (active[l] != 0) {
        ASSERT_EQ(verdicts[l] != 0, pdp_ref(l))
            << "masked PDP lane " << l << " disagrees at trial " << trial;
      } else {
        ASSERT_EQ(verdicts[l], kSentinel)
            << "inactive PDP lane " << l << " was written at trial " << trial;
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) verdicts[l] = kSentinel;
    ttp_batch_at.evaluate(scales, active, verdicts);
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (active[l] != 0) {
        ASSERT_EQ(verdicts[l] != 0, ttp_at_ref(l))
            << "masked TTP lane " << l << " disagrees at trial " << trial;
      } else {
        ASSERT_EQ(verdicts[l], kSentinel)
            << "inactive TTP lane " << l << " was written at trial " << trial;
      }
    }
  }
  // The corpus must exercise both verdicts and the degenerate lane shapes.
  EXPECT_GT(schedulable, 100);
  EXPECT_GT(infeasible, 100);
  EXPECT_GT(zero_payload_lanes, 10);
  EXPECT_GT(low_q_lanes, 10);
}

TEST(BatchKernelDifferential, BatchedSaturationMatchesScalarFieldForField) {
  constexpr std::size_t kLanes = 5;
  int found = 0;
  int degenerate = 0;
  int unbounded = 0;
  for (std::uint64_t trial = 0; trial < 120; ++trial) {
    Rng rng = exec::make_trial_rng(0x5A7B, trial);
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    auto gen = generator(n, milliseconds(rng.uniform(20.0, 200.0)),
                         rng.uniform(1.0, 10.0));
    std::vector<msg::MessageSet> bases;
    bases.reserve(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) bases.push_back(gen.generate(rng));
    const BitsPerSecond bw = mbps(rng.uniform(2.0, 500.0));
    const auto variant = trial % 2 == 0 ? analysis::PdpVariant::kModified8025
                                        : analysis::PdpVariant::kStandard8025;
    const auto pdp = pdp_params(n, variant);
    const auto ttp = ttp_params(n);
    // A large pinned TTRT manufactures deadline-infeasible (q_i < 2) lanes,
    // which must surface as degenerate_zero in batch and scalar alike.
    const Seconds pinned_ttrt = milliseconds(rng.uniform(0.5, 60.0));
    // A tight max_scale on some trials manufactures "unbounded" lanes
    // (bracketing walks off the top), covering the third outcome class.
    breakdown::SaturationOptions options;
    if (trial % 3 == 0) options.max_scale = 4.0;

    const auto expect_match = [&](const breakdown::SaturationResult& got,
                                  const breakdown::SaturationResult& ref,
                                  std::size_t lane, const char* what) {
      EXPECT_EQ(got.found, ref.found)
          << what << " lane " << lane << " trial " << trial;
      EXPECT_EQ(got.degenerate_zero, ref.degenerate_zero)
          << what << " lane " << lane << " trial " << trial;
      EXPECT_EQ(got.critical_scale, ref.critical_scale)
          << what << " lane " << lane << " trial " << trial;
      EXPECT_EQ(got.breakdown_utilization, ref.breakdown_utilization)
          << what << " lane " << lane << " trial " << trial;
      EXPECT_EQ(got.predicate_evals, ref.predicate_evals)
          << what << " lane " << lane << " trial " << trial;
      found += got.found ? 1 : 0;
      degenerate += got.degenerate_zero ? 1 : 0;
      unbounded += (!got.found && !got.degenerate_zero) ? 1 : 0;
    };

    const analysis::PdpBatchKernel pdp_batch(bases, pdp, bw);
    const auto pdp_results =
        breakdown::find_saturation_batch(
            bases, as_batch_kernel(pdp_batch), bw, options);
    for (std::size_t l = 0; l < kLanes; ++l) {
      const auto ref = breakdown::find_saturation(
          bases[l],
          [&](const msg::MessageSet& m) {
            return analysis::pdp_feasible(m, pdp, bw);
          },
          bw, options);
      expect_match(pdp_results[l], ref, l, "PDP");
    }

    const analysis::TtpBatchKernel ttp_batch(bases, ttp, bw);
    const auto ttp_results =
        breakdown::find_saturation_batch(
            bases, as_batch_kernel(ttp_batch), bw, options);
    for (std::size_t l = 0; l < kLanes; ++l) {
      const auto ref = breakdown::find_saturation(
          bases[l],
          [&](const msg::MessageSet& m) {
            return analysis::ttp_feasible(m, ttp, bw);
          },
          bw, options);
      expect_match(ttp_results[l], ref, l, "TTP");
    }

    const analysis::TtpBatchKernel ttp_batch_at(bases, ttp, bw, pinned_ttrt);
    const auto ttp_at_results = breakdown::find_saturation_batch(
        bases, as_batch_kernel(ttp_batch_at), bw, options);
    for (std::size_t l = 0; l < kLanes; ++l) {
      const auto ref = breakdown::find_saturation(
          bases[l],
          [&](const msg::MessageSet& m) {
            return analysis::ttp_feasible_at(m, ttp, bw, pinned_ttrt);
          },
          bw, options);
      expect_match(ttp_at_results[l], ref, l, "pinned-TTRT");
    }
  }
  // All three scalar outcome classes must appear, or bit-identity on the
  // interesting paths is vacuous.
  EXPECT_GT(found, 100);
  EXPECT_GT(degenerate, 10);
  EXPECT_GT(unbounded, 0);
}

// ---- cost dominance in the batch kernel -----------------------------------------------
//
// PdpBatchKernel answers a lane's probe without the RTA when every cost is
// at or below the costs of the lane's last schedulable RTA probe (pass), or
// at or above those of its last unschedulable one (fail). Every probe a
// lockstep search makes, answered or not, must carry the cold verdict of
// pdp_feasible on the scaled set.

TEST(BatchKernelDominance, EveryProbeMatchesColdPdpOn10kSets) {
  constexpr std::size_t kLanes = 8;
  constexpr std::uint64_t kBatches = 1'250;  // 10'000 sets
  std::uint64_t probes = 0;
  int degenerate = 0;
  int frame_dominated = 0;
  int short_framed = 0;
  int multiple_lanes = 0;
  const auto exact_probes = [] {
    const auto snap = obs::Registry::global().snapshot();
    const auto it = snap.counters.find("breakdown.exact_probes");
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  const std::uint64_t exact_before = exact_probes();
  for (std::uint64_t trial = 0; trial < kBatches; ++trial) {
    Rng rng = exec::make_trial_rng(0xD0A1, trial);
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    const auto pdp =
        pdp_params(n, trial % 2 == 0 ? analysis::PdpVariant::kModified8025
                                     : analysis::PdpVariant::kStandard8025);
    const BitsPerSecond bw = mbps(rng.uniform(1.0, 500.0));
    // Every eighth batch has periods of a few blocking terms, where the
    // blocking alone can miss a deadline: the zero probe fails before any
    // schedulable probe gives the lane a pass witness.
    const Seconds mean =
        trial % 8 == 3
            ? analysis::pdp_blocking(pdp, bw) * rng.uniform(0.5, 3.0)
            : milliseconds(rng.uniform(2.0, 200.0));
    auto gen = generator(n, mean, rng.uniform(1.0, 10.0));
    const bool dominated_by_frames =
        pdp.frame.frame_time(bw) <= pdp.ring.theta(bw);
    (dominated_by_frames ? frame_dominated : short_framed) += kLanes;
    std::vector<msg::MessageSet> bases;
    bases.reserve(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
      msg::MessageSet base = gen.generate(rng);
      if (l % 2 == 1) {
        // Payloads at exact frame multiples, where an augmented length is
        // not bitwise monotone in the scale.
        std::vector<msg::SyncStream> snapped = base.streams();
        for (auto& st : snapped) {
          st.payload_bits =
              std::max(1.0, std::round(st.payload_bits / pdp.frame.info_bits)) *
              pdp.frame.info_bits;
        }
        base = msg::MessageSet{std::move(snapped)};
        ++multiple_lanes;
      }
      bases.push_back(std::move(base));
    }

    const analysis::PdpBatchKernel kernel(bases, pdp, bw);
    struct Probe {
      std::size_t lane;
      double scale;
      bool verdict;
    };
    std::vector<Probe> log;
    const breakdown::BatchScaleKernel recorded =
        [&](std::span<const double> scales,
            std::span<const std::uint8_t> active,
            std::span<std::uint8_t> verdicts) {
          kernel.evaluate(scales, active, verdicts);
          for (std::size_t l = 0; l < kLanes; ++l) {
            if (active[l]) log.push_back({l, scales[l], verdicts[l] != 0});
          }
        };
    const auto results =
        breakdown::find_saturation_batch(bases, recorded, bw, {});
    for (const auto& r : results) degenerate += r.degenerate_zero ? 1 : 0;
    for (const Probe& p : log) {
      ASSERT_EQ(p.verdict,
                analysis::pdp_feasible(bases[p.lane].scaled(p.scale), pdp, bw))
          << "trial " << trial << " lane " << p.lane << " scale " << p.scale;
    }
    probes += log.size();
  }
  const std::uint64_t answered = probes - (exact_probes() - exact_before);
  // The corpus must reach both cost stages, degenerate zero probes (where
  // blocking alone misses a deadline) and exact frame multiples.
  EXPECT_GT(frame_dominated, 1'000);
  EXPECT_GT(short_framed, 1'000);
  EXPECT_GT(degenerate, 100);
  EXPECT_GT(multiple_lanes, 1'000);
  // Dominance answers 57,111 of the 295,012 probes; the pass witness alone
  // answers 12,982 and the fail witness alone 44,129, so the floor needs
  // both rules.
  EXPECT_GT(answered, 50'000u);
}

TEST(BatchKernelDominance, FailWitnessComparesCostsNotScales) {
  // Just below an exact frame multiple a payload sends K - 1 full frames
  // and a last frame of almost F; at the multiple, K full frames. In
  // floating point the first can cost an ulp more, so a probe at a larger
  // scale can be schedulable where a smaller one was not. One stream whose
  // period is exactly B + C at the multiple separates the two, and the
  // fail witness must not answer the larger scale.
  const auto pdp = pdp_params(2, analysis::PdpVariant::kModified8025);
  const double below = std::nextafter(1.0, 0.0);
  int found = 0;
  for (double bw_mbps : {1.0, 2.0, 4.0, 10.0, 16.0}) {
    const BitsPerSecond bw = mbps(bw_mbps);
    if (pdp.frame.frame_time(bw) <= pdp.ring.theta(bw)) continue;
    const Seconds blocking = analysis::pdp_blocking(pdp, bw);
    for (int k = 1; k <= 4'000 && found < 3; ++k) {
      msg::SyncStream stream{1.0, k * pdp.frame.info_bits, 0};
      const Seconds at = analysis::pdp_augmented_length(stream, pdp, bw);
      msg::SyncStream shy = stream;
      shy.payload_bits *= below;
      const Seconds shy_cost = analysis::pdp_augmented_length(shy, pdp, bw);
      stream.period = blocking + at;
      if (!(blocking + shy_cost > stream.period)) continue;
      const msg::MessageSet base{{stream}};
      ASSERT_FALSE(analysis::pdp_feasible(base.scaled(below), pdp, bw));
      ASSERT_TRUE(analysis::pdp_feasible(base.scaled(1.0), pdp, bw));
      const analysis::PdpBatchKernel kernel({&base, 1}, pdp, bw);
      std::vector<std::uint8_t> verdict(1, 0xEE);
      kernel.evaluate(std::vector<double>{below}, verdict);
      EXPECT_EQ(verdict[0], 0) << bw_mbps << " Mbps, k = " << k;
      kernel.evaluate(std::vector<double>{1.0}, verdict);
      EXPECT_EQ(verdict[0], 1) << bw_mbps << " Mbps, k = " << k;
      ++found;
    }
  }
  EXPECT_GT(found, 0);
}

// ---- TTRT scaling ---------------------------------------------------------------------

TEST(TtrtProperty, SelectionScalesWithSqrtTheta) {
  // For fixed periods, TTRT ~ sqrt(Theta): quadrupling Theta (via ring
  // size at fixed bandwidth contributions) roughly doubles the bid, as
  // long as the P_min/2 clamp stays inactive.
  msg::MessageSet set;
  set.add({.period = milliseconds(400), .payload_bits = 1.0, .station = 0});
  const Seconds theta = microseconds(50);
  const Seconds bid1 = analysis::ttrt_bid(milliseconds(400), theta);
  const Seconds bid4 = analysis::ttrt_bid(milliseconds(400), 4.0 * theta);
  EXPECT_NEAR(bid4 / bid1, 2.0, 1e-9);
}

}  // namespace
}  // namespace tokenring
