#include "tokenring/analysis/pdp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "tokenring/common/checks.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/msg/generator.hpp"
#include "tokenring/net/standards.hpp"

namespace tokenring::analysis {
namespace {

PdpParams params(PdpVariant variant, int stations = 100) {
  PdpParams p;
  p.ring = net::ieee8025_ring(stations);
  p.frame = net::paper_frame_format();
  p.variant = variant;
  return p;
}

msg::SyncStream stream(Seconds period, Bits payload, int station = 0) {
  return msg::SyncStream{period, payload, station};
}

// ---- augmented length: F > Theta regime (low bandwidth) ---------------------

TEST(PdpAugmented, LowBandwidthFullFramesExactMultiple) {
  // At 1 Mbps: F = 624 us > Theta ~= 468.4 us. Payload 1024 bits = exactly
  // 2 full frames: K = L = 2.
  const BitsPerSecond bw = mbps(1);
  const auto p_std = params(PdpVariant::kStandard8025);
  const Seconds theta = p_std.ring.theta(bw);
  const Seconds frame = p_std.frame.frame_time(bw);
  ASSERT_GT(frame, theta);

  const auto s = stream(milliseconds(100), 1'024.0);
  // Standard: 2F + 2 * Theta/2.
  EXPECT_NEAR(pdp_augmented_length(s, p_std, bw), 2.0 * frame + theta, 1e-12);
  // Modified: 2F + Theta/2 (token overhead once).
  const auto p_mod = params(PdpVariant::kModified8025);
  EXPECT_NEAR(pdp_augmented_length(s, p_mod, bw), 2.0 * frame + theta / 2.0,
              1e-12);
}

TEST(PdpAugmented, LowBandwidthShortLastFrameAboveTheta) {
  // Payload 1000 bits: L=1 full frame (512), last frame 488+112=600 bits.
  // At 1 Mbps last-frame time 600us > Theta, so it costs its own length.
  const BitsPerSecond bw = mbps(1);
  const auto p = params(PdpVariant::kStandard8025);
  const Seconds theta = p.ring.theta(bw);
  const Seconds frame = p.frame.frame_time(bw);
  const Seconds last = transmission_time(1'000.0 - 512.0 + 112.0, bw);
  ASSERT_GT(last, theta);

  const auto s = stream(milliseconds(100), 1'000.0);
  EXPECT_NEAR(pdp_augmented_length(s, p, bw), frame + last + 2.0 * theta / 2.0,
              1e-12);
}

TEST(PdpAugmented, LowBandwidthShortLastFrameBelowThetaPaysTheta) {
  // Payload 552 bits: L=1, last frame 40+112=152 bits = 152us < Theta
  // at 1 Mbps -> the last frame's slot is Theta (header return wait).
  const BitsPerSecond bw = mbps(1);
  const auto p = params(PdpVariant::kStandard8025);
  const Seconds theta = p.ring.theta(bw);
  const Seconds frame = p.frame.frame_time(bw);
  ASSERT_LT(transmission_time(552.0 - 512.0 + 112.0, bw), theta);

  const auto s = stream(milliseconds(100), 552.0);
  EXPECT_NEAR(pdp_augmented_length(s, p, bw), frame + theta + 2.0 * theta / 2.0,
              1e-12);
}

// ---- augmented length: F <= Theta regime (high bandwidth) --------------------

TEST(PdpAugmented, HighBandwidthEveryFrameCostsTheta) {
  // At 100 Mbps: F = 6.24 us << Theta ~= 48.7 us.
  const BitsPerSecond bw = mbps(100);
  const auto p_std = params(PdpVariant::kStandard8025);
  const Seconds theta = p_std.ring.theta(bw);
  ASSERT_LE(p_std.frame.frame_time(bw), theta);

  const auto s = stream(milliseconds(100), 5 * 512.0);  // K = 5 frames
  // Standard: K*Theta + K*Theta/2 = 1.5*K*Theta.
  EXPECT_NEAR(pdp_augmented_length(s, p_std, bw), 1.5 * 5.0 * theta, 1e-12);
  // Modified: K*Theta + Theta/2.
  const auto p_mod = params(PdpVariant::kModified8025);
  EXPECT_NEAR(pdp_augmented_length(s, p_mod, bw), 5.0 * theta + theta / 2.0,
              1e-12);
}

TEST(PdpAugmented, VariantsDifferByPerFrameTokenOverhead) {
  // C'_std - C'_mod = (K-1) * Theta / 2 in every regime.
  for (double bw_mbps : {1.0, 4.0, 16.0, 100.0, 622.0}) {
    const BitsPerSecond bw = mbps(bw_mbps);
    const auto p_std = params(PdpVariant::kStandard8025);
    const auto p_mod = params(PdpVariant::kModified8025);
    const Seconds theta = p_std.ring.theta(bw);
    for (double payload : {100.0, 512.0, 5'000.0, 51'200.0}) {
      const auto s = stream(milliseconds(100), payload);
      const auto k = p_std.frame.frames_for_payload(payload);
      const Seconds diff = pdp_augmented_length(s, p_std, bw) -
                           pdp_augmented_length(s, p_mod, bw);
      EXPECT_NEAR(diff, static_cast<double>(k - 1) * theta / 2.0, 1e-12)
          << "bw=" << bw_mbps << " payload=" << payload;
    }
  }
}

TEST(PdpAugmented, ZeroPayloadCostsNothing) {
  // No message, no token pass: both variants, both frame regimes.
  for (PdpVariant v : {PdpVariant::kStandard8025, PdpVariant::kModified8025}) {
    for (double bw_mbps : {1.0, 10.0, 100.0, 1000.0}) {
      EXPECT_EQ(pdp_augmented_length(stream(0.1, 0.0), params(v), mbps(bw_mbps)),
                0.0)
          << to_string(v) << " at " << bw_mbps << " Mbps";
    }
  }
}

TEST(PdpAugmented, MonotoneInPayload) {
  const auto p = params(PdpVariant::kStandard8025);
  for (double bw_mbps : {1.0, 10.0, 100.0}) {
    const BitsPerSecond bw = mbps(bw_mbps);
    Seconds prev = 0.0;
    for (double payload = 0.0; payload <= 4'096.0; payload += 64.0) {
      const Seconds c = pdp_augmented_length(stream(0.1, payload), p, bw);
      EXPECT_GE(c, prev - 1e-15) << "payload=" << payload << " bw=" << bw_mbps;
      prev = c;
    }
  }
}

TEST(PdpAugmented, AlwaysAtLeastRawTransmissionTime) {
  Rng rng(5);
  const auto p = params(PdpVariant::kModified8025);
  for (int i = 0; i < 200; ++i) {
    const double payload = rng.uniform(1.0, 100'000.0);
    const BitsPerSecond bw = mbps(rng.uniform(1.0, 1'000.0));
    const auto s = stream(milliseconds(100), payload);
    EXPECT_GE(pdp_augmented_length(s, p, bw),
              transmission_time(payload, bw) - 1e-15);
  }
}

// ---- blocking ---------------------------------------------------------------

TEST(PdpBlocking, TwiceMaxOfFrameAndTheta) {
  const auto p = params(PdpVariant::kStandard8025);
  // Low bandwidth: F > Theta -> B = 2F.
  EXPECT_NEAR(pdp_blocking(p, mbps(1)), 2.0 * p.frame.frame_time(mbps(1)),
              1e-15);
  // High bandwidth: Theta > F -> B = 2*Theta.
  EXPECT_NEAR(pdp_blocking(p, mbps(100)), 2.0 * p.ring.theta(mbps(100)),
              1e-15);
}

// ---- verdicts ----------------------------------------------------------------

TEST(PdpVerdictTest, EmptySetSchedulable) {
  const auto p = params(PdpVariant::kStandard8025);
  EXPECT_TRUE(pdp_schedulable(msg::MessageSet{}, p, mbps(10)).schedulable);
}

TEST(PdpVerdictTest, SmallSetSchedulableAt16Mbps) {
  msg::MessageSet set;
  set.add(stream(milliseconds(20), bytes(1'000), 0));
  set.add(stream(milliseconds(50), bytes(2'000), 1));
  const auto p = params(PdpVariant::kStandard8025, 8);
  const auto v = pdp_schedulable(set, p, mbps(16));
  EXPECT_TRUE(v.schedulable);
  ASSERT_EQ(v.reports.size(), 2u);
  EXPECT_TRUE(v.reports[0].schedulable);
  EXPECT_TRUE(v.reports[1].schedulable);
  EXPECT_LE(*v.reports[0].response_time, milliseconds(20));
}

TEST(PdpVerdictTest, ReportsSortedByPeriod) {
  msg::MessageSet set;
  set.add(stream(milliseconds(50), 512.0, 0));
  set.add(stream(milliseconds(10), 512.0, 1));
  const auto p = params(PdpVariant::kStandard8025, 8);
  const auto v = pdp_schedulable(set, p, mbps(16));
  EXPECT_EQ(v.reports[0].stream.station, 1);
  EXPECT_EQ(v.reports[1].stream.station, 0);
}

TEST(PdpVerdictTest, GrossOverloadFails) {
  msg::MessageSet set;
  // One station wants 15 ms of payload every 10 ms.
  set.add(stream(milliseconds(10), 15'000.0, 0));
  const auto p = params(PdpVariant::kStandard8025, 8);
  const auto v = pdp_schedulable(set, p, mbps(1));
  EXPECT_FALSE(v.schedulable);
  EXPECT_FALSE(v.reports[0].schedulable);
}

TEST(PdpVerdictTest, ModifiedSchedulesWhereStandardFails) {
  // High bandwidth + many frames: the per-frame token overhead of the
  // standard implementation is the differentiator the paper highlights.
  msg::MessageSet set;
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    set.add(stream(milliseconds(10), 40.0 * 512.0, i));  // 40 frames each
  }
  const auto bw = mbps(100);
  const auto p_std = params(PdpVariant::kStandard8025, n);
  const auto p_mod = params(PdpVariant::kModified8025, n);
  const bool std_ok = pdp_feasible(set, p_std, bw);
  const bool mod_ok = pdp_feasible(set, p_mod, bw);
  EXPECT_FALSE(std_ok);
  EXPECT_TRUE(mod_ok);
}

TEST(PdpVerdictTest, FeasibleMatchesFullVerdict) {
  Rng rng(11);
  msg::GeneratorConfig g;
  g.num_streams = 20;
  g.mean_period = milliseconds(50);
  msg::MessageSetGenerator gen(g);
  const auto p = params(PdpVariant::kStandard8025, 20);
  for (int trial = 0; trial < 30; ++trial) {
    const auto set = gen.generate(rng).scaled(rng.uniform(0.1, 60.0));
    const BitsPerSecond bw = mbps(rng.uniform(1.0, 200.0));
    EXPECT_EQ(pdp_feasible(set, p, bw), pdp_schedulable(set, p, bw).schedulable)
        << "trial " << trial;
  }
}

TEST(PdpVerdictTest, LsdAgreesWithRtaOnRandomSets) {
  Rng rng(13);
  msg::GeneratorConfig g;
  g.num_streams = 12;
  g.mean_period = milliseconds(80);
  msg::MessageSetGenerator gen(g);
  for (auto variant :
       {PdpVariant::kStandard8025, PdpVariant::kModified8025}) {
    const auto p = params(variant, 12);
    for (int trial = 0; trial < 25; ++trial) {
      const auto set = gen.generate(rng).scaled(rng.uniform(1.0, 80.0));
      const BitsPerSecond bw = mbps(rng.uniform(2.0, 100.0));
      const auto rta = pdp_schedulable(set, p, bw);
      const auto lsd = pdp_schedulable_lsd(set, p, bw);
      ASSERT_EQ(rta.schedulable, lsd.schedulable)
          << "variant=" << to_string(variant) << " trial=" << trial;
    }
  }
}

TEST(PdpVerdictTest, SchedulabilityMonotoneInScale) {
  Rng rng(17);
  msg::GeneratorConfig g;
  g.num_streams = 15;
  msg::MessageSetGenerator gen(g);
  const auto p = params(PdpVariant::kModified8025, 15);
  const BitsPerSecond bw = mbps(10);
  for (int trial = 0; trial < 20; ++trial) {
    const auto base = gen.generate(rng);
    bool prev = true;
    for (double scale : {1.0, 5.0, 20.0, 80.0, 320.0}) {
      const bool ok = pdp_feasible(base.scaled(scale), p, bw);
      if (!prev) {
        EXPECT_FALSE(ok) << "non-monotone at scale " << scale;
      }
      prev = ok;
    }
  }
}

TEST(PdpVerdictTest, InvalidInputsThrow) {
  const auto p = params(PdpVariant::kStandard8025);
  msg::MessageSet set;
  set.add(stream(milliseconds(10), 100.0));
  EXPECT_THROW(pdp_schedulable(set, p, 0.0), PreconditionError);
  auto bad = p;
  bad.ring.num_stations = 0;
  EXPECT_THROW(pdp_schedulable(set, bad, mbps(10)), PreconditionError);
}

TEST(PdpVariantName, Strings) {
  EXPECT_STREQ(to_string(PdpVariant::kStandard8025), "IEEE 802.5");
  EXPECT_STREQ(to_string(PdpVariant::kModified8025), "Modified IEEE 802.5");
}

}  // namespace
}  // namespace tokenring::analysis
