#include "tokenring/planner/advisor.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tokenring/common/checks.hpp"
#include "tokenring/exec/executor.hpp"
#include "tokenring/obs/registry.hpp"

namespace tokenring::planner {
namespace {

TrafficProfile small_profile() {
  TrafficProfile p;
  p.num_stations = 20;  // small for test speed
  p.mean_period = milliseconds(100);
  p.period_ratio = 10.0;
  return p;
}

TEST(Advisor, ProfileConvertsToSetup) {
  const auto setup = small_profile().to_setup();
  EXPECT_EQ(setup.num_stations, 20);
  EXPECT_DOUBLE_EQ(setup.mean_period, milliseconds(100));
  EXPECT_DOUBLE_EQ(setup.period_ratio, 10.0);
}

TEST(Advisor, RecommendsPdpAtLowBandwidth) {
  // The paper's conclusion: priority-driven wins at 1-10 Mbps.
  const auto rec =
      recommend_protocol(small_profile(), {mbps(4)}, 25, 1, exec::Executor(1))
          .front();
  EXPECT_EQ(rec.best, Protocol::kModified8025);
  EXPECT_GT(rec.modified8025, rec.fddi);
  EXPECT_GE(rec.modified8025, rec.ieee8025);
}

TEST(Advisor, RecommendsTtpAtHighBandwidth) {
  // ... and the timed token wins at >= 100 Mbps.
  const auto rec = recommend_protocol(small_profile(), {mbps(200)}, 25, 1,
                                      exec::Executor(1))
                       .front();
  EXPECT_EQ(rec.best, Protocol::kFddi);
  EXPECT_GT(rec.fddi, rec.modified8025);
  EXPECT_GT(rec.margin, 1.0);
}

TEST(Advisor, EstimateAccessorMatchesFields) {
  const auto rec = recommend_protocol(small_profile(), {mbps(50)}, 10, 2,
                                      exec::Executor(1))
                       .front();
  EXPECT_DOUBLE_EQ(rec.estimate(Protocol::kIeee8025), rec.ieee8025);
  EXPECT_DOUBLE_EQ(rec.estimate(Protocol::kModified8025), rec.modified8025);
  EXPECT_DOUBLE_EQ(rec.estimate(Protocol::kFddi), rec.fddi);
  EXPECT_DOUBLE_EQ(rec.estimate(rec.best),
                   std::max({rec.ieee8025, rec.modified8025, rec.fddi}));
}

TEST(Advisor, DeterministicForFixedSeed) {
  const exec::Executor inline_executor(1);
  const auto a =
      recommend_protocol(small_profile(), {mbps(50)}, 12, 7, inline_executor)
          .front();
  // The batch size is a throughput knob only: every field of the default
  // batch-64 answer is bit-identical at batch 1 and 5 (12 sets leave a
  // remainder chunk).
  for (std::size_t batch : {std::size_t{1}, std::size_t{5}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    const auto b = recommend_protocol(small_profile(), {mbps(50)}, 12, 7,
                                      inline_executor, batch)
                       .front();
    EXPECT_EQ(a.best, b.best);
    EXPECT_EQ(a.ieee8025, b.ieee8025);
    EXPECT_EQ(a.modified8025, b.modified8025);
    EXPECT_EQ(a.fddi, b.fddi);
    EXPECT_EQ(a.margin, b.margin);
    EXPECT_EQ(a.modified8025_resilience, b.modified8025_resilience);
    EXPECT_EQ(a.fddi_resilience, b.fddi_resilience);
  }
}

TEST(Advisor, RecommendationBitsAndSearchWorkAreFrozen) {
  // Every Recommendation field, bit for bit, captured from a Release build
  // in which the resilience margins still came from a second, separate
  // sweep with cold-started PDP margin bisections. The 4 Mbps cases have
  // degenerate draws (the 5 ms one only those: every estimate 0, every
  // resilience -1); no set count is a multiple of 8 or 64.
  struct Case {
    int stations;
    double mean_period_ms;
    double period_ratio;
    double mbps;
    std::size_t sets;
    std::uint64_t seed;
    Recommendation want;
  };
  const auto rec = [](Protocol best, double ieee8025, double modified8025,
                      double fddi, double margin, double modified_resilience,
                      double fddi_resilience) {
    Recommendation r;
    r.best = best;
    r.ieee8025 = ieee8025;
    r.modified8025 = modified8025;
    r.fddi = fddi;
    r.margin = margin;
    r.modified8025_resilience = modified_resilience;
    r.fddi_resilience = fddi_resilience;
    return r;
  };
  const std::vector<Case> cases = {
      {40, 20, 10, 4, 21, 3,
       rec(Protocol::kModified8025, 0x1.02ff5f28c6abp-1, 0x1.2195f0bd788cp-1,
           0x1.e2d2bf93d565cp-8, 0x1.1e3bf0c14f87dp+0, 0x1.33cf3cf3cf3cfp+3,
           -0x1.9e79e79e79e7ap-1)},
      {40, 5, 10, 4, 9, 4,
       rec(Protocol::kIeee8025, 0x0p+0, 0x0p+0, 0x0p+0, 0x1p+0, -0x1p+0,
           -0x1p+0)},
      {30, 100, 10, 622, 13, 5,
       rec(Protocol::kFddi, 0x1.17388d94ec028p-5, 0x1.a23a1b7064dccp-5,
           0x1.e2caec2f1d4dp-1, 0x1.27856abcb3be5p+4, 0x1.613b13b13b13bp+9,
           0x1.6276276276276p+2)},
      {20, 50, 4, 100, 37, 11,
       rec(Protocol::kFddi, 0x1.1a7a0b1b8f79cp-2, 0x1.a72cf3a62bdbep-2,
           0x1.cdf982eabdad8p-1, 0x1.1778b3401fb08p+1, 0x1.52d67c8a60dd6p+9,
           0x1.01bacf914c1bbp+2)},
      {12, 100, 10, 16, 70, 7,
       rec(Protocol::kFddi, 0x1.4305d7026299p-1, 0x1.6b958f8d35efap-1,
           0x1.a715aef1e6509p-1, 0x1.29e4f3c28339ep+0, 0x1.0e1d41d41d41dp+8,
           0x1.475075075075p+1)},
      {5, 20, 2, 10, 1, 9,
       rec(Protocol::kFddi, 0x1.3aeba58f0417bp-1, 0x1.4b740b386fp-1,
           0x1.8785fb0256f8cp-1, 0x1.2e653e8d85b7bp+0, 0x1.68p+5, 0x1p+0)},
  };
  const auto profile_of = [](const Case& c) {
    TrafficProfile p;
    p.num_stations = c.stations;
    p.mean_period = milliseconds(c.mean_period_ms);
    p.period_ratio = c.period_ratio;
    return p;
  };
  for (const Case& c : cases) {
    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      const exec::Executor executor(jobs);
      for (std::size_t batch :
           {std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
        SCOPED_TRACE(std::to_string(c.stations) + " stations, " +
                     std::to_string(c.mbps) + " Mbps, " +
                     std::to_string(c.sets) + " sets, jobs=" +
                     std::to_string(jobs) + " batch=" + std::to_string(batch));
        const auto got = recommend_protocol(profile_of(c), {mbps(c.mbps)},
                                            c.sets, c.seed, executor, batch)
                             .front();
        EXPECT_EQ(got.best, c.want.best);
        EXPECT_EQ(got.ieee8025, c.want.ieee8025);
        EXPECT_EQ(got.modified8025, c.want.modified8025);
        EXPECT_EQ(got.fddi, c.want.fddi);
        EXPECT_EQ(got.margin, c.want.margin);
        EXPECT_EQ(got.modified8025_resilience, c.want.modified8025_resilience);
        EXPECT_EQ(got.fddi_resilience, c.want.fddi_resilience);
      }
    }
  }

  // The work of one call. The margins ride on the protocol sweep, so there
  // is one dispatch, and the boundary searches are the three sweep points'
  // alone: the same count as a sweep of the bare points (the separate
  // resilience sweep made 2 dispatches and 4,984 evaluations). Every
  // drawn set with a boundary still gets one margin query per protocol.
  // The RTA counters include the PDP margin bisections, which
  // pdp_fault_margin records once per query. The deadline point certifies
  // most tasks of both searches, and cost dominance answers most boundary
  // probes, so the fixpoint counts are the budget of all three shortcuts
  // (the warm start alone took 5,560 runs and 16,180 iterations).
  const auto counter = [](const obs::MetricsSnapshot& snap,
                          const std::string& name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  const auto measure = [&](const auto& run) {
    const auto before = obs::Registry::global().snapshot();
    run();
    const auto after = obs::Registry::global().snapshot();
    return [before, after, counter](const std::string& name) {
      return counter(after, name) - counter(before, name);
    };
  };
  const Case& c = cases[3];
  const exec::Executor inline_executor(1);
  const auto advise = measure([&] {
    recommend_protocol(profile_of(c), {mbps(c.mbps)}, c.sets, c.seed,
                       inline_executor);
  });
  const auto sweep = measure([&] {
    std::vector<breakdown::SweepPoint> points;
    experiments::add_protocol_points(points, profile_of(c).to_setup(),
                                     mbps(c.mbps), c.sets, c.seed);
    experiments::estimate_points(points, inline_executor, 64);
  });
  EXPECT_EQ(advise("exec.parallel_for_calls"), 1u);
  EXPECT_EQ(advise("breakdown.predicate_evals"),
            sweep("breakdown.predicate_evals"));
  EXPECT_EQ(advise("breakdown.predicate_evals"), 2'974u);
  EXPECT_EQ(advise("fault.margin_queries"), 74u);
  EXPECT_GT(advise("analysis.rta.fixpoint_runs"),
            sweep("analysis.rta.fixpoint_runs"));
  EXPECT_EQ(advise("analysis.rta.fixpoint_runs"), 2'127u);
  EXPECT_EQ(advise("analysis.rta.iterations"), 8'196u);
}

TEST(Advisor, EveryBandwidthSharesOneDispatch) {
  // Two bandwidths in one call, as `tokenring_tool advise --stations=20
  // --sets=12 --bandwidths-mbps=4,100` asks for them: one parallel_for
  // carries both bandwidths' work items, and each recommendation is bit
  // for bit what a call for its bandwidth alone returns.
  const exec::Executor executor(4);
  const auto counter = [](const obs::MetricsSnapshot& snap,
                          const std::string& name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  const std::vector<BitsPerSecond> bandwidths = {mbps(4), mbps(100)};
  const auto before = obs::Registry::global().snapshot();
  const auto both =
      recommend_protocol(small_profile(), bandwidths, 12, 1, executor);
  const auto after = obs::Registry::global().snapshot();
  const auto delta = [&](const std::string& name) {
    return counter(after, name) - counter(before, name);
  };
  EXPECT_EQ(delta("exec.parallel_for_calls"), 1u);
  EXPECT_EQ(delta("exec.parallel_for_tasks"), 6u);  // 3 points x 2, 1 group

  ASSERT_EQ(both.size(), bandwidths.size());
  for (std::size_t i = 0; i < bandwidths.size(); ++i) {
    SCOPED_TRACE("bandwidth " + std::to_string(i));
    const auto alone =
        recommend_protocol(small_profile(), {bandwidths[i]}, 12, 1, executor)
            .front();
    EXPECT_EQ(both[i].best, alone.best);
    EXPECT_EQ(both[i].ieee8025, alone.ieee8025);
    EXPECT_EQ(both[i].modified8025, alone.modified8025);
    EXPECT_EQ(both[i].fddi, alone.fddi);
    EXPECT_EQ(both[i].margin, alone.margin);
    EXPECT_EQ(both[i].modified8025_resilience, alone.modified8025_resilience);
    EXPECT_EQ(both[i].fddi_resilience, alone.fddi_resilience);
  }
}

TEST(Advisor, Preconditions) {
  const exec::Executor inline_executor(1);
  EXPECT_THROW(
      recommend_protocol(small_profile(), {0.0}, 10, 1, inline_executor),
      PreconditionError);
  EXPECT_THROW(recommend_protocol(small_profile(), {mbps(10), 0.0}, 10, 1,
                                  inline_executor),
               PreconditionError);
  EXPECT_THROW(recommend_protocol(small_profile(), {}, 10, 1, inline_executor),
               PreconditionError);
  EXPECT_THROW(
      recommend_protocol(small_profile(), {mbps(10)}, 0, 1, inline_executor),
      PreconditionError);
}

}  // namespace
}  // namespace tokenring::planner
