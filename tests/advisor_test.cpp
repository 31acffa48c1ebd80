#include "tokenring/planner/advisor.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "tokenring/common/checks.hpp"
#include "tokenring/exec/executor.hpp"

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
  const auto rec = recommend_protocol(small_profile(), mbps(4), 25, 1,
                                      exec::Executor(1));
  EXPECT_EQ(rec.best, Protocol::kModified8025);
  EXPECT_GT(rec.modified8025, rec.fddi);
  EXPECT_GE(rec.modified8025, rec.ieee8025);
}

TEST(Advisor, RecommendsTtpAtHighBandwidth) {
  // ... and the timed token wins at >= 100 Mbps.
  const auto rec = recommend_protocol(small_profile(), mbps(200), 25, 1,
                                      exec::Executor(1));
  EXPECT_EQ(rec.best, Protocol::kFddi);
  EXPECT_GT(rec.fddi, rec.modified8025);
  EXPECT_GT(rec.margin, 1.0);
}

TEST(Advisor, EstimateAccessorMatchesFields) {
  const auto rec = recommend_protocol(small_profile(), mbps(50), 10, 2,
                                      exec::Executor(1));
  EXPECT_DOUBLE_EQ(rec.estimate(Protocol::kIeee8025), rec.ieee8025);
  EXPECT_DOUBLE_EQ(rec.estimate(Protocol::kModified8025), rec.modified8025);
  EXPECT_DOUBLE_EQ(rec.estimate(Protocol::kFddi), rec.fddi);
  EXPECT_DOUBLE_EQ(rec.estimate(rec.best),
                   std::max({rec.ieee8025, rec.modified8025, rec.fddi}));
}

TEST(Advisor, DeterministicForFixedSeed) {
  const exec::Executor inline_executor(1);
  const auto a =
      recommend_protocol(small_profile(), mbps(50), 12, 7, inline_executor);
  // The batch size is a throughput knob only: every field of the default
  // batch-64 answer is bit-identical at batch 1 and 5 (12 sets leave a
  // remainder chunk).
  for (std::size_t batch : {std::size_t{1}, std::size_t{5}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    const auto b = recommend_protocol(small_profile(), mbps(50), 12, 7,
                                      inline_executor, batch);
    EXPECT_EQ(a.best, b.best);
    EXPECT_EQ(a.ieee8025, b.ieee8025);
    EXPECT_EQ(a.modified8025, b.modified8025);
    EXPECT_EQ(a.fddi, b.fddi);
    EXPECT_EQ(a.margin, b.margin);
    EXPECT_EQ(a.modified8025_resilience, b.modified8025_resilience);
    EXPECT_EQ(a.fddi_resilience, b.fddi_resilience);
  }
}

TEST(Advisor, Preconditions) {
  const exec::Executor inline_executor(1);
  EXPECT_THROW(
      recommend_protocol(small_profile(), 0.0, 10, 1, inline_executor),
      PreconditionError);
  EXPECT_THROW(
      recommend_protocol(small_profile(), mbps(10), 0, 1, inline_executor),
      PreconditionError);
}

}  // namespace
}  // namespace tokenring::planner
