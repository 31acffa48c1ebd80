#include "tokenring/breakdown/saturation.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tokenring/analysis/kernels.hpp"
#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/msg/generator.hpp"
#include "tokenring/net/standards.hpp"

namespace tokenring::breakdown {
namespace {

msg::MessageSet simple_set() {
  msg::MessageSet set;
  set.add({.period = milliseconds(10), .payload_bits = 1'000.0, .station = 0});
  set.add({.period = milliseconds(20), .payload_bits = 4'000.0, .station = 1});
  return set;
}

TEST(Saturation, AnalyticUtilizationThreshold) {
  // Predicate: utilization at 1 Mbps <= 0.8. The base set has utilization
  // 0.1 + 0.2 = 0.3, so the critical scale is 0.8 / 0.3.
  const BitsPerSecond bw = mbps(1);
  const auto predicate = [bw](const msg::MessageSet& m) {
    return m.utilization(bw) <= 0.8;
  };
  const auto res = find_saturation(simple_set(), predicate, bw);
  ASSERT_TRUE(res.found);
  EXPECT_FALSE(res.degenerate_zero);
  EXPECT_NEAR(res.critical_scale, 0.8 / 0.3, 1e-4);
  EXPECT_NEAR(res.breakdown_utilization, 0.8, 1e-4);
}

TEST(Saturation, TightToleranceTightensResult) {
  const BitsPerSecond bw = mbps(1);
  const auto predicate = [bw](const msg::MessageSet& m) {
    return m.utilization(bw) <= 0.5;
  };
  SaturationOptions opts;
  opts.relative_tolerance = 1e-10;
  const auto res = find_saturation(simple_set(), predicate, bw, opts);
  ASSERT_TRUE(res.found);
  EXPECT_NEAR(res.breakdown_utilization, 0.5, 1e-8);
}

TEST(Saturation, BracketsUpwardFromSmallInitialScale) {
  const BitsPerSecond bw = mbps(1);
  const auto predicate = [bw](const msg::MessageSet& m) {
    return m.utilization(bw) <= 0.9;
  };
  SaturationOptions opts;
  opts.initial_scale = 1e-6;  // far below the boundary
  const auto res = find_saturation(simple_set(), predicate, bw, opts);
  ASSERT_TRUE(res.found);
  EXPECT_NEAR(res.breakdown_utilization, 0.9, 1e-4);
}

TEST(Saturation, BracketsDownwardFromLargeInitialScale) {
  const BitsPerSecond bw = mbps(1);
  const auto predicate = [bw](const msg::MessageSet& m) {
    return m.utilization(bw) <= 0.2;
  };
  SaturationOptions opts;
  opts.initial_scale = 1e6;  // far above the boundary
  const auto res = find_saturation(simple_set(), predicate, bw, opts);
  ASSERT_TRUE(res.found);
  EXPECT_NEAR(res.breakdown_utilization, 0.2, 1e-4);
}

TEST(Saturation, DegenerateWhenPredicateFailsAtZero) {
  const auto never = [](const msg::MessageSet&) { return false; };
  const auto res = find_saturation(simple_set(), never, mbps(1));
  EXPECT_FALSE(res.found);
  EXPECT_TRUE(res.degenerate_zero);
}

TEST(Saturation, UnboundedWhenPredicateNeverFails) {
  const auto always = [](const msg::MessageSet&) { return true; };
  SaturationOptions opts;
  opts.max_scale = 1e6;
  const auto res = find_saturation(simple_set(), always, mbps(1), opts);
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.degenerate_zero);
  EXPECT_GT(res.critical_scale, 0.0);
}

TEST(Saturation, CriticalScaleIsOnSchedulableSide) {
  // The reported scale must itself satisfy the predicate (it is the lower
  // bracket end).
  const BitsPerSecond bw = mbps(1);
  const auto predicate = [bw](const msg::MessageSet& m) {
    return m.utilization(bw) <= 0.7;
  };
  const auto res = find_saturation(simple_set(), predicate, bw);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(predicate(simple_set().scaled(res.critical_scale)));
  EXPECT_FALSE(predicate(simple_set().scaled(res.critical_scale * 1.001)));
}

TEST(Saturation, WorksAgainstRealPdpCriterion) {
  analysis::PdpParams p;
  p.ring = net::ieee8025_ring(2);
  p.frame = net::paper_frame_format();
  p.variant = analysis::PdpVariant::kModified8025;
  const BitsPerSecond bw = mbps(10);
  const auto predicate = [&](const msg::MessageSet& m) {
    return analysis::pdp_feasible(m, p, bw);
  };
  const auto res = find_saturation(simple_set(), predicate, bw);
  ASSERT_TRUE(res.found);
  EXPECT_GT(res.breakdown_utilization, 0.1);
  EXPECT_LT(res.breakdown_utilization, 1.0);
  // Boundary property: schedulable at the critical scale, not above.
  EXPECT_TRUE(predicate(simple_set().scaled(res.critical_scale)));
  EXPECT_FALSE(predicate(simple_set().scaled(res.critical_scale * 1.01)));
}

TEST(Saturation, WorksAgainstRealTtpCriterion) {
  analysis::TtpParams p;
  p.ring = net::fddi_ring(2);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  const BitsPerSecond bw = mbps(100);
  const auto predicate = [&](const msg::MessageSet& m) {
    return analysis::ttp_feasible(m, p, bw);
  };
  const auto res = find_saturation(simple_set(), predicate, bw);
  ASSERT_TRUE(res.found);
  EXPECT_GT(res.breakdown_utilization, 0.3);
  EXPECT_LT(res.breakdown_utilization, 1.0);
}

// ---- scale-space kernel path -------------------------------------------------

/// The kernel path's scalar case: find_saturation_batch over one lane.
template <typename Kernel>
SaturationResult one_lane_search(const msg::MessageSet& base,
                                 const Kernel& kernel, BitsPerSecond bw) {
  return find_saturation_batch(
             {&base, 1},
             [&kernel](std::span<const double> scales,
                       std::span<const std::uint8_t> active,
                       std::span<std::uint8_t> verdicts) {
               kernel.evaluate(scales, active, verdicts);
             },
             bw)
      .front();
}

TEST(SaturationKernel, PdpKernelPathIsBitIdenticalToPredicatePath) {
  // Same bisection, same verdicts => same probe sequence: critical scale,
  // utilization and probe count must match the predicate path exactly, not
  // approximately, over a corpus of random sets.
  analysis::PdpParams p;
  p.ring = net::ieee8025_ring(8);
  p.frame = net::paper_frame_format();
  p.variant = analysis::PdpVariant::kModified8025;
  const BitsPerSecond bw = mbps(16);
  const auto predicate = [&](const msg::MessageSet& m) {
    return analysis::pdp_feasible(m, p, bw);
  };
  msg::GeneratorConfig g;
  g.num_streams = 8;
  g.mean_period = milliseconds(100);
  msg::MessageSetGenerator gen(g);
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const auto base = gen.generate(rng);
    const auto ref = find_saturation(base, predicate, bw);
    const auto fast = one_lane_search(
        base, analysis::PdpBatchKernel({&base, 1}, p, bw), bw);
    ASSERT_EQ(ref.found, fast.found) << "trial " << trial;
    EXPECT_EQ(ref.critical_scale, fast.critical_scale) << "trial " << trial;
    EXPECT_EQ(ref.breakdown_utilization, fast.breakdown_utilization)
        << "trial " << trial;
    EXPECT_EQ(ref.degenerate_zero, fast.degenerate_zero);
    EXPECT_EQ(ref.predicate_evals, fast.predicate_evals) << "trial " << trial;
  }
}

TEST(SaturationKernel, TtpKernelPathIsBitIdenticalToPredicatePath) {
  analysis::TtpParams p;
  p.ring = net::fddi_ring(8);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  const BitsPerSecond bw = mbps(100);
  const auto predicate = [&](const msg::MessageSet& m) {
    return analysis::ttp_feasible(m, p, bw);
  };
  msg::GeneratorConfig g;
  g.num_streams = 8;
  g.mean_period = milliseconds(100);
  msg::MessageSetGenerator gen(g);
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    const auto base = gen.generate(rng);
    const auto ref = find_saturation(base, predicate, bw);
    const auto fast = one_lane_search(
        base, analysis::TtpBatchKernel({&base, 1}, p, bw), bw);
    ASSERT_EQ(ref.found, fast.found) << "trial " << trial;
    EXPECT_EQ(ref.critical_scale, fast.critical_scale) << "trial " << trial;
    EXPECT_EQ(ref.breakdown_utilization, fast.breakdown_utilization)
        << "trial " << trial;
    EXPECT_EQ(ref.predicate_evals, fast.predicate_evals) << "trial " << trial;
  }
}

TEST(SaturationKernel, PredicateEvalsCountsEveryProbe) {
  // The analytic-threshold search must report a plausible probe count:
  // at least the bracketing probes plus ~log2(1/tol) bisection steps.
  const BitsPerSecond bw = mbps(1);
  const auto predicate = [bw](const msg::MessageSet& m) {
    return m.utilization(bw) <= 0.8;
  };
  const auto res = find_saturation(simple_set(), predicate, bw);
  ASSERT_TRUE(res.found);
  EXPECT_GE(res.predicate_evals, 20);
  EXPECT_LE(res.predicate_evals, 200);
}

TEST(SaturationKernel, ChunkedSearchMatchesScalarSearchForEveryChunkSize) {
  // One kernel per chunk of `batch` bases, and every result equals the
  // scalar search of its own base. 7 bases, so batch 5 leaves a remainder.
  const BitsPerSecond bw = mbps(1);
  const SchedulablePredicate predicate = [bw](const msg::MessageSet& m) {
    return m.utilization(bw) <= 0.8;
  };
  msg::GeneratorConfig g;
  g.num_streams = 6;
  msg::MessageSetGenerator gen(g);
  Rng rng(103);
  std::vector<msg::MessageSet> bases;
  for (int i = 0; i < 7; ++i) bases.push_back(gen.generate(rng));

  std::size_t kernels_built = 0;
  const BatchScaleKernelFactory factory =
      [&](std::span<const msg::MessageSet> chunk) {
        ++kernels_built;
        std::vector<msg::MessageSet> sets(chunk.begin(), chunk.end());
        return BatchScaleKernel([sets, predicate](
                                    std::span<const double> scales,
                                    std::span<const std::uint8_t> active,
                                    std::span<std::uint8_t> verdicts) {
          for (std::size_t l = 0; l < sets.size(); ++l) {
            if (active[l]) verdicts[l] = predicate(sets[l].scaled(scales[l]));
          }
        });
      };
  for (std::size_t batch : {std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    kernels_built = 0;
    const auto results = find_saturation_chunked(bases, factory, bw, batch);
    EXPECT_EQ(kernels_built, (bases.size() + batch - 1) / batch);
    ASSERT_EQ(results.size(), bases.size());
    for (std::size_t i = 0; i < bases.size(); ++i) {
      const auto ref = find_saturation(bases[i], predicate, bw);
      EXPECT_EQ(results[i].found, ref.found) << "base " << i;
      EXPECT_EQ(results[i].critical_scale, ref.critical_scale) << "base " << i;
      EXPECT_EQ(results[i].breakdown_utilization, ref.breakdown_utilization)
          << "base " << i;
      EXPECT_EQ(results[i].predicate_evals, ref.predicate_evals)
          << "base " << i;
    }
  }
  EXPECT_THROW(find_saturation_chunked(bases, factory, bw, 0),
               PreconditionError);
}

TEST(Saturation, Preconditions) {
  const auto always = [](const msg::MessageSet&) { return true; };
  msg::MessageSet empty;
  EXPECT_THROW(find_saturation(empty, always, mbps(1)), PreconditionError);

  msg::MessageSet zero;
  zero.add({.period = milliseconds(10), .payload_bits = 0.0, .station = 0});
  EXPECT_THROW(find_saturation(zero, always, mbps(1)), PreconditionError);

  SaturationOptions bad;
  bad.relative_tolerance = 0.0;
  EXPECT_THROW(find_saturation(simple_set(), always, mbps(1), bad),
               PreconditionError);
  bad = {};
  bad.initial_scale = 0.0;
  EXPECT_THROW(find_saturation(simple_set(), always, mbps(1), bad),
               PreconditionError);
  EXPECT_THROW(find_saturation(simple_set(), always, 0.0), PreconditionError);
}

}  // namespace
}  // namespace tokenring::breakdown
