#include "tokenring/breakdown/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tokenring/analysis/kernels.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/exec/seed_stream.hpp"
#include "tokenring/net/standards.hpp"

namespace tokenring::breakdown {
namespace {

msg::MessageSetGenerator small_generator() {
  msg::GeneratorConfig g;
  g.num_streams = 10;
  g.mean_period = milliseconds(100);
  g.period_ratio = 10.0;
  return msg::MessageSetGenerator(g);
}

TEST(MonteCarlo, ClosedFormPredicateRecoversThreshold) {
  // Against "utilization <= 0.8" every saturated sample lands exactly on
  // 0.8, so the estimator must return 0.8 with ~zero variance.
  const BitsPerSecond bw = mbps(10);
  const SchedulablePredicate predicate = [bw](const msg::MessageSet& m) {
    return m.utilization(bw) <= 0.8;
  };
  auto gen = small_generator();
  const exec::Executor seq(1);
  MonteCarloOptions opts;
  opts.num_sets = 25;
  const auto est =
      estimate_breakdown_utilization(gen, predicate, bw, 1, seq, opts);
  EXPECT_EQ(est.utilization.count(), 25u);
  EXPECT_NEAR(est.mean(), 0.8, 1e-4);
  EXPECT_LT(est.utilization.stddev(), 1e-4);
  EXPECT_EQ(est.degenerate_sets, 0u);
  EXPECT_EQ(est.unbounded_sets, 0u);
}

TEST(MonteCarlo, DegenerateSamplesCountAsZero) {
  const SchedulablePredicate never = [](const msg::MessageSet&) {
    return false;
  };
  auto gen = small_generator();
  const exec::Executor seq(1);
  MonteCarloOptions opts;
  opts.num_sets = 5;
  const auto est =
      estimate_breakdown_utilization(gen, never, mbps(10), 3, seq, opts);
  EXPECT_EQ(est.degenerate_sets, 5u);
  EXPECT_EQ(est.utilization.count(), 5u);
  EXPECT_DOUBLE_EQ(est.mean(), 0.0);
}

TEST(MonteCarlo, UnboundedSamplesExcluded) {
  const SchedulablePredicate always = [](const msg::MessageSet&) {
    return true;
  };
  auto gen = small_generator();
  const exec::Executor seq(1);
  MonteCarloOptions opts;
  opts.num_sets = 5;
  opts.saturation.max_scale = 100.0;
  const auto est =
      estimate_breakdown_utilization(gen, always, mbps(10), 4, seq, opts);
  EXPECT_EQ(est.unbounded_sets, 5u);
  EXPECT_EQ(est.utilization.count(), 0u);
}

TEST(MonteCarlo, RealTtpEstimateIsInPlausibleRange) {
  // FDDI at 100 Mbps with 10 stations: average breakdown utilization should
  // land comfortably between the 33% worst case and 100%.
  const BitsPerSecond bw = mbps(100);
  analysis::TtpParams p;
  p.ring = net::fddi_ring(10);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  const SchedulablePredicate predicate = [&](const msg::MessageSet& m) {
    return analysis::ttp_feasible(m, p, bw);
  };
  auto gen = small_generator();
  const exec::Executor seq(1);
  MonteCarloOptions opts;
  opts.num_sets = 30;
  const auto est =
      estimate_breakdown_utilization(gen, predicate, bw, 7, seq, opts);
  EXPECT_GT(est.mean(), 0.5);
  EXPECT_LT(est.mean(), 1.0);
  EXPECT_GT(est.ci95(), 0.0);
}

TEST(MonteCarlo, KeepSamplesRecordsEveryDraw) {
  const BitsPerSecond bw = mbps(10);
  const SchedulablePredicate predicate = [bw](const msg::MessageSet& m) {
    return m.utilization(bw) <= 0.5;
  };
  auto gen = small_generator();
  const exec::Executor seq(1);
  MonteCarloOptions opts;
  opts.num_sets = 12;
  opts.keep_samples = true;
  const auto est =
      estimate_breakdown_utilization(gen, predicate, bw, 6, seq, opts);
  ASSERT_EQ(est.samples.size(), 12u);
  for (double s : est.samples) EXPECT_NEAR(s, 0.5, 1e-4);
}

TEST(MonteCarlo, SamplesOffByDefault) {
  const SchedulablePredicate predicate = [](const msg::MessageSet& m) {
    return m.utilization(mbps(10)) <= 0.5;
  };
  auto gen = small_generator();
  const exec::Executor seq(1);
  MonteCarloOptions opts;
  opts.num_sets = 3;
  const auto est =
      estimate_breakdown_utilization(gen, predicate, mbps(10), 6, seq, opts);
  EXPECT_TRUE(est.samples.empty());
  EXPECT_THROW(est.quantile(0.5), PreconditionError);
}

TEST(MonteCarlo, QuantilesAreOrderedAndBracketed) {
  const BitsPerSecond bw = mbps(100);
  analysis::TtpParams p;
  p.ring = net::fddi_ring(10);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  const SchedulablePredicate predicate = [&](const msg::MessageSet& m) {
    return analysis::ttp_feasible(m, p, bw);
  };
  auto gen = small_generator();
  const exec::Executor seq(1);
  MonteCarloOptions opts;
  opts.num_sets = 40;
  opts.keep_samples = true;
  const auto est =
      estimate_breakdown_utilization(gen, predicate, bw, 8, seq, opts);
  const double q10 = est.quantile(0.1);
  const double q50 = est.quantile(0.5);
  const double q90 = est.quantile(0.9);
  EXPECT_LE(q10, q50);
  EXPECT_LE(q50, q90);
  EXPECT_DOUBLE_EQ(est.quantile(0.0), est.utilization.min());
  EXPECT_DOUBLE_EQ(est.quantile(1.0), est.utilization.max());
  EXPECT_THROW(est.quantile(1.5), PreconditionError);
}

TEST(MonteCarloParallel, JobsCountDoesNotChangeTheEstimate) {
  // The headline invariant of the exec/ subsystem: for a fixed master seed
  // the BreakdownEstimate is bit-identical for every jobs value, because
  // trial RNGs are keyed by (seed, trial index) and shards are folded in a
  // fixed order. Compare every field exactly — no tolerances.
  const BitsPerSecond bw = mbps(100);
  analysis::TtpParams p;
  p.ring = net::fddi_ring(10);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  const SchedulablePredicate predicate = [&](const msg::MessageSet& m) {
    return analysis::ttp_feasible(m, p, bw);
  };
  auto gen = small_generator();
  MonteCarloOptions opts;
  opts.num_sets = 40;
  opts.keep_samples = true;

  const exec::Executor seq(1);
  const exec::Executor par(8);
  const auto a = estimate_breakdown_utilization(gen, predicate, bw, 42, seq, opts);
  const auto b = estimate_breakdown_utilization(gen, predicate, bw, 42, par, opts);

  EXPECT_EQ(a.utilization.count(), b.utilization.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.ci95(), b.ci95());
  EXPECT_EQ(a.utilization.variance(), b.utilization.variance());
  EXPECT_EQ(a.utilization.min(), b.utilization.min());
  EXPECT_EQ(a.utilization.max(), b.utilization.max());
  EXPECT_EQ(a.degenerate_sets, b.degenerate_sets);
  EXPECT_EQ(a.unbounded_sets, b.unbounded_sets);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i], b.samples[i]) << "sample " << i;
  }
}

TEST(MonteCarloParallel, SamplesAreInTrialIndexOrder) {
  // Recompute each trial independently via its seed stream: samples[k] must
  // be the breakdown of trial k regardless of which worker ran it.
  const BitsPerSecond bw = mbps(100);
  analysis::TtpParams p;
  p.ring = net::fddi_ring(10);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  const SchedulablePredicate predicate = [&](const msg::MessageSet& m) {
    return analysis::ttp_feasible(m, p, bw);
  };
  auto gen = small_generator();
  MonteCarloOptions opts;
  opts.num_sets = 24;
  opts.keep_samples = true;
  const std::uint64_t seed = 91;

  const exec::Executor par(8);
  const auto est = estimate_breakdown_utilization(gen, predicate, bw, seed, par, opts);
  ASSERT_EQ(est.samples.size(), opts.num_sets);

  for (std::size_t k : {std::size_t{0}, std::size_t{7}, std::size_t{23}}) {
    Rng rng = exec::make_trial_rng(seed, k);
    const msg::MessageSet set = gen.generate(rng);
    const auto sat = find_saturation(set, predicate, bw, opts.saturation);
    ASSERT_TRUE(sat.found);
    EXPECT_EQ(est.samples[k], sat.breakdown_utilization) << "trial " << k;
  }
}

TEST(MonteCarloParallel, MergeCombinesCountsAndSamples) {
  BreakdownEstimate a;
  a.utilization.add(0.5);
  a.degenerate_sets = 1;
  a.samples = {0.5};
  BreakdownEstimate b;
  b.utilization.add(0.7);
  b.unbounded_sets = 2;
  b.samples = {0.7};
  a.merge(b);
  EXPECT_EQ(a.utilization.count(), 2u);
  EXPECT_EQ(a.degenerate_sets, 1u);
  EXPECT_EQ(a.unbounded_sets, 2u);
  ASSERT_EQ(a.samples.size(), 2u);
  EXPECT_DOUBLE_EQ(a.samples[0], 0.5);
  EXPECT_DOUBLE_EQ(a.samples[1], 0.7);
}

TEST(MonteCarloParallel, ProgressAndCancellation) {
  const SchedulablePredicate predicate = [](const msg::MessageSet& m) {
    return m.utilization(mbps(10)) <= 0.5;
  };
  auto gen = small_generator();
  MonteCarloOptions opts;
  opts.num_sets = 32;
  std::size_t last_done = 0;
  opts.progress = [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, 32u);
    EXPECT_GE(done, last_done);
    last_done = done;
  };
  const exec::Executor seq(1);
  const auto est =
      estimate_breakdown_utilization(gen, predicate, mbps(10), 5, seq, opts);
  EXPECT_EQ(est.utilization.count(), 32u);
  EXPECT_EQ(last_done, 32u);

  exec::CancellationToken token;
  token.request_cancel();
  MonteCarloOptions cancelled = opts;
  cancelled.progress = nullptr;
  cancelled.cancel = token;
  EXPECT_THROW(
      estimate_breakdown_utilization(gen, predicate, mbps(10), 5, seq, cancelled),
      exec::Cancelled);
}

// ---- batched (SoA) estimator -----------------------------------------------

analysis::TtpParams paper_ttp_params() {
  analysis::TtpParams p;
  p.ring = net::fddi_ring(10);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  return p;
}

ScaleKernelFactory scalar_ttp_factory(const analysis::TtpParams& p,
                                      BitsPerSecond bw) {
  return [p, bw](const msg::MessageSet& base) {
    return ScaleKernel(analysis::TtpScaleKernel(base, p, bw));
  };
}

BatchScaleKernelFactory batched_ttp_factory(const analysis::TtpParams& p,
                                            BitsPerSecond bw) {
  return [p, bw](std::span<const msg::MessageSet> bases) {
    auto kernel = std::make_shared<analysis::TtpBatchKernel>(bases, p, bw);
    return BatchScaleKernel([kernel](std::span<const double> scales,
                                     std::span<const std::uint8_t> active,
                                     std::span<std::uint8_t> verdicts) {
      kernel->evaluate(scales, active, verdicts);
    });
  };
}

void expect_identical(const BreakdownEstimate& a, const BreakdownEstimate& b) {
  EXPECT_EQ(a.utilization.count(), b.utilization.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.ci95(), b.ci95());
  EXPECT_EQ(a.utilization.variance(), b.utilization.variance());
  EXPECT_EQ(a.utilization.min(), b.utilization.min());
  EXPECT_EQ(a.utilization.max(), b.utilization.max());
  EXPECT_EQ(a.degenerate_sets, b.degenerate_sets);
  EXPECT_EQ(a.unbounded_sets, b.unbounded_sets);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i], b.samples[i]) << "sample " << i;
  }
}

TEST(MonteCarloBatch, EveryJobsBatchGridPointMatchesTheScalarEstimate) {
  // The batched overload's contract: lockstep SoA saturation reproduces the
  // scalar per-trial estimate bit for bit for every (jobs, batch_size)
  // combination. 37 trials so no grid point divides evenly — remainder
  // batches, partial shards and partial batch groups are all exercised.
  const BitsPerSecond bw = mbps(100);
  const auto p = paper_ttp_params();
  auto gen = small_generator();
  MonteCarloOptions opts;
  opts.num_sets = 37;
  opts.keep_samples = true;
  const std::uint64_t seed = 42;

  const exec::Executor seq(1);
  const auto reference = estimate_breakdown_utilization(
      gen, scalar_ttp_factory(p, bw), bw, seed, seq, opts);
  EXPECT_GT(reference.utilization.count(), 0u);

  for (std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    const exec::Executor executor(jobs);
    for (std::size_t batch : {std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
      MonteCarloOptions batched_opts = opts;
      batched_opts.batch_size = batch;
      const auto batched = estimate_breakdown_utilization(
          gen, batched_ttp_factory(p, bw), bw, seed, executor, batched_opts);
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " batch=" + std::to_string(batch));
      expect_identical(reference, batched);
    }
  }
}

TEST(MonteCarloBatch, BatchSizePreconditionRejected) {
  const BitsPerSecond bw = mbps(100);
  const auto p = paper_ttp_params();
  auto gen = small_generator();
  MonteCarloOptions opts;
  opts.num_sets = 2;
  opts.batch_size = 0;
  const exec::Executor seq(1);
  EXPECT_THROW(estimate_breakdown_utilization(gen, batched_ttp_factory(p, bw),
                                              bw, 1, seq, opts),
               PreconditionError);
}

TEST(MonteCarlo, Preconditions) {
  auto gen = small_generator();
  const exec::Executor seq(1);
  MonteCarloOptions opts;
  opts.num_sets = 0;
  const SchedulablePredicate always = [](const msg::MessageSet&) {
    return true;
  };
  EXPECT_THROW(
      estimate_breakdown_utilization(gen, always, mbps(10), 1, seq, opts),
      PreconditionError);
  opts.num_sets = 1;
  EXPECT_THROW(estimate_breakdown_utilization(gen, always, 0.0, 1, seq, opts),
               PreconditionError);
}

}  // namespace
}  // namespace tokenring::breakdown
