#include "tokenring/breakdown/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "tokenring/analysis/kernels.hpp"
#include "tokenring/analysis/pdp.hpp"
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
  EXPECT_EQ(a.follow_up_sum, b.follow_up_sum);
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

analysis::TtpParams paper_ttp_params(int stations = 10) {
  analysis::TtpParams p;
  p.ring = net::fddi_ring(stations);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  return p;
}

analysis::PdpParams paper_pdp_params(int stations,
                                     analysis::PdpVariant variant) {
  analysis::PdpParams p;
  p.ring = net::ieee8025_ring(stations);
  p.frame = net::paper_frame_format();
  p.variant = variant;
  return p;
}

SchedulablePredicate ttp_predicate(const analysis::TtpParams& p,
                                   BitsPerSecond bw) {
  return [p, bw](const msg::MessageSet& set) {
    return analysis::ttp_feasible(set, p, bw);
  };
}

SchedulablePredicate pdp_predicate(const analysis::PdpParams& p,
                                   BitsPerSecond bw) {
  return [p, bw](const msg::MessageSet& set) {
    return analysis::pdp_feasible(set, p, bw);
  };
}

template <typename Kernel, typename Params>
BatchScaleKernelFactory batched_factory(const Params& p, BitsPerSecond bw) {
  return [p, bw](std::span<const msg::MessageSet> bases) {
    auto kernel = std::make_shared<Kernel>(bases, p, bw);
    return BatchScaleKernel([kernel](std::span<const double> scales,
                                     std::span<const std::uint8_t> active,
                                     std::span<std::uint8_t> verdicts) {
      kernel->evaluate(scales, active, verdicts);
    });
  };
}

BatchScaleKernelFactory batched_ttp_factory(const analysis::TtpParams& p,
                                            BitsPerSecond bw) {
  return batched_factory<analysis::TtpBatchKernel>(p, bw);
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
  EXPECT_EQ(a.follow_up_sum, b.follow_up_sum);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i], b.samples[i]) << "sample " << i;
  }
}

TEST(MonteCarloBatch, EveryJobsBatchGridPointMatchesTheScalarEstimate) {
  // The batched overload's contract: lockstep SoA saturation reproduces the
  // scalar predicate estimate (one find_saturation per trial) bit for bit
  // for every (jobs, batch_size) combination. 37 trials so no grid point
  // divides evenly — remainder batches, partial shards and partial batch
  // groups are all exercised.
  const BitsPerSecond bw = mbps(100);
  const auto p = paper_ttp_params();
  auto gen = small_generator();
  MonteCarloOptions opts;
  opts.num_sets = 37;
  opts.keep_samples = true;
  const std::uint64_t seed = 42;

  const exec::Executor seq(1);
  const auto reference = estimate_breakdown_utilization(
      gen, ttp_predicate(p, bw), bw, seed, seq, opts);
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

  // A sweep of points that differ in bandwidth, protocol, seed, station
  // count and set count, all in one dispatch: each point matches its own
  // predicate estimate. Only one set count is a multiple of the shard size.
  // The 1 Mbps FDDI point has degenerate draws, and an always-schedulable
  // kernel and predicate make every draw of the last point unbounded.
  const auto generator = [](int stations) {
    msg::GeneratorConfig g;
    g.num_streams = stations;
    g.mean_period = milliseconds(100);
    g.period_ratio = 10.0;
    return msg::MessageSetGenerator(g);
  };
  const auto modified = analysis::PdpVariant::kModified8025;
  const auto standard = analysis::PdpVariant::kStandard8025;
  const SchedulablePredicate always = [](const msg::MessageSet&) {
    return true;
  };
  const BatchScaleKernelFactory batched_always =
      [](std::span<const msg::MessageSet>) {
        return BatchScaleKernel([](std::span<const double>,
                                   std::span<const std::uint8_t>,
                                   std::span<std::uint8_t> verdicts) {
          std::fill(verdicts.begin(), verdicts.end(), std::uint8_t{1});
        });
      };
  // Two points carry a per-trial follow-up (the second has degenerate
  // draws). Its sum is folded like every other field: in trial order within
  // a shard, then shard by shard. So the reference sums scalar searches
  // shard by shard; the values are not integers, so the order shows.
  const TrialFollowUp follow_up = [](const msg::MessageSet& base,
                                     const SaturationResult& sat) {
    return sat.found
               ? sat.critical_scale * base.streams()[0].period
               : -1.0 - 0.1 * static_cast<double>(sat.predicate_evals);
  };
  std::vector<SweepPoint> points;
  std::vector<BreakdownEstimate> references;
  const auto add = [&](SweepPoint point, const SchedulablePredicate& predicate) {
    MonteCarloOptions point_opts = opts;
    point_opts.num_sets = point.num_sets;
    references.push_back(estimate_breakdown_utilization(
        point.generator, predicate, point.bw, point.seed, seq, point_opts));
    if (point.follow_up) {
      double shard_sum = 0.0;
      for (std::size_t i = 0; i < point.num_sets; ++i) {
        Rng rng = exec::make_trial_rng(point.seed, i);
        const msg::MessageSet base = point.generator.generate(rng);
        shard_sum += point.follow_up(
            base, find_saturation(base, predicate, point.bw));
        if ((i + 1) % opts.shard_size == 0 || i + 1 == point.num_sets) {
          references.back().follow_up_sum += shard_sum;
          shard_sum = 0.0;
        }
      }
    }
    points.push_back(std::move(point));
  };
  add({generator(10), batched_ttp_factory(p, bw), bw, 42, 37},
      ttp_predicate(p, bw));
  add({generator(10),
       batched_factory<analysis::PdpBatchKernel>(
           paper_pdp_params(10, modified), mbps(10)),
       mbps(10), 7, 5, follow_up},
      pdp_predicate(paper_pdp_params(10, modified), mbps(10)));
  add({generator(40),
       batched_factory<analysis::PdpBatchKernel>(
           paper_pdp_params(40, standard), mbps(1)),
       mbps(1), 3, 19},
      pdp_predicate(paper_pdp_params(40, standard), mbps(1)));
  add({generator(40), batched_ttp_factory(paper_ttp_params(40), mbps(1)),
       mbps(1), 11, 16, follow_up},
      ttp_predicate(paper_ttp_params(40), mbps(1)));
  add({generator(6), batched_always, mbps(10), 5, 3}, always);
  EXPECT_GT(references[3].degenerate_sets, 0u);
  EXPECT_LT(references[3].degenerate_sets, 16u);
  EXPECT_EQ(references[4].unbounded_sets, 3u);
  EXPECT_GT(references[1].follow_up_sum, 0.0);
  EXPECT_NE(references[3].follow_up_sum, 0.0);

  for (std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
    const exec::Executor executor(jobs);
    for (std::size_t batch : {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
      MonteCarloOptions sweep_opts = opts;
      sweep_opts.batch_size = batch;
      const auto sweep = estimate_sweep(points, executor, sweep_opts);
      ASSERT_EQ(sweep.size(), points.size());
      for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE("sweep point " + std::to_string(i) + " jobs=" +
                     std::to_string(jobs) + " batch=" + std::to_string(batch));
        expect_identical(references[i], sweep[i]);
      }

      // A throwing factory fails the whole sweep with its own exception.
      std::vector<SweepPoint> failing = points;
      failing[2].kernel_factory = [](std::span<const msg::MessageSet>)
          -> BatchScaleKernel { throw std::runtime_error("point 2 factory"); };
      try {
        estimate_sweep(failing, executor, sweep_opts);
        ADD_FAILURE() << "the factory's exception was swallowed";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "point 2 factory");
      }

      // So does a throwing follow-up.
      std::vector<SweepPoint> failing_follow_up = points;
      failing_follow_up[3].follow_up =
          [](const msg::MessageSet&, const SaturationResult&) -> double {
        throw std::runtime_error("point 3 follow-up");
      };
      try {
        estimate_sweep(failing_follow_up, executor, sweep_opts);
        ADD_FAILURE() << "the follow-up's exception was swallowed";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "point 3 follow-up");
      }

      // A token fired from inside the sweep stops it with exec::Cancelled.
      const exec::CancellationToken token;
      std::vector<SweepPoint> cancelling = points;
      cancelling[1].kernel_factory =
          [&token, inner = points[1].kernel_factory](
              std::span<const msg::MessageSet> bases) {
            token.request_cancel();
            return inner(bases);
          };
      MonteCarloOptions cancel_opts = sweep_opts;
      cancel_opts.cancel = token;
      EXPECT_THROW(estimate_sweep(cancelling, executor, cancel_opts),
                   exec::Cancelled);
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
