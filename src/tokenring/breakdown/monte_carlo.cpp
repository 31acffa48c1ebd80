#include "tokenring/breakdown/monte_carlo.hpp"

#include <algorithm>
#include <cmath>

#include "tokenring/common/checks.hpp"
#include "tokenring/exec/seed_stream.hpp"
#include "tokenring/obs/registry.hpp"

namespace tokenring::breakdown {

namespace {

/// Per-trial tallies for the run manifest. Bumped once per Monte Carlo
/// trial (not per saturation step), so the hot path stays untouched.
void count_trial(const SaturationResult& sat) {
  static const obs::Counter trials("breakdown.trials");
  static const obs::Counter degenerate("breakdown.degenerate_sets");
  static const obs::Counter unbounded("breakdown.unbounded_sets");
  trials.add();
  if (sat.degenerate_zero) {
    degenerate.add();
  } else if (!sat.found) {
    unbounded.add();
  }
}

}  // namespace

double BreakdownEstimate::quantile(double q) const {
  TR_EXPECTS(q >= 0.0 && q <= 1.0);
  TR_EXPECTS_MSG(!samples.empty(),
                 "quantile needs keep_samples and at least one sample");
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

void BreakdownEstimate::merge(const BreakdownEstimate& other) {
  utilization.merge(other.utilization);
  degenerate_sets += other.degenerate_sets;
  unbounded_sets += other.unbounded_sets;
  follow_up_sum += other.follow_up_sum;
  samples.insert(samples.end(), other.samples.begin(), other.samples.end());
}

namespace {

// Classify one saturated draw into the estimate. Shared by the scalar and
// batched estimators so their per-trial semantics cannot drift apart.
void accumulate_trial(const SaturationResult& sat, bool keep_samples,
                      BreakdownEstimate& est) {
  if (sat.degenerate_zero) {
    ++est.degenerate_sets;
    est.utilization.add(0.0);
    if (keep_samples) est.samples.push_back(0.0);
  } else if (!sat.found) {
    ++est.unbounded_sets;  // pathological; excluded from the average
  } else {
    est.utilization.add(sat.breakdown_utilization);
    if (keep_samples) est.samples.push_back(sat.breakdown_utilization);
  }
}

}  // namespace

BreakdownEstimate estimate_breakdown_utilization(
    const msg::MessageSetGenerator& generator,
    const SchedulablePredicate& predicate, BitsPerSecond bw,
    std::uint64_t master_seed, const exec::Executor& executor,
    const MonteCarloOptions& options) {
  TR_EXPECTS(bw > 0.0);
  TR_EXPECTS(options.num_sets >= 1);
  TR_EXPECTS(options.shard_size >= 1);

  const std::size_t n = options.num_sets;
  const std::size_t shard = options.shard_size;
  const std::size_t num_shards = (n + shard - 1) / shard;

  // Trial i is fully determined by (master_seed, i): its own Rng, its own
  // draw, its own saturation search. Threads only decide *who* computes a
  // shard, never *what* it computes, so the result cannot depend on the
  // executor's jobs count or on scheduling order.
  const auto run_shard = [&](std::size_t s) {
    BreakdownEstimate part;
    const std::size_t lo = s * shard;
    const std::size_t hi = std::min(n, lo + shard);
    for (std::size_t i = lo; i < hi; ++i) {
      Rng rng = exec::make_trial_rng(master_seed, i);
      const msg::MessageSet base = generator.generate(rng);
      const SaturationResult sat =
          find_saturation(base, predicate, bw, options.saturation);
      count_trial(sat);
      accumulate_trial(sat, options.keep_samples, part);
    }
    return part;
  };

  exec::ParallelForOptions pf;
  pf.cancel = options.cancel;
  if (options.progress) {
    pf.progress = [&options, n, shard](std::size_t done_shards, std::size_t) {
      options.progress(std::min(n, done_shards * shard), n);
    };
  }

  // Shards merge left-to-right in trial order; because the shard grid is
  // fixed by shard_size alone, the floating-point merge tree — and hence
  // every output bit — is the same for any jobs count.
  return exec::map_reduce(
      executor, num_shards, BreakdownEstimate{}, run_shard,
      [](BreakdownEstimate acc, BreakdownEstimate part) {
        acc.merge(part);
        return acc;
      },
      pf);
}

std::vector<BreakdownEstimate> estimate_sweep(
    std::span<const SweepPoint> points, const exec::Executor& executor,
    const MonteCarloOptions& options) {
  TR_EXPECTS(options.shard_size >= 1);
  TR_EXPECTS(options.batch_size >= 1);

  const std::size_t shard = options.shard_size;
  // The work item is a *batch group*: batch_size rounded up to a whole
  // number of shards. Every trial stays pinned to its shard and each
  // point's shards are folded one by one in trial order, so the merge tree
  // — fixed by shard_size alone — is the same as the scalar path's for
  // every (jobs, batch_size) combination.
  const std::size_t group = (options.batch_size + shard - 1) / shard * shard;

  struct Item {
    std::size_t point;
    std::size_t lo;     // first trial of the group
    std::size_t count;  // trials in the group
  };
  std::vector<Item> items;  // point-major, trial order within a point
  std::size_t total = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    const std::size_t n = points[p].num_sets;
    TR_EXPECTS(n >= 1);
    TR_EXPECTS(points[p].bw > 0.0);
    for (std::size_t lo = 0; lo < n; lo += group) {
      items.push_back({p, lo, std::min(group, n - lo)});
    }
    total += n;
  }

  struct ItemPartials {
    std::size_t point;
    std::vector<BreakdownEstimate> shards;
  };
  const auto run_item = [&](std::size_t k) {
    const Item& item = items[k];
    const SweepPoint& point = points[item.point];
    std::vector<msg::MessageSet> bases;
    bases.reserve(item.count);
    for (std::size_t i = item.lo; i < item.lo + item.count; ++i) {
      Rng rng = exec::make_trial_rng(point.seed, i);
      bases.push_back(point.generator.generate(rng));
    }
    const BatchScaleKernel kernel = point.kernel_factory(bases);
    const std::vector<SaturationResult> sats =
        find_saturation_batch(bases, kernel, point.bw, options.saturation);
    ItemPartials out{item.point,
                     std::vector<BreakdownEstimate>((item.count + shard - 1) /
                                                    shard)};
    for (std::size_t j = 0; j < item.count; ++j) {
      BreakdownEstimate& part = out.shards[j / shard];
      count_trial(sats[j]);
      accumulate_trial(sats[j], options.keep_samples, part);
      if (point.follow_up) {
        part.follow_up_sum += point.follow_up(bases[j], sats[j]);
      }
    }
    return out;
  };

  exec::ParallelForOptions pf;
  pf.cancel = options.cancel;
  if (options.progress) {
    pf.progress = [&options, total, group](std::size_t done_items,
                                           std::size_t) {
      options.progress(std::min(total, done_items * group), total);
    };
  }

  return exec::map_reduce(
      executor, items.size(), std::vector<BreakdownEstimate>(points.size()),
      run_item,
      [](std::vector<BreakdownEstimate> acc, ItemPartials item) {
        for (const BreakdownEstimate& part : item.shards) {
          acc[item.point].merge(part);
        }
        return acc;
      },
      pf);
}

BreakdownEstimate estimate_breakdown_utilization(
    const msg::MessageSetGenerator& generator,
    const BatchScaleKernelFactory& kernel_factory, BitsPerSecond bw,
    std::uint64_t master_seed, const exec::Executor& executor,
    const MonteCarloOptions& options) {
  const SweepPoint point{generator, kernel_factory, bw, master_seed,
                         options.num_sets};
  return std::move(estimate_sweep({&point, 1}, executor, options).front());
}

}  // namespace tokenring::breakdown
