// Monte Carlo estimation of the average breakdown utilization (paper
// Section 6.1).
//
// Average breakdown utilization = expected utilization of message sets in
// the saturated schedulable class. Estimated by repeatedly (1) drawing a
// random set (periods + payload direction) from a generator, (2) scaling
// payloads to the schedulability boundary, (3) recording the saturated
// utilization, then averaging. Degenerate draws whose breakdown is exactly
// zero (fixed overheads alone exceed capacity) count as samples of 0, so
// low-bandwidth regimes are reported honestly rather than skipped.
//
// Every entry point is seeded: trial i draws from its own SplitMix64-derived
// stream (exec/seed_stream.hpp), and per-shard partials are merged in
// trial order on a grid fixed by `shard_size` alone, so the result is
// bit-identical for any jobs count, including the inline jobs == 1 path.
// The entry points differ only in how drawn sets are saturated:
//  * `estimate_sweep` is the production path. A study hands it all of its
//    points at once; it lists every (point, batch group) work item,
//    saturates each group in one lockstep SoA batch, and runs the whole
//    grid in one `Executor::parallel_for`, so no point waits on a
//    per-point barrier. Each point's shard partials are folded in trial
//    order. The `BatchScaleKernelFactory` overload of
//    `estimate_breakdown_utilization` and `experiments::estimate_point`
//    are its one-point case, which dispatches that point's batch groups:
//    the benchmark replays Figure 1 point by point through
//    `estimate_point`, one traced factory per point, and counts those
//    groups. The study drivers and the advisor declare their points and
//    make one call; the advisor's fault margins ride on its points as
//    per-trial follow-ups, so no set is drawn or saturated twice.
//  * The `SchedulablePredicate` overload is the reference: one
//    `find_saturation` per trial against the paper's criterion as
//    written. Tests and bench/parallel_scaling compare the batched path
//    against it bit for bit.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "tokenring/breakdown/saturation.hpp"
#include "tokenring/common/stats.hpp"
#include "tokenring/exec/executor.hpp"
#include "tokenring/msg/generator.hpp"

namespace tokenring::breakdown {

/// Estimation settings.
struct MonteCarloOptions {
  /// Number of random message sets to saturate (estimate_sweep reads each
  /// point's own count instead).
  std::size_t num_sets = 100;
  /// Keep every per-set breakdown sample (for percentile profiles).
  bool keep_samples = false;
  /// Boundary-search options shared by all samples.
  SaturationOptions saturation;
  /// Trials per work shard (>= 1). Part of the result's definition, NOT a
  /// tuning knob tied to the worker count: shard boundaries fix the merge
  /// tree, so two runs agree bit-for-bit only if they use the same
  /// shard_size. The default balances scheduling overhead against load
  /// balance for typical trial costs.
  std::size_t shard_size = 8;
  /// Trials saturated per lockstep batch by estimate_sweep (>= 1;
  /// ignored by the scalar overloads). Purely a throughput knob: the
  /// batched search replays every scalar probe sequence lane for lane and
  /// dispatches whole shards per batch group, so estimates are
  /// bit-identical for every batch_size (and every jobs count). The
  /// effective lane count is rounded up to a whole number of shards.
  std::size_t batch_size = 64;
  /// Optional progress hook, called as (trials_done_upper_bound,
  /// trials_total) whenever a shard (or batch group) completes.
  std::function<void(std::size_t, std::size_t)> progress;
  /// Optional cooperative cancellation; when the token fires the
  /// estimator throws `exec::Cancelled`.
  std::optional<exec::CancellationToken> cancel;
};

/// Aggregate result.
struct BreakdownEstimate {
  /// Statistics over per-set breakdown utilizations.
  RunningStats utilization;
  /// How many draws were degenerate (breakdown = 0).
  std::size_t degenerate_sets = 0;
  /// How many draws never became unschedulable within the scale bound
  /// (predicate vacuously true; excluded from `utilization`).
  std::size_t unbounded_sets = 0;
  /// Raw per-set samples; populated only with keep_samples. Ordering
  /// guarantee: samples appear in trial-index order (NOT sorted by value)
  /// for every jobs count and batch size — shards are merged in trial
  /// order. Unbounded draws contribute no sample, so samples.size() ==
  /// utilization.count() always holds.
  std::vector<double> samples;
  /// Sum of the point's per-trial follow-up values (SweepPoint::follow_up)
  /// over every trial, degenerate and unbounded ones included; 0 without a
  /// follow-up. Summed in trial order within a shard and folded shard by
  /// shard, so its bits depend on shard_size alone.
  double follow_up_sum = 0.0;

  double mean() const { return utilization.mean(); }
  double ci95() const { return utilization.ci95_half_width(); }
  /// Empirical quantile (q in [0,1]) of the kept samples (sorts a copy, so
  /// callers need not pre-sort). Requires keep_samples and >= 1 sample.
  double quantile(double q) const;

  /// Fold `other` (the trials immediately following this shard's) into
  /// this estimate: merges the running stats, adds the degenerate /
  /// unbounded counts and the follow-up sums, and appends the kept
  /// samples, preserving trial order. The parallel estimator's reducer.
  void merge(const BreakdownEstimate& other);
};

/// Per-trial follow-up of a sweep point: a value computed from a trial's
/// drawn base set and its saturation result.
using TrialFollowUp = std::function<double(const msg::MessageSet& base,
                                           const SaturationResult& sat)>;

/// One point of a Monte Carlo sweep: `num_sets` trials, trial i drawing
/// its set from `generator` on the seed stream (seed, i) and saturating it
/// with kernels from `kernel_factory` at bandwidth `bw`. A set `follow_up`
/// runs once per trial inside the trial's work item, after the search, and
/// its values are summed into BreakdownEstimate::follow_up_sum; like the
/// factory it is shared across worker threads, so it must be const-callable
/// and thread-safe.
struct SweepPoint {
  msg::MessageSetGenerator generator;
  BatchScaleKernelFactory kernel_factory;
  BitsPerSecond bw = 0.0;
  std::uint64_t seed = 0;
  std::size_t num_sets = 0;
  TrialFollowUp follow_up = nullptr;
};

/// The production estimator: result[p] estimates points[p], all of them in
/// one executor dispatch. The work item is a batch group (`batch_size`
/// trials rounded up to whole shards). Items are listed point-major, each
/// point's groups in trial order, so the inline jobs == 1 path does the
/// work of estimating the points one after another, in that order. An
/// item draws its own sets (nothing is drawn ahead, so only in-flight
/// groups hold sets and kernels), saturates them with one kernel from its
/// point's factory, runs the point's follow-up on each trial and returns
/// one partial per shard. Each point's partials are folded in trial order,
/// so result[p] is bit-identical to the reference overloads' estimate of
/// points[p] (whose follow_up_sum stays 0) for every (jobs, batch_size)
/// combination, follow_up_sum included.
///
/// `options.num_sets` is not read: every point carries its own count.
/// Progress reports (upper bound on trials done, trials in the sweep). The
/// exception of the lowest item that threw (in a factory or a follow-up)
/// is rethrown; a cancelled token throws `exec::Cancelled`.
std::vector<BreakdownEstimate> estimate_sweep(
    std::span<const SweepPoint> points, const exec::Executor& executor,
    const MonteCarloOptions& options = {});

/// estimate_sweep of one point, with `options.num_sets` trials.
BreakdownEstimate estimate_breakdown_utilization(
    const msg::MessageSetGenerator& generator,
    const BatchScaleKernelFactory& kernel_factory, BitsPerSecond bw,
    std::uint64_t master_seed, const exec::Executor& executor,
    const MonteCarloOptions& options = {});

/// Reference: saturates each trial's set against `predicate` (see
/// saturation.hpp for the monotonicity requirement), one scalar search
/// per trial, on the same seed streams and shard grid.
BreakdownEstimate estimate_breakdown_utilization(
    const msg::MessageSetGenerator& generator,
    const SchedulablePredicate& predicate, BitsPerSecond bw,
    std::uint64_t master_seed, const exec::Executor& executor,
    const MonteCarloOptions& options = {});

}  // namespace tokenring::breakdown
