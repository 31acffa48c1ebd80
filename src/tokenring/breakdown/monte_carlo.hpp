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
// Every overload is seeded: trial i draws from its own SplitMix64-derived
// stream (exec/seed_stream.hpp) and trials run on an `exec::Executor` in
// fixed-size shards merged in trial order, so the result is bit-identical
// for any jobs count, including the inline jobs == 1 path. The overloads
// differ only in how one drawn set is saturated:
//  * `BatchScaleKernelFactory` is the production path: trials saturate in
//    lockstep SoA batches. Every study driver, the advisor and the
//    benchmark use it.
//  * `SchedulablePredicate` and `ScaleKernelFactory` are the references:
//    one scalar search per trial, against a materialized set or in scale
//    space. Tests and bench/parallel_scaling compare the batched path
//    against them bit for bit.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "tokenring/breakdown/saturation.hpp"
#include "tokenring/common/stats.hpp"
#include "tokenring/exec/executor.hpp"
#include "tokenring/msg/generator.hpp"

namespace tokenring::breakdown {

/// Estimation settings.
struct MonteCarloOptions {
  /// Number of random message sets to saturate.
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
  /// Trials saturated per lockstep batch by the BatchScaleKernelFactory
  /// overload (>= 1; ignored by the scalar overloads). Purely a
  /// throughput knob: the batched search replays every scalar probe
  /// sequence lane for lane and dispatches whole shards per batch group,
  /// so estimates are bit-identical for every batch_size (and every jobs
  /// count). The effective lane count is rounded up to a whole number of
  /// shards.
  std::size_t batch_size = 64;
  /// Optional progress hook, called as (trials_done_upper_bound,
  /// num_sets) whenever a shard (or batch group) completes.
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

  double mean() const { return utilization.mean(); }
  double ci95() const { return utilization.ci95_half_width(); }
  /// Empirical quantile (q in [0,1]) of the kept samples (sorts a copy, so
  /// callers need not pre-sort). Requires keep_samples and >= 1 sample.
  double quantile(double q) const;

  /// Fold `other` (the trials immediately following this shard's) into
  /// this estimate: merges the running stats, adds the degenerate /
  /// unbounded counts, and appends the kept samples, preserving trial
  /// order. The parallel estimator's reducer.
  void merge(const BreakdownEstimate& other);
};

/// The production estimator. Draws trial i's set from the seed stream
/// (master_seed, i), groups trials into lockstep batches of
/// `options.batch_size` lanes, and saturates each group with one SoA
/// kernel (find_saturation_batch). Each lane replays the scalar probe
/// trajectory bit for bit, and whole shards are dispatched per batch
/// group, their partials folded one by one in trial order. Estimates are
/// therefore bit-identical to the reference overloads below for every
/// (jobs, batch_size) combination. The factory is shared across worker
/// threads and must be const-callable and thread-safe.
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

/// Reference in scale space: each trial builds one ScaleKernel for its
/// drawn set (hoisting the scale-invariant work once) and bisects with no
/// per-probe allocation. A factory whose kernels agree with a predicate
/// yields bit-identical estimates to the predicate overload, because the
/// probe sequence depends only on the verdicts. The factory must be
/// const-callable and thread-safe.
BreakdownEstimate estimate_breakdown_utilization(
    const msg::MessageSetGenerator& generator,
    const ScaleKernelFactory& kernel_factory, BitsPerSecond bw,
    std::uint64_t master_seed, const exec::Executor& executor,
    const MonteCarloOptions& options = {});

}  // namespace tokenring::breakdown
