// Shared experiment configuration: the paper's Section 6.2 operating
// conditions with knobs for the ablation studies, plus the predicates and
// the batch-kernel factories binding each protocol's schedulability
// criterion to a bandwidth.
//
// Every bench binary and the experiment drivers below build their scenarios
// through this type so that "the paper's conditions" exist in exactly one
// place.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/breakdown/monte_carlo.hpp"
#include "tokenring/exec/executor.hpp"
#include "tokenring/msg/generator.hpp"
#include "tokenring/net/standards.hpp"

namespace tokenring::experiments {

/// The paper's experiment parameters (Section 6.2), overridable per study.
struct PaperSetup {
  int num_stations = 100;
  double station_spacing_m = 100.0;
  Seconds mean_period = milliseconds(100);
  double period_ratio = 10.0;
  double frame_payload_bytes = 64.0;
  msg::PeriodDistribution period_dist = msg::PeriodDistribution::kUniform;
  msg::PayloadDistribution payload_dist = msg::PayloadDistribution::kUniform;
  /// Relative deadline as a fraction of the period; 1.0 = the paper's
  /// implicit-deadline model (see the deadline_sensitivity ablation).
  double deadline_fraction = 1.0;

  /// Generator drawing message sets under these conditions.
  msg::GeneratorConfig generator_config() const;

  /// PDP analysis parameters (802.5 ring constants).
  analysis::PdpParams pdp_params(analysis::PdpVariant variant) const;

  /// TTP analysis parameters (FDDI ring constants).
  analysis::TtpParams ttp_params() const;

  /// Schedulability predicate for one PDP variant at one bandwidth.
  breakdown::SchedulablePredicate pdp_predicate(analysis::PdpVariant variant,
                                                BitsPerSecond bw) const;

  /// Schedulability predicate for TTP (paper TTRT rule) at one bandwidth.
  breakdown::SchedulablePredicate ttp_predicate(BitsPerSecond bw) const;

  /// Batched (SoA) kernel factories: one kernel saturates a whole batch of
  /// trials in lockstep (analysis/kernels.hpp PdpBatchKernel /
  /// TtpBatchKernel), with verdicts — and therefore Monte Carlo estimates
  /// — bit-identical to the predicates above, which stay the reference.
  /// Every experiment driver and the advisor build their batch kernels
  /// through these.
  breakdown::BatchScaleKernelFactory pdp_batch_kernel_factory(
      analysis::PdpVariant variant, BitsPerSecond bw) const;
  breakdown::BatchScaleKernelFactory ttp_batch_kernel_factory(
      BitsPerSecond bw) const;
  breakdown::BatchScaleKernelFactory ttp_batch_kernel_factory_at(
      BitsPerSecond bw, Seconds ttrt) const;
};

/// One Monte Carlo point of a study: `num_sets` sets drawn under `setup`,
/// trial i from the seed stream derived from (seed, i), saturated by
/// `kernel_factory` at `bw`. Points that share a seed draw the same sets
/// (common random numbers), which sharpens curve-to-curve comparisons.
breakdown::SweepPoint sweep_point(
    const PaperSetup& setup, breakdown::BatchScaleKernelFactory kernel_factory,
    BitsPerSecond bw, std::size_t num_sets, std::uint64_t seed);

/// Append the points of the three protocols at `bw` under `setup`:
/// standard 802.5, modified 802.5 and FDDI, in that order.
void add_protocol_points(std::vector<breakdown::SweepPoint>& points,
                         const PaperSetup& setup, BitsPerSecond bw,
                         std::size_t num_sets, std::uint64_t seed);

/// Estimate the average breakdown utilization of every point in one
/// dispatch on `executor`, saturating in lockstep batches of `batch` lanes
/// (breakdown::estimate_sweep). result[p] belongs to points[p] and is
/// bit-identical for every (executor jobs, batch) combination. A study
/// declares all of its points and makes one call, so no point waits on
/// another's barrier.
std::vector<breakdown::BreakdownEstimate> estimate_points(
    std::span<const breakdown::SweepPoint> points,
    const exec::Executor& executor, std::size_t batch);

/// estimate_points of the one point sweep_point(setup, kernel_factory, bw,
/// num_sets, seed). Its dispatch is the point's own batch groups, one
/// work item per `batch` trials (rounded up to whole shards), which is
/// what replays of a sweep point by point measure.
breakdown::BreakdownEstimate estimate_point(
    const PaperSetup& setup,
    const breakdown::BatchScaleKernelFactory& kernel_factory, BitsPerSecond bw,
    std::size_t num_sets, std::uint64_t seed, const exec::Executor& executor,
    std::size_t batch);

}  // namespace tokenring::experiments
