// Shared experiment configuration: the paper's Section 6.2 operating
// conditions with knobs for the ablation studies, plus predicate factories
// binding each protocol's schedulability criterion to a bandwidth.
//
// Every bench binary and the experiment drivers below build their scenarios
// through this type so that "the paper's conditions" exist in exactly one
// place.

#pragma once

#include <cstdint>

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

  /// PDP scale-kernel factory matching pdp_predicate verdict for verdict
  /// (analysis/kernels.hpp): per trial, the scale-invariant work is
  /// hoisted once and each saturation probe is allocation-free. A
  /// reference path, like the predicates: tests pin that all of them
  /// produce bit-identical estimates.
  breakdown::ScaleKernelFactory pdp_kernel_factory(analysis::PdpVariant variant,
                                                   BitsPerSecond bw) const;

  /// Batched (SoA) kernel factories: one kernel saturates a whole batch of
  /// trials in lockstep (analysis/kernels.hpp PdpBatchKernel /
  /// TtpBatchKernel), with verdicts — and therefore Monte Carlo estimates
  /// — bit-identical to the predicates above. Every experiment driver and
  /// the advisor build their batch kernels through these.
  breakdown::BatchScaleKernelFactory pdp_batch_kernel_factory(
      analysis::PdpVariant variant, BitsPerSecond bw) const;
  breakdown::BatchScaleKernelFactory ttp_batch_kernel_factory(
      BitsPerSecond bw) const;
  breakdown::BatchScaleKernelFactory ttp_batch_kernel_factory_at(
      BitsPerSecond bw, Seconds ttrt) const;
};

/// Estimate the average breakdown utilization of one protocol at one
/// bandwidth: `num_sets` sets drawn under `setup`, saturated in lockstep
/// batches of `batch` lanes on `executor` (breakdown/monte_carlo.hpp).
/// Trial i draws from the seed stream derived from (seed, i), so curves
/// estimated for different protocols share the same random message sets
/// (common random numbers), which sharpens curve-to-curve comparisons —
/// and the result is bit-identical for every (executor jobs, batch)
/// combination.
breakdown::BreakdownEstimate estimate_point(
    const PaperSetup& setup,
    const breakdown::BatchScaleKernelFactory& kernel_factory, BitsPerSecond bw,
    std::size_t num_sets, std::uint64_t seed, const exec::Executor& executor,
    std::size_t batch);

}  // namespace tokenring::experiments
