// Traced batch-kernel factories for the Monte Carlo layers.
//
// `traced_factory` wraps a breakdown::BatchScaleKernelFactory (the object
// experiments::estimate_point hands to the estimator) so that every batch
// group it serves leaves this span tree, tagged with the group ordinal:
//
//   breakdown.group              factory call -> kernel destroyed
//     analysis.<proto>.build     the wrapped factory call (kernel set-up)
//     breakdown.search           kernel built -> kernel destroyed
//       analysis.<proto>.evaluate  one lockstep kernel pass
//
// The self time of breakdown.search is the bisection bookkeeping between
// kernel passes. The wrapper forwards every call unchanged, so estimates
// are bit-identical to the unwrapped factory's.

#pragma once

#include <atomic>
#include <cstdint>

#include "tokenring/breakdown/saturation.hpp"
#include "trace.hpp"

namespace perfbench {

struct KernelSpanNames {
  const char* build;
  const char* evaluate;
};
inline constexpr KernelSpanNames kPdpKernelSpans{"analysis.pdp.build",
                                                 "analysis.pdp.evaluate"};
inline constexpr KernelSpanNames kTtpKernelSpans{"analysis.ttp.build",
                                                 "analysis.ttp.evaluate"};

/// Work counted across every group a traced factory served.
struct KernelCounts {
  std::atomic<std::uint64_t> groups{0};
  std::atomic<std::uint64_t> evaluate_calls{0};
  std::atomic<std::uint64_t> lanes_evaluated{0};
  std::atomic<std::uint64_t> active_lanes{0};
};

/// Wrap `inner`; spans go to `trace` under parent span `parent`. `trace`
/// and `counts` must outlive every kernel the returned factory builds.
tokenring::breakdown::BatchScaleKernelFactory traced_factory(
    tokenring::breakdown::BatchScaleKernelFactory inner, Trace& trace,
    KernelSpanNames names, std::uint64_t parent, KernelCounts& counts);

}  // namespace perfbench
