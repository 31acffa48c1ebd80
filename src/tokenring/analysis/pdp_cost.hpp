// The augmented message length C'_i of one PDP stream (pdp.hpp's file
// comment) as one function, shared by `pdp_augmented_length` and the cost
// stage of `PdpBatchKernel`, so the scalar and SoA paths compute the same
// bits from the same formula.
//
// The frame counts L_i = floor(C_i^b / F_info^b) and K_i = ceil(...) stay
// in double: exact below 2^53 and rounded, never wrapped, beyond it, so
// every finite payload gets a finite, non-negative cost.
//
// Everything here has internal linkage on purpose. batch_kernels.cpp is
// compiled for x86-64-v2 and pdp.cpp for the baseline (src/CMakeLists.txt);
// an inline function with external linkage would let the linker keep one
// translation unit's copy for both, SSE4.1 rounding instructions included.
// Include this header only from the analysis sources that need it.

#pragma once

#include <algorithm>
#include <cmath>

#include "tokenring/analysis/pdp.hpp"

namespace tokenring::analysis {
namespace {

/// The geometry terms of the augmented length at one bandwidth.
struct PdpCostTerms {
  double info_bits;
  double theta;
  double frame_time;
  double info_time;
  double overhead_time;
  double bw;
};

inline PdpCostTerms pdp_cost_terms(const PdpParams& params,
                                   BitsPerSecond bw) {
  return {params.frame.info_bits,         params.ring.theta(bw),
          params.frame.frame_time(bw),    params.frame.info_time(bw),
          params.frame.overhead_time(bw), bw};
}

/// C'_i of a stream with this payload, with its branches turned into
/// selects so the batch kernel's lane loop vectorizes.
template <bool kStandard, bool kFrameDominated>
inline double pdp_cost(double payload, const PdpCostTerms& g) {
  const double frames = payload / g.info_bits;
  const double full = std::floor(frames);   // L_i
  const double total = std::ceil(frames);   // K_i
  // Token-circulation overhead: Theta/2 on average per token pass; paid per
  // frame (standard) or per message (modified).
  const double token_overhead =
      kStandard ? total * g.theta / 2.0 : g.theta / 2.0;
  double value;
  if constexpr (kFrameDominated) {
    // F <= Theta: every frame's slot costs Theta.
    value = total * g.theta + token_overhead;
  } else {
    // L_i full frames at F each, plus a short last frame iff K_i > L_i,
    // costing max(C_i - L_i*F_info + F_ovhd, Theta). The short-frame time
    // is computed unconditionally (it is harmless garbage when K_i == L_i)
    // so both conditionals lower to selects.
    const double short_frame = std::max(
        payload / g.bw - full * g.info_time + g.overhead_time, g.theta);
    const double tail = total > full ? short_frame : 0.0;
    value = full * g.frame_time + token_overhead + tail;
  }
  return payload > 0.0 ? value : 0.0;
}

/// pdp_cost with the variant and the frame regime chosen at run time.
inline double pdp_cost(double payload, const PdpCostTerms& g, bool standard,
                       bool frame_dominated) {
  if (standard) {
    return frame_dominated ? pdp_cost<true, true>(payload, g)
                           : pdp_cost<true, false>(payload, g);
  }
  return frame_dominated ? pdp_cost<false, true>(payload, g)
                         : pdp_cost<false, false>(payload, g);
}

}  // namespace
}  // namespace tokenring::analysis
