// Priority-driven protocol (IEEE 802.5) schedulability analysis — paper
// Section 4.
//
// Rate-monotonic scheduling is approximated on the ring by splitting
// messages into frames and arbitrating per frame through the token's
// priority/reservation fields. The analysis (Theorem 4.1) is the exact
// fixed-priority test applied to *augmented* message lengths C'_i that fold
// in all protocol overheads, plus a blocking term B = 2*max(F, Theta)
// (Lemma 4.1) for the non-preemptable frame in flight and the distributed
// arbitration.
//
// Effective frame time:
//  * F <= Theta: the sender must wait for the transmitted frame's header to
//    come back around the ring before arbitration can conclude, so each
//    frame occupies the medium for Theta.
//  * F >  Theta: a full frame occupies F; a short last frame occupies
//    max(C_i - L_i*F_info + F_ovhd, Theta).
//
// Token-circulation overhead: Theta/2 on average per token pass. The
// standard 802.5 implementation passes the token after *every frame*
// (token-holding timer = one frame), costing K_i * Theta/2 per message; the
// modified implementation keeps transmitting while still the highest-
// priority active station, costing Theta/2 once per message.

#pragma once

#include <vector>

#include "tokenring/analysis/fixed_priority.hpp"
#include "tokenring/msg/message_set.hpp"
#include "tokenring/net/frame.hpp"
#include "tokenring/net/ring.hpp"

namespace tokenring::analysis {

/// Which 802.5 implementation (paper Section 4.2, "Token Holding Timer").
enum class PdpVariant {
  /// Standard IEEE 802.5: free token issued after every frame.
  kStandard8025,
  /// Modified 802.5: back-to-back frames while still the highest-priority
  /// active station; token passed once per message.
  kModified8025,
};

/// Human-readable variant name ("IEEE 802.5" / "Modified IEEE 802.5").
const char* to_string(PdpVariant v);

/// Static configuration of a PDP analysis.
struct PdpParams {
  net::RingParams ring;
  net::FrameFormat frame;
  PdpVariant variant = PdpVariant::kStandard8025;

  void validate() const;
};

/// Per-stream detail of a PDP schedulability verdict.
struct PdpStreamReport {
  /// Stream as indexed in rate-monotonic order.
  msg::SyncStream stream;
  /// Augmented length C'_i [s].
  Seconds augmented_length = 0.0;
  /// Total frames K_i (`FrameFormat::frames_for_payload`).
  double frames = 0.0;
  bool schedulable = false;
  /// Worst-case response time when schedulable (from RTA).
  std::optional<Seconds> response_time;
};

/// Whole-set PDP verdict.
struct PdpVerdict {
  bool schedulable = false;
  /// Blocking term B = 2*max(F, Theta) [s].
  Seconds blocking = 0.0;
  /// Reports in rate-monotonic order.
  std::vector<PdpStreamReport> reports;
};

/// Augmented message length C'_i for one stream (see file comment).
/// Requires params validated and bw > 0.
Seconds pdp_augmented_length(const msg::SyncStream& stream,
                             const PdpParams& params, BitsPerSecond bw);

/// Blocking bound B = 2*max(F, Theta) (paper Lemma 4.1).
Seconds pdp_blocking(const PdpParams& params, BitsPerSecond bw);

/// Exact schedulability test (Theorem 4.1) via response-time analysis —
/// the fast path used in Monte Carlo loops.
PdpVerdict pdp_schedulable(const msg::MessageSet& set, const PdpParams& params,
                           BitsPerSecond bw);

/// Same verdict computed with the literal scheduling-point formulation of
/// Theorem 4.1. Slower; kept as the paper-faithful reference (tests assert
/// agreement with `pdp_schedulable`).
PdpVerdict pdp_schedulable_lsd(const msg::MessageSet& set,
                               const PdpParams& params, BitsPerSecond bw);

/// Lean boolean verdict with early exit on the first failing stream — the
/// fast path for Monte Carlo breakdown searches (identical verdict to
/// `pdp_schedulable`).
bool pdp_feasible(const msg::MessageSet& set, const PdpParams& params,
                  BitsPerSecond bw);

/// Convert a message set into rate-monotonic-ordered FpTasks with augmented
/// costs (exposed for reuse by benches/tests).
std::vector<FpTask> pdp_tasks(const msg::MessageSet& set,
                              const PdpParams& params, BitsPerSecond bw);

}  // namespace tokenring::analysis
