// Fault-aware schedulability: Theorems 4.1 / 5.1 with a recovery budget.
//
// The paper's criteria assume a fault-free ring. Here each criterion is
// charged for up to k faults per period (equivalently: per deadline
// window), each costing the protocol's worst-case recovery outage r for
// the chosen fault kind (recovery.hpp):
//
//  * PDP: during an outage the medium serves nobody — at any priority this
//    is exactly non-preemptable blocking, so the Lemma 4.1 term grows to
//    B' = B + k*(r + F), the extra max-frame time F covering the partial
//    transmission the fault destroyed (it is repeated in full). This is
//    conservative: it assumes every window of every stream eats all k
//    recoveries in full.
//
//  * TTP: an outage freezes token rotation, so a window of length D_i
//    only guarantees the token visits of a window of length
//    D_i - k*(r + TTRT) — the extra TTRT per fault covers the rotation in
//    progress when the fault struck, which delivers nothing. The
//    local-allocation criterion is re-derived with the debited window:
//        q_i(k) = floor((D_i - k*(r + TTRT)) / TTRT), q_i(k) >= 2 required,
//        sum_i C_i/(q_i(k)-1) + n*F_ovhd <= TTRT - Lambda.
//    (The h_i the stations actually configure stay the fault-free ones —
//    the debit only tightens the visit-count guarantee, which is where
//    outages bite. Charging allocations at q_i(k) is conservative on top:
//    real visits still deliver the fault-free h_i.)
//
// The *fault resilience margin* of a message set is the largest k for
// which the fault-aware criterion still passes — "how many token losses
// per period can this configuration absorb before the guarantee breaks".

#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/fault/plan.hpp"
#include "tokenring/fault/recovery.hpp"

namespace tokenring::fault {

/// Which fault the per-period budget charges, and how severe it is.
struct FaultBudget {
  FaultKind kind = FaultKind::kTokenLoss;
  /// Noise length used when kind == kNoiseBurst.
  Seconds noise_duration = 0.0;
};

/// Resilience verdict for one message set under one protocol.
struct FaultMarginReport {
  /// Verdict of the fault-free criterion (k = 0).
  bool fault_free_schedulable = false;
  /// Worst-case recovery outage per fault [s] — the time the ring is dead
  /// (what the simulators stall for). The criteria charge an additional
  /// boundary term on top (one max frame for PDP, one TTRT for TTP).
  Seconds recovery_per_fault = 0.0;
  /// Largest k with the fault-aware criterion passing; -1 when even the
  /// fault-free criterion fails.
  int margin = -1;
};

/// The largest margin a report can carry. A criterion that still passes
/// at this many faults per period has no truthful `int` margin, so the
/// margin searches throw `MarginOutOfRange` instead of reporting a smaller
/// one.
inline constexpr int kMaxFaultMargin = std::numeric_limits<int>::max();

/// Thrown by `pdp_fault_margin` and `ttp_fault_margin` when the
/// fault-aware criterion still passes at kMaxFaultMargin faults per period
/// (every deadline is hours longer than a recovery). `what()` names the
/// fault kind and the bound; the daemon answers it with a 400 and
/// `tokenring_tool` exits 1 printing it.
class MarginOutOfRange : public std::range_error {
 public:
  using std::range_error::range_error;
};

/// Theorem 4.1 with k faults per period folded into the blocking term.
bool pdp_schedulable_with_faults(const msg::MessageSet& set,
                                 const analysis::PdpParams& params,
                                 BitsPerSecond bw, const FaultBudget& budget,
                                 int faults_per_period);

/// Theorem 5.1 with every deadline window debited by k recovery outages.
/// `ttrt` <= 0 selects the paper's TTRT rule.
bool ttp_schedulable_with_faults(const msg::MessageSet& set,
                                 const analysis::TtpParams& params,
                                 BitsPerSecond bw, Seconds ttrt,
                                 const FaultBudget& budget,
                                 int faults_per_period);

/// Max faults per period tolerated by the PDP criterion (binary search on
/// the monotone fault-aware test, each probe's RTA warm-started from the
/// last feasible fault count's responses). Its RTA work is added to the
/// "analysis.rta.*" counters once per query. Throws MarginOutOfRange when
/// the margin exceeds kMaxFaultMargin.
FaultMarginReport pdp_fault_margin(const msg::MessageSet& set,
                                   const analysis::PdpParams& params,
                                   BitsPerSecond bw,
                                   const FaultBudget& budget = {});

/// Max faults per period tolerated by the TTP criterion. `ttrt` <= 0
/// selects the paper's TTRT rule. Throws MarginOutOfRange when the margin
/// exceeds kMaxFaultMargin.
FaultMarginReport ttp_fault_margin(const msg::MessageSet& set,
                                   const analysis::TtpParams& params,
                                   BitsPerSecond bw, Seconds ttrt = 0.0,
                                   const FaultBudget& budget = {});

}  // namespace tokenring::fault
