// Allocation-free batch schedulability kernels in scale space.
//
// A saturation search (breakdown/saturation.hpp) probes one base message
// set at 25.1 scale factors per trial on average (Figure 1 at its
// defaults). The paper's predicates (`pdp_feasible`, `ttp_feasible`,
// `ttp_feasible_at`) re-derive everything from the scaled set on every
// probe: copy the streams, sort them, re-select the TTRT, recompute
// blocking. All of that is invariant under uniform payload scaling —
// periods, deadlines, the priority permutation, Theta, frame geometry,
// TTRT bids, per-station visit counts and the blocking term depend only on
// quantities scaling leaves untouched. These kernels hoist the invariant
// work into construction (once per batch of trials) and leave only the
// genuinely scale-dependent arithmetic in evaluate() — no allocation, no
// sort, no sqrt in the probe loop.
//
// Contract: lane l's verdict at scale a is the verdict of the predicate it
// replaces on bases[l].scaled(a). The scale-dependent arithmetic replays
// the predicates operation for operation (same multiplies, same divides,
// same accumulation order), and every shortcut (the screens in
// rta_feasible_fast, the deadline point, cost dominance) is exact, so
// bisection trajectories — and Monte Carlo breakdown utilizations — are
// bit-identical to the predicate path. The differential property tests
// pin this against the predicates; a one-lane kernel is the scalar case.
//
// One kernel evaluates B independent trials ("lanes") per pass. Because
// each lane must replay the predicate's accumulation order bit for bit,
// the vectorization dimension is *across* lanes: per-station values are
// stored station-major x lane-minor (index = station * lanes + lane), so
// the inner loop walks a contiguous run of independent lanes the compiler
// can autovectorize.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/msg/message_set.hpp"

namespace tokenring::analysis {

/// Scale-space form of `pdp_feasible`: lane l answers, for the base set
/// bases[l] it was built from, pdp_feasible(bases[l].scaled(scales[l]),
/// params, bw), probe for probe. All bases must be non-empty and share one
/// station count (Monte Carlo batches do: the generator's stream count is
/// fixed per experiment).
///
/// The augmented-length stage (the multiply-divide-floor-ceil arithmetic
/// of `pdp_augmented_length`) runs full-width over a station-major x
/// lane-minor SoA of base payloads in branch-light loops. Each *active*
/// lane is then answered by cost dominance where it can be, and by the
/// screened RTA with a per-lane `RtaSearchState` (failed-task hint and
/// warm start: they steer which task is tested first and where each
/// fixpoint starts, never the verdict) where it cannot:
///  * pass witness: a probe whose every cost is <= the lane's committed
///    costs (its last schedulable RTA probe) is schedulable;
///  * fail witness: a probe whose every cost is >= the costs of the lane's
///    last unschedulable RTA probe is not. The lane keeps only that
///    probe's scale and recomputes its costs with the cost stage's own
///    per-element arithmetic.
/// The RTA verdict is monotone in the cost vector in floating point, so
/// both rules are exact; costs are compared, never scales, because an
/// augmented length is not bitwise monotone in the scale at an exact frame
/// multiple. The one non-monotone RTA outcome is the iteration cap, so a
/// lane with n * ceil(D_max/P_min) + 2 >= kMaxRtaIterations (where some
/// fixpoint might reach it) uses no dominance. A dominated probe changes
/// neither the lane's search state nor its witnesses. The lane's committed
/// task array holds its periods and deadlines, so a lane costs one more
/// double per station than the plain task array. Each evaluate adds the
/// lanes' fixpoint work to the obs counters once, and the lanes that
/// reached the RTA to "breakdown.exact_probes".
class PdpBatchKernel {
 public:
  PdpBatchKernel(std::span<const msg::MessageSet> bases,
                 const PdpParams& params, BitsPerSecond bw);

  std::size_t lanes() const { return lanes_; }

  /// verdicts[l] = lane l's verdict at scales[l], for every lane with
  /// active[l] != 0 (other verdict entries are left untouched). The cost
  /// stage always computes full width — masking keeps the hot loops
  /// branch-free; converged lanes simply carry a stale scale.
  void evaluate(std::span<const double> scales,
                std::span<const std::uint8_t> active,
                std::span<std::uint8_t> verdicts) const;

  /// All-lanes convenience overload.
  void evaluate(std::span<const double> scales,
                std::span<std::uint8_t> verdicts) const;

 private:
  /// Lane l's cost at station i for the witness scale, in the cost
  /// stage's arithmetic.
  double witness_cost(std::size_t i, std::size_t l, double scale) const;

  std::size_t lanes_ = 0;
  std::size_t stations_ = 0;
  BitsPerSecond bw_ = 0.0;
  Seconds blocking_ = 0.0;
  Seconds theta_ = 0.0;
  Seconds frame_time_ = 0.0;
  Seconds info_time_ = 0.0;
  Seconds overhead_time_ = 0.0;
  double info_bits_ = 0.0;
  bool standard_variant_ = false;   // token passed per frame, not per message
  bool frame_dominated_ = false;    // frame_time <= theta for this geometry
  std::vector<double> base_payload_;  // station-major x lane-minor, RM order
  mutable std::vector<double> cost_;  // same layout; scratch per evaluate
  std::vector<std::uint8_t> dominance_;  // per lane: the cap is out of reach
  mutable std::vector<RtaSearchState> search_;  // per lane, RM order
  mutable std::vector<double> fail_scale_;  // per lane; < 0 = no witness
  mutable std::vector<FpTask> probe_;           // one lane's tasks; scratch
};

/// Scale-space form of `ttp_feasible` / `ttp_feasible_at`: lane l answers
/// ttp_feasible_at(bases[l].scaled(scales[l]), params, bw, ttrt) with the
/// TTRT either pinned or chosen per lane by the paper rule on the base set
/// (the rule reads only periods and deadlines, so it is scale-invariant).
/// The TTRT, the per-lane available time TTRT - Lambda and the per-station
/// usable visit counts q_i - 1 are hoisted into construction; lanes with
/// some q_i < 2 are deadline-infeasible at every scale and their verdict
/// is forced false, like the predicate's early return. The per-station
/// allocation sum accumulates in station order per lane; since every term
/// is non-negative, the predicate's early exit decides exactly when the
/// full sum exceeds the available time, so the full-sum verdict is the
/// same.
class TtpBatchKernel {
 public:
  /// Paper TTRT selection rule, applied per lane (matches `ttp_feasible`).
  TtpBatchKernel(std::span<const msg::MessageSet> bases,
                 const TtpParams& params, BitsPerSecond bw);
  /// Pinned TTRT shared by all lanes (matches `ttp_feasible_at`).
  TtpBatchKernel(std::span<const msg::MessageSet> bases,
                 const TtpParams& params, BitsPerSecond bw, Seconds ttrt);

  std::size_t lanes() const { return lanes_; }

  void evaluate(std::span<const double> scales,
                std::span<const std::uint8_t> active,
                std::span<std::uint8_t> verdicts) const;
  void evaluate(std::span<const double> scales,
                std::span<std::uint8_t> verdicts) const;

 private:
  TtpBatchKernel(std::span<const msg::MessageSet> bases,
                 const TtpParams& params, BitsPerSecond bw,
                 const Seconds* pinned_ttrt);

  std::size_t lanes_ = 0;
  std::size_t stations_ = 0;
  BitsPerSecond bw_ = 0.0;
  Seconds frame_overhead_ = 0.0;
  std::vector<double> available_;         // per lane: TTRT_l - Lambda
  std::vector<std::uint8_t> infeasible_;  // per lane: some q_i < 2
  std::vector<double> base_payload_;      // station-major x lane-minor
  std::vector<double> usable_visits_;     // same layout; 1.0 dummy rows for
                                          // infeasible lanes keep the full-
                                          // width divide finite
  mutable std::vector<double> allocated_;  // per-lane accumulators; scratch
};

}  // namespace tokenring::analysis
