// Structure-of-arrays batch kernels (see kernels.hpp for the contract).
//
// This translation unit holds the lane-vectorized hot loops and is compiled
// with a slightly raised x86 baseline (see src/CMakeLists.txt) so the
// floor/ceil in the PDP frame-count arithmetic can use vector rounding
// instructions. Every operation is IEEE-exact scalar-for-scalar (mul, div,
// add, floor, ceil, max, blend — no FMA contraction, no reassociation), so
// the verdicts are bit-identical to the scalar kernels whatever the vector
// width. The VEC-HOT markers delimit the loops scripts/check_vectorization.py
// requires the compiler to vectorize.

#include <algorithm>
#include <cmath>
#include <utility>

#include "tokenring/analysis/kernels.hpp"
#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/obs/registry.hpp"

namespace tokenring::analysis {

namespace {

/// The geometry terms of `pdp_augmented_length` at one bandwidth.
struct PdpCostTerms {
  double info_bits;
  double theta;
  double frame_time;
  double info_time;
  double overhead_time;
  double bw;
};

/// Bitwise `pdp_augmented_length(stream with this payload, params, bw)`:
/// same multiplies, same divides, same accumulation order as the scalar
/// path, with its branches turned into selects. The cost stage's loop and
/// the fail witness both call it, so a witness's recomputed costs are the
/// bits the stage produced.
template <bool kStandard, bool kFrameDominated>
inline double pdp_cost(double payload, const PdpCostTerms& g) {
  const double frames = payload / g.info_bits;
  const double full = std::floor(frames);   // L_i
  const double total = std::ceil(frames);   // K_i
  const double token_overhead =
      kStandard ? total * g.theta / 2.0 : g.theta / 2.0;
  double value;
  if constexpr (kFrameDominated) {
    // F <= Theta: every frame's slot costs Theta.
    value = total * g.theta + token_overhead;
  } else {
    // L_i full frames at F each, plus a short last frame iff K_i > L_i.
    // The short-frame time is computed unconditionally (it is harmless
    // garbage when K_i == L_i) so both conditionals lower to selects.
    const double short_frame = std::max(
        payload / g.bw - full * g.info_time + g.overhead_time, g.theta);
    const double tail = total > full ? short_frame : 0.0;
    value = full * g.frame_time + token_overhead + tail;
  }
  return payload > 0.0 ? value : 0.0;
}

/// Augmented-length stage of the PDP batch probe: cost[i*lanes + l] is
/// `pdp_cost` of lane l's payload base_payload * scale at station i.
template <bool kStandard, bool kFrameDominated>
void pdp_batch_costs(std::size_t stations, std::size_t lanes,
                     const double* base_payload, const double* scales,
                     PdpCostTerms g, double* cost) {
  for (std::size_t i = 0; i < stations; ++i) {
    const double* bp = base_payload + i * lanes;
    double* c = cost + i * lanes;
    // VEC-HOT-BEGIN(pdp_costs)
    for (std::size_t l = 0; l < lanes; ++l) {
      c[l] = pdp_cost<kStandard, kFrameDominated>(bp[l] * scales[l], g);
    }
    // VEC-HOT-END(pdp_costs)
  }
}

}  // namespace

PdpBatchKernel::PdpBatchKernel(std::span<const msg::MessageSet> bases,
                               const PdpParams& params, BitsPerSecond bw)
    : lanes_(bases.size()),
      bw_(bw),
      blocking_(pdp_blocking(params, bw)),
      theta_(params.ring.theta(bw)),
      frame_time_(params.frame.frame_time(bw)),
      info_time_(params.frame.info_time(bw)),
      overhead_time_(params.frame.overhead_time(bw)),
      info_bits_(params.frame.info_bits),
      standard_variant_(params.variant == PdpVariant::kStandard8025),
      frame_dominated_(params.frame.frame_time(bw) <= params.ring.theta(bw)) {
  TR_EXPECTS(bw > 0.0);
  TR_EXPECTS(!bases.empty());
  stations_ = bases[0].size();
  TR_EXPECTS(stations_ >= 1);

  base_payload_.resize(stations_ * lanes_);
  cost_.resize(stations_ * lanes_);
  dominance_.resize(lanes_);
  search_.resize(lanes_);
  fail_scale_.assign(lanes_, -1.0);
  probe_.resize(stations_);
  for (std::size_t l = 0; l < lanes_; ++l) {
    TR_EXPECTS_MSG(bases[l].size() == stations_,
                   "batch lanes must share one station count");
    // Deadline sort compares only deadlines, which scaling leaves
    // untouched: the base permutation is the scaled permutation (same
    // hoist as the scalar kernel).
    const msg::MessageSet sorted = bases[l].rm_sorted();
    // Committed costs start at -1, below every cost: every probe dominates
    // them for the warm start, and none is at or below them, so the lane
    // has no pass witness before its first schedulable probe (a zero-cost
    // probe can be unschedulable: blocking alone can exceed a period).
    // Zero responses make the first fixpoints cold.
    auto& search = search_[l];
    search.committed.resize(stations_);
    search.response.assign(stations_, 0.0);
    Seconds longest_deadline = 0.0;
    Seconds shortest_period = sorted.streams()[0].period;
    for (std::size_t i = 0; i < stations_; ++i) {
      const auto& s = sorted.streams()[i];
      base_payload_[i * lanes_ + l] = s.payload_bits;
      search.committed[i] = {s.period, -1.0, s.relative_deadline};
      longest_deadline = std::max(longest_deadline, s.deadline());
      shortest_period = std::min(shortest_period, s.period);
    }
    // No ceil(r/P_j) of any fixpoint passes ceil(D_max/P_min), and each
    // iteration that does not end a run raises one (DESIGN.md §2.1).
    dominance_[l] = static_cast<double>(stations_) *
                            std::ceil(longest_deadline / shortest_period) +
                        2.0 <
                    kMaxRtaIterations;
  }
}

double PdpBatchKernel::witness_cost(std::size_t i, std::size_t l,
                                    double scale) const {
  const PdpCostTerms g{info_bits_,     theta_, frame_time_, info_time_,
                       overhead_time_, bw_};
  const double payload = base_payload_[i * lanes_ + l] * scale;
  if (standard_variant_) {
    return frame_dominated_ ? pdp_cost<true, true>(payload, g)
                            : pdp_cost<true, false>(payload, g);
  }
  return frame_dominated_ ? pdp_cost<false, true>(payload, g)
                          : pdp_cost<false, false>(payload, g);
}

void PdpBatchKernel::evaluate(std::span<const double> scales,
                              std::span<const std::uint8_t> active,
                              std::span<std::uint8_t> verdicts) const {
  TR_EXPECTS(scales.size() == lanes_);
  TR_EXPECTS(active.size() == lanes_);
  TR_EXPECTS(verdicts.size() == lanes_);

  using CostFn = void (*)(std::size_t, std::size_t, const double*,
                          const double*, PdpCostTerms, double*);
  static constexpr CostFn kCostFns[2][2] = {
      {&pdp_batch_costs<false, false>, &pdp_batch_costs<false, true>},
      {&pdp_batch_costs<true, false>, &pdp_batch_costs<true, true>}};
  kCostFns[standard_variant_ ? 1 : 0][frame_dominated_ ? 1 : 0](
      stations_, lanes_, base_payload_.data(), scales.data(),
      {info_bits_, theta_, frame_time_, info_time_, overhead_time_, bw_},
      cost_.data());

  // Per live lane: cost dominance against the lane's two witnesses, then
  // the screened RTA, whose verdict is the scalar kernel's (the
  // failed-task hint only reorders which task is tested first, the warm
  // start only where each fixpoint starts).
  RtaWork work;
  std::uint64_t exact_probes = 0;
  for (std::size_t l = 0; l < lanes_; ++l) {
    if (!active[l]) continue;
    auto& search = search_[l];
    const auto cost = [&](std::size_t i) { return cost_[i * lanes_ + l]; };
    if (dominance_[l]) {
      bool below_pass = true;
      for (std::size_t i = 0; i < stations_ && below_pass; ++i) {
        below_pass = cost(i) <= search.committed[i].cost;
      }
      if (below_pass) {
        verdicts[l] = 1;
        continue;
      }
      bool above_fail = fail_scale_[l] >= 0.0;
      for (std::size_t i = 0; i < stations_ && above_fail; ++i) {
        above_fail = cost(i) >= witness_cost(i, l, fail_scale_[l]);
      }
      if (above_fail) {
        verdicts[l] = 0;
        continue;
      }
    }
    for (std::size_t i = 0; i < stations_; ++i) {
      probe_[i] = {search.committed[i].period, cost(i),
                   search.committed[i].deadline};
    }
    const bool feasible = rta_feasible_fast(probe_, blocking_, &search);
    verdicts[l] = feasible ? 1 : 0;
    if (!feasible) fail_scale_[l] = scales[l];
    ++exact_probes;
    work += std::exchange(search.work, {});
  }
  record_rta_work(work);
  static const obs::Counter exact("breakdown.exact_probes");
  exact.add(exact_probes);
}

void PdpBatchKernel::evaluate(std::span<const double> scales,
                              std::span<std::uint8_t> verdicts) const {
  const std::vector<std::uint8_t> all(lanes_, 1);
  evaluate(scales, all, verdicts);
}

TtpBatchKernel::TtpBatchKernel(std::span<const msg::MessageSet> bases,
                               const TtpParams& params, BitsPerSecond bw)
    : TtpBatchKernel(bases, params, bw, nullptr) {}

TtpBatchKernel::TtpBatchKernel(std::span<const msg::MessageSet> bases,
                               const TtpParams& params, BitsPerSecond bw,
                               Seconds ttrt)
    : TtpBatchKernel(bases, params, bw, &ttrt) {}

TtpBatchKernel::TtpBatchKernel(std::span<const msg::MessageSet> bases,
                               const TtpParams& params, BitsPerSecond bw,
                               const Seconds* pinned_ttrt)
    : lanes_(bases.size()),
      bw_(bw),
      frame_overhead_(params.frame.overhead_time(bw)) {
  TR_EXPECTS(bw > 0.0);
  TR_EXPECTS(!bases.empty());
  stations_ = bases[0].size();
  TR_EXPECTS(stations_ >= 1);

  const Seconds lambda = ttp_lambda(params, bw);
  available_.resize(lanes_);
  infeasible_.assign(lanes_, 0);
  base_payload_.assign(stations_ * lanes_, 0.0);
  usable_visits_.assign(stations_ * lanes_, 1.0);
  allocated_.resize(lanes_);
  for (std::size_t l = 0; l < lanes_; ++l) {
    TR_EXPECTS_MSG(bases[l].size() == stations_,
                   "batch lanes must share one station count");
    // The paper's TTRT rule reads only periods and deadlines:
    // scale-invariant, so selecting on the base set is exact.
    const Seconds ttrt = pinned_ttrt != nullptr
                             ? *pinned_ttrt
                             : select_ttrt(bases[l], params.ring, bw);
    TR_EXPECTS(ttrt > 0.0);
    available_[l] = ttrt - lambda;
    for (std::size_t i = 0; i < stations_; ++i) {
      const auto& s = bases[l].streams()[i];
      // q_i = floor(D_i / TTRT) reads only the deadline: scale-invariant.
      const auto q =
          static_cast<std::int64_t>(std::floor(s.deadline() / ttrt));
      if (q < 2) {
        // Deadline-infeasible at every scale; leave the dummy rows (payload
        // 0, divisor 1) so the full-width loop stays finite, and force the
        // verdict below — exactly the scalar kernel's early-out flag.
        infeasible_[l] = 1;
        break;
      }
      base_payload_[i * lanes_ + l] = s.payload_bits;
      usable_visits_[i * lanes_ + l] = static_cast<double>(q - 1);
    }
  }
}

void TtpBatchKernel::evaluate(std::span<const double> scales,
                              std::span<const std::uint8_t> active,
                              std::span<std::uint8_t> verdicts) const {
  TR_EXPECTS(scales.size() == lanes_);
  TR_EXPECTS(active.size() == lanes_);
  TR_EXPECTS(verdicts.size() == lanes_);

  double* acc = allocated_.data();
  std::fill(allocated_.begin(), allocated_.end(), 0.0);
  // Per-lane allocation sums accumulate in station order — the scalar
  // accumulation order — with lanes advancing in lockstep.
  for (std::size_t i = 0; i < stations_; ++i) {
    const double* bp = base_payload_.data() + i * lanes_;
    const double* uv = usable_visits_.data() + i * lanes_;
    // VEC-HOT-BEGIN(ttp_alloc)
    for (std::size_t l = 0; l < lanes_; ++l) {
      const double payload_bits = bp[l] * scales[l];
      acc[l] += (payload_bits / bw_) / uv[l] + frame_overhead_;
    }
    // VEC-HOT-END(ttp_alloc)
  }
  // Non-negative terms make the per-station prefix sums monotone (in FP
  // too), so "some prefix exceeded the available time" — the scalar early
  // exit — holds exactly when the full sum does.
  for (std::size_t l = 0; l < lanes_; ++l) {
    if (!active[l]) continue;
    verdicts[l] = (!infeasible_[l] && acc[l] <= available_[l]) ? 1 : 0;
  }
}

void TtpBatchKernel::evaluate(std::span<const double> scales,
                              std::span<std::uint8_t> verdicts) const {
  const std::vector<std::uint8_t> all(lanes_, 1);
  evaluate(scales, all, verdicts);
}

}  // namespace tokenring::analysis
