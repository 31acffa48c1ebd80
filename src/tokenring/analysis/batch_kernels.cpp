// Structure-of-arrays batch kernels (see kernels.hpp for the contract).
//
// This translation unit holds the lane-vectorized hot loops and is compiled
// with a slightly raised x86 baseline (see src/CMakeLists.txt) so the
// floor/ceil in the PDP frame-count arithmetic can use vector rounding
// instructions. Every operation is IEEE-exact scalar-for-scalar (mul, div,
// add, floor, ceil, max, blend — no FMA contraction, no reassociation), so
// the verdicts are bit-identical to the predicates whatever the vector
// width. The VEC-HOT markers delimit the loops scripts/check_vectorization.py
// requires the compiler to vectorize.

#include <algorithm>
#include <cmath>
#include <utility>

#include "tokenring/analysis/kernels.hpp"
#include "tokenring/analysis/pdp_cost.hpp"
#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/obs/registry.hpp"

namespace tokenring::analysis {

namespace {

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
    // untouched: the base permutation is the scaled permutation.
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
  return pdp_cost(base_payload_[i * lanes_ + l] * scale,
                  {info_bits_, theta_, frame_time_, info_time_,
                   overhead_time_, bw_},
                  standard_variant_, frame_dominated_);
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
  // the screened RTA, whose verdict is pdp_feasible's (the failed-task
  // hint only reorders which task is tested first, the warm start only
  // where each fixpoint starts).
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
      // q_i reads only the deadline: scale-invariant.
      const double q = ttp_visits(s.deadline(), ttrt);
      if (q < 2.0) {
        // Deadline-infeasible at every scale; leave the dummy rows (payload
        // 0, divisor 1) so the full-width loop stays finite, and force the
        // verdict below — the predicate's early return.
        infeasible_[l] = 1;
        break;
      }
      base_payload_[i * lanes_ + l] = s.payload_bits;
      usable_visits_[i * lanes_ + l] = q - 1.0;
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
  // Per-lane allocation sums accumulate in station order — the
  // predicate's accumulation order, from 0.0 — with lanes advancing in
  // lockstep. The first station reads 0.0 instead of a zeroed
  // accumulator: the same additions without a memset call per probe,
  // which would outweigh a short sum in a one-lane kernel.
  for (std::size_t i = 0; i < stations_; ++i) {
    const double* bp = base_payload_.data() + i * lanes_;
    const double* uv = usable_visits_.data() + i * lanes_;
    const bool first = i == 0;
    // VEC-HOT-BEGIN(ttp_alloc)
    for (std::size_t l = 0; l < lanes_; ++l) {
      const double payload_bits = bp[l] * scales[l];
      acc[l] = (first ? 0.0 : acc[l]) +
               ((payload_bits / bw_) / uv[l] + frame_overhead_);
    }
    // VEC-HOT-END(ttp_alloc)
  }
  // Non-negative terms make the per-station prefix sums monotone (in FP
  // too), so "some prefix exceeded the available time" — the predicate's
  // early exit — holds exactly when the full sum does.
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
