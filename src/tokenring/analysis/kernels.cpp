#include "tokenring/analysis/kernels.hpp"

#include <cmath>
#include <utility>

#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/common/checks.hpp"

namespace tokenring::analysis {

PdpScaleKernel::PdpScaleKernel(const msg::MessageSet& base,
                               const PdpParams& params, BitsPerSecond bw)
    : params_(params), bw_(bw), blocking_(pdp_blocking(params, bw)) {
  TR_EXPECTS(bw > 0.0);
  // The stable deadline sort compares only deadlines, which scaling leaves
  // untouched, so the base permutation is the scaled permutation.
  const msg::MessageSet sorted = base.rm_sorted();
  sorted_ = sorted.streams();
  tasks_.resize(sorted_.size());
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    tasks_[i].period = sorted_[i].period;
    tasks_[i].deadline = sorted_[i].relative_deadline;
  }
  // Sized here so no probe allocates; zero costs and responses make the
  // first fixpoints cold.
  search_.committed = tasks_;
  search_.response.assign(tasks_.size(), 0.0);
}

bool PdpScaleKernel::operator()(double scale) const {
  // Augmented lengths depend on the scaled payload through the frame
  // count, so they are recomputed per probe — but on a stack-local stream,
  // with the same multiply `scaled()` performs, feeding the same
  // `pdp_augmented_length` the predicate path uses: costs are bitwise
  // equal to the reference's.
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    msg::SyncStream s = sorted_[i];
    s.payload_bits *= scale;
    tasks_[i].cost = pdp_augmented_length(s, params_, bw_);
  }
  const bool feasible = rta_feasible_fast(tasks_, blocking_, &search_);
  record_rta_work(std::exchange(search_.work, {}));
  return feasible;
}

TtpScaleKernel::TtpScaleKernel(const msg::MessageSet& base,
                               const TtpParams& params, BitsPerSecond bw)
    : TtpScaleKernel(base, params, bw,
                     select_ttrt(base, params.ring, bw)) {}

TtpScaleKernel::TtpScaleKernel(const msg::MessageSet& base,
                               const TtpParams& params, BitsPerSecond bw,
                               Seconds ttrt)
    : bw_(bw),
      available_(ttrt - ttp_lambda(params, bw)),
      frame_overhead_(params.frame.overhead_time(bw)) {
  TR_EXPECTS(bw > 0.0);
  TR_EXPECTS(ttrt > 0.0);
  stations_.reserve(base.size());
  for (const auto& s : base.streams()) {
    // q_i = floor(D_i / TTRT) reads only the deadline: scale-invariant.
    const auto q = static_cast<std::int64_t>(std::floor(s.deadline() / ttrt));
    if (q < 2) {
      any_deadline_infeasible_ = true;
      break;
    }
    stations_.push_back({s.payload_bits, static_cast<double>(q - 1)});
  }
}

bool TtpScaleKernel::operator()(double scale) const {
  // Replays ttp_feasible_at on the scaled set: same per-station h_i
  // arithmetic, same accumulation order, same early exits.
  if (any_deadline_infeasible_) return false;
  Seconds allocated = 0.0;
  for (const auto& st : stations_) {
    const double payload_bits = st.base_payload_bits * scale;
    allocated +=
        (payload_bits / bw_) / st.usable_visits + frame_overhead_;
    if (allocated > available_) return false;
  }
  return true;
}

}  // namespace tokenring::analysis
