#include "tokenring/analysis/pdp.hpp"

#include <algorithm>

#include "tokenring/analysis/pdp_cost.hpp"
#include "tokenring/common/checks.hpp"

namespace tokenring::analysis {

const char* to_string(PdpVariant v) {
  switch (v) {
    case PdpVariant::kStandard8025:
      return "IEEE 802.5";
    case PdpVariant::kModified8025:
      return "Modified IEEE 802.5";
  }
  return "?";
}

void PdpParams::validate() const {
  ring.validate();
  frame.validate();
}

Seconds pdp_augmented_length(const msg::SyncStream& stream,
                             const PdpParams& params, BitsPerSecond bw) {
  TR_EXPECTS(bw > 0.0);
  return pdp_cost(stream.payload_bits, pdp_cost_terms(params, bw),
                  params.variant == PdpVariant::kStandard8025,
                  params.frame.frame_time(bw) <= params.ring.theta(bw));
}

Seconds pdp_blocking(const PdpParams& params, BitsPerSecond bw) {
  TR_EXPECTS(bw > 0.0);
  return 2.0 * std::max(params.frame.frame_time(bw), params.ring.theta(bw));
}

std::vector<FpTask> pdp_tasks(const msg::MessageSet& set,
                              const PdpParams& params, BitsPerSecond bw) {
  const msg::MessageSet sorted = set.rm_sorted();
  std::vector<FpTask> tasks;
  tasks.reserve(sorted.size());
  for (const auto& s : sorted.streams()) {
    tasks.push_back(FpTask{s.period, pdp_augmented_length(s, params, bw),
                           s.relative_deadline});
  }
  return tasks;
}

namespace {

PdpVerdict build_verdict(const msg::MessageSet& set, const PdpParams& params,
                         BitsPerSecond bw, bool use_lsd) {
  params.validate();
  set.validate();
  TR_EXPECTS(bw > 0.0);

  const msg::MessageSet sorted = set.rm_sorted();
  const std::vector<FpTask> tasks = pdp_tasks(set, params, bw);
  const Seconds blocking = pdp_blocking(params, bw);

  const FpSetVerdict fp = use_lsd ? lsd_point_test_all(tasks, blocking)
                                  : response_time_analysis(tasks, blocking);

  PdpVerdict v;
  v.schedulable = fp.schedulable;
  v.blocking = blocking;
  v.reports.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    auto& r = v.reports[i];
    r.stream = sorted[i];
    r.augmented_length = tasks[i].cost;
    r.frames = params.frame.frames_for_payload(sorted[i].payload_bits);
    r.schedulable = fp.tasks[i].schedulable;
    r.response_time = fp.tasks[i].response_time;
  }
  return v;
}

}  // namespace

PdpVerdict pdp_schedulable(const msg::MessageSet& set, const PdpParams& params,
                           BitsPerSecond bw) {
  return build_verdict(set, params, bw, /*use_lsd=*/false);
}

PdpVerdict pdp_schedulable_lsd(const msg::MessageSet& set,
                               const PdpParams& params, BitsPerSecond bw) {
  return build_verdict(set, params, bw, /*use_lsd=*/true);
}

bool pdp_feasible(const msg::MessageSet& set, const PdpParams& params,
                  BitsPerSecond bw) {
  TR_EXPECTS(bw > 0.0);
  const std::vector<FpTask> tasks = pdp_tasks(set, params, bw);
  const Seconds blocking = pdp_blocking(params, bw);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!response_time(tasks, i, blocking)) return false;
  }
  return true;
}

}  // namespace tokenring::analysis
