#include "tokenring/analysis/ttp.hpp"

#include <cmath>
#include <limits>

#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/common/checks.hpp"

namespace tokenring::analysis {

void TtpParams::validate() const {
  ring.validate();
  frame.validate();
  async_frame.validate();
}

Seconds ttp_lambda(const TtpParams& params, BitsPerSecond bw) {
  TR_EXPECTS(bw > 0.0);
  return params.ring.theta(bw) + params.async_frame.frame_time(bw);
}

double ttp_visits(Seconds window, Seconds ttrt) {
  return std::floor(window / ttrt);
}

std::optional<Seconds> ttp_local_bandwidth(const msg::SyncStream& stream,
                                           const TtpParams& params,
                                           BitsPerSecond bw, Seconds ttrt) {
  TR_EXPECTS(bw > 0.0);
  TR_EXPECTS(ttrt > 0.0);
  // q_i counts token visits guaranteed inside the stream's *deadline*
  // window; with implicit deadlines (D = P, the paper's model) this is
  // exactly floor(P_i / TTRT).
  const double q = ttp_visits(stream.deadline(), ttrt);
  if (q < 2.0) return std::nullopt;
  return stream.payload_time(bw) / (q - 1.0) + params.frame.overhead_time(bw);
}

TtpVerdict ttp_schedulable_at(const msg::MessageSet& set,
                              const TtpParams& params, BitsPerSecond bw,
                              Seconds ttrt) {
  params.validate();
  set.validate();
  TR_EXPECTS(bw > 0.0);
  TR_EXPECTS(ttrt > 0.0);

  TtpVerdict v;
  v.ttrt = ttrt;
  v.lambda = ttp_lambda(params, bw);
  v.available = ttrt - v.lambda;
  v.reports.reserve(set.size());

  bool all_deadline_feasible = true;
  Seconds allocated = 0.0;
  for (const auto& s : set.streams()) {
    TtpStreamReport r;
    r.stream = s;
    r.q = ttp_visits(s.deadline(), ttrt);
    const auto h = ttp_local_bandwidth(s, params, bw, ttrt);
    r.deadline_feasible = h.has_value();
    if (h) {
      r.h = *h;
      r.augmented_length =
          s.payload_time(bw) + (r.q - 1.0) * params.frame.overhead_time(bw);
      allocated += r.h;
    } else {
      all_deadline_feasible = false;
    }
    v.reports.push_back(r);
  }

  v.allocated = allocated;
  // Theorem 5.1: protocol constraint sum h_i <= TTRT - Lambda, plus every
  // stream must have q_i >= 2 for the deadline constraint to hold.
  v.schedulable = all_deadline_feasible && allocated <= v.available;
  return v;
}

TtpVerdict ttp_schedulable(const msg::MessageSet& set, const TtpParams& params,
                           BitsPerSecond bw) {
  TR_EXPECTS(!set.empty());
  const Seconds ttrt = select_ttrt(set, params.ring, bw);
  return ttp_schedulable_at(set, params, bw, ttrt);
}

bool ttp_feasible_at(const msg::MessageSet& set, const TtpParams& params,
                     BitsPerSecond bw, Seconds ttrt) {
  TR_EXPECTS(bw > 0.0);
  TR_EXPECTS(ttrt > 0.0);
  const Seconds available = ttrt - ttp_lambda(params, bw);
  Seconds allocated = 0.0;
  for (const auto& s : set.streams()) {
    const auto h = ttp_local_bandwidth(s, params, bw, ttrt);
    if (!h) return false;
    allocated += *h;
    if (allocated > available) return false;
  }
  return true;
}

bool ttp_feasible(const msg::MessageSet& set, const TtpParams& params,
                  BitsPerSecond bw) {
  TR_EXPECTS(!set.empty());
  return ttp_feasible_at(set, params, bw, select_ttrt(set, params.ring, bw));
}

double ttp_critical_scale(const msg::MessageSet& set, const TtpParams& params,
                          BitsPerSecond bw, Seconds ttrt) {
  TR_EXPECTS(bw > 0.0);
  TR_EXPECTS(ttrt > 0.0);
  const Seconds f_ovhd = params.frame.overhead_time(bw);
  Seconds per_scale_demand = 0.0;  // sum C_i / (q_i - 1) at scale 1
  for (const auto& s : set.streams()) {
    const double q = ttp_visits(s.deadline(), ttrt);
    if (q < 2.0) return 0.0;
    per_scale_demand += s.payload_time(bw) / (q - 1.0);
  }
  const Seconds headroom = ttrt - ttp_lambda(params, bw) -
                           static_cast<double>(set.size()) * f_ovhd;
  if (headroom < 0.0) return 0.0;
  if (per_scale_demand <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return headroom / per_scale_demand;
}

double ttp_worst_case_utilization_bound(const TtpParams& params,
                                        BitsPerSecond bw, Seconds ttrt) {
  TR_EXPECTS(ttrt > 0.0);
  const Seconds lambda = ttp_lambda(params, bw);
  if (lambda >= ttrt) return 0.0;
  return (1.0 - lambda / ttrt) / 3.0;
}

}  // namespace tokenring::analysis
