#include "tokenring/fault/margins.hpp"

#include <cmath>
#include <functional>
#include <string>

#include "tokenring/analysis/fixed_priority.hpp"
#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/obs/registry.hpp"

namespace tokenring::fault {

namespace {

/// One bump per margin query (not per binary-search probe), mirroring the
/// per-trial granularity used by the sim and Monte Carlo counters.
void count_margin_query(const FaultMarginReport& report) {
  static const obs::Counter queries("fault.margin_queries");
  static const obs::Counter infeasible("fault.margin_infeasible");
  queries.add();
  if (!report.fault_free_schedulable) infeasible.add();
}

/// Largest k with test(k) true, given test(0) true and test monotone (true
/// up to some boundary, false after). `hopeless` (from hopeless_faults)
/// fails unless it was clamped to kMaxFaultMargin; a clamped bound that
/// still passes leaves no truthful int answer, and the search refuses.
int largest_feasible(const std::function<bool(int)>& test, int hopeless,
                     FaultKind kind) {
  if (hopeless == kMaxFaultMargin && test(hopeless)) {
    throw MarginOutOfRange(std::string("the ") + to_string(kind) +
                           " fault margin exceeds " +
                           std::to_string(kMaxFaultMargin) +
                           " faults per period");
  }
  int lo = 0;         // known feasible
  int hi = hopeless;  // known infeasible
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (test(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// A k past which no criterion can pass: the whole deadline window spent
/// recovering. +2 keeps the search bracket valid even at outage ~ 0 window.
/// Beside a deadline of hours the count passes INT_MAX, so it is taken in
/// double and clamped to kMaxFaultMargin before the cast.
int hopeless_faults(const msg::MessageSet& set, Seconds outage) {
  Seconds longest = 0.0;
  for (const auto& s : set.streams()) {
    longest = std::max(longest, s.deadline());
  }
  if (outage <= 0.0) return 2;
  const double k = std::ceil(longest / outage) + 2.0;
  return k < static_cast<double>(kMaxFaultMargin) ? static_cast<int>(k)
                                                  : kMaxFaultMargin;
}

/// Scale-invariant per-stream TTP state for the margin search: payload
/// times and deadlines don't change with k, only the debit does.
struct TtpProbeState {
  Seconds available = 0.0;
  Seconds frame_overhead = 0.0;
  Seconds ttrt = 0.0;
  Seconds recovery_with_rotation = 0.0;
  struct Station {
    Seconds deadline = 0.0;
    Seconds payload_time = 0.0;
  };
  std::vector<Station> stations;
};

TtpProbeState make_ttp_probe_state(const msg::MessageSet& set,
                                   const analysis::TtpParams& params,
                                   BitsPerSecond bw, Seconds ttrt,
                                   const FaultBudget& budget) {
  TtpProbeState st;
  st.ttrt = ttrt;
  // Each outage also wastes the rotation in progress when it strikes (the
  // aborted visit plus the fresh ramp-up), so charge one TTRT on top.
  st.recovery_with_rotation =
      ttp_fault_outage(budget.kind, params, bw, ttrt, budget.noise_duration) +
      ttrt;
  st.available = ttrt - analysis::ttp_lambda(params, bw);
  st.frame_overhead = params.frame.overhead_time(bw);
  st.stations.reserve(set.size());
  for (const auto& s : set.streams()) {
    st.stations.push_back({s.deadline(), s.payload_time(bw)});
  }
  return st;
}

bool ttp_probe(const TtpProbeState& st, int faults_per_period) {
  const Seconds debit =
      static_cast<double>(faults_per_period) * st.recovery_with_rotation;
  Seconds allocated = 0.0;
  for (const auto& s : st.stations) {
    const Seconds window = s.deadline - debit;
    if (window <= 0.0) return false;
    const double q = analysis::ttp_visits(window, st.ttrt);
    if (q < 2.0) return false;
    allocated += s.payload_time / (q - 1.0) + st.frame_overhead;
    if (allocated > st.available) return false;
  }
  return true;
}

}  // namespace

bool pdp_schedulable_with_faults(const msg::MessageSet& set,
                                 const analysis::PdpParams& params,
                                 BitsPerSecond bw, const FaultBudget& budget,
                                 int faults_per_period) {
  TR_EXPECTS(faults_per_period >= 0);
  TR_EXPECTS(bw > 0.0);
  // Beyond the recovery outage itself, a fault destroys the frame in
  // flight, whose partial transmission (up to one max frame) is repeated.
  const Seconds recovery =
      pdp_fault_outage(budget.kind, params, bw, budget.noise_duration) +
      params.frame.frame_time(bw);
  return analysis::rta_feasible_fast(
      analysis::pdp_tasks(set, params, bw),
      analysis::pdp_blocking(params, bw) +
          static_cast<double>(faults_per_period) * recovery);
}

bool ttp_schedulable_with_faults(const msg::MessageSet& set,
                                 const analysis::TtpParams& params,
                                 BitsPerSecond bw, Seconds ttrt,
                                 const FaultBudget& budget,
                                 int faults_per_period) {
  TR_EXPECTS(faults_per_period >= 0);
  TR_EXPECTS(bw > 0.0);
  TR_EXPECTS(!set.empty());
  if (ttrt <= 0.0) ttrt = analysis::select_ttrt(set, params.ring, bw);
  return ttp_probe(make_ttp_probe_state(set, params, bw, ttrt, budget),
                   faults_per_period);
}

FaultMarginReport pdp_fault_margin(const msg::MessageSet& set,
                                   const analysis::PdpParams& params,
                                   BitsPerSecond bw,
                                   const FaultBudget& budget) {
  FaultMarginReport report;
  report.recovery_per_fault =
      pdp_fault_outage(budget.kind, params, bw, budget.noise_duration);
  // Everything except the blocking term is independent of the fault count,
  // so the augmented task list is built once for the whole binary search.
  // The bisection probes k above the last feasible k only, so the blocking
  // never falls below the committed one and each probe's fixpoints start
  // from that k's responses.
  const auto tasks = analysis::pdp_tasks(set, params, bw);
  const Seconds base_blocking = analysis::pdp_blocking(params, bw);
  const Seconds recovery =
      report.recovery_per_fault + params.frame.frame_time(bw);
  analysis::RtaSearchState search;
  const auto feasible = [&](int k) {
    return analysis::rta_feasible_fast(
        tasks, base_blocking + static_cast<double>(k) * recovery, &search);
  };
  report.fault_free_schedulable = feasible(0);
  if (report.fault_free_schedulable) {
    report.margin = largest_feasible(
        feasible, hopeless_faults(set, report.recovery_per_fault),
        budget.kind);
  }
  analysis::record_rta_work(search.work);
  count_margin_query(report);
  return report;
}

FaultMarginReport ttp_fault_margin(const msg::MessageSet& set,
                                   const analysis::TtpParams& params,
                                   BitsPerSecond bw, Seconds ttrt,
                                   const FaultBudget& budget) {
  TR_EXPECTS(!set.empty());
  TR_EXPECTS(bw > 0.0);
  if (ttrt <= 0.0) ttrt = analysis::select_ttrt(set, params.ring, bw);
  FaultMarginReport report;
  report.recovery_per_fault =
      ttp_fault_outage(budget.kind, params, bw, ttrt, budget.noise_duration);
  // Payload times, deadlines and the Theorem 5.1 constants are hoisted
  // once; each probe only re-derives the k-dependent visit counts.
  const TtpProbeState state =
      make_ttp_probe_state(set, params, bw, ttrt, budget);
  report.fault_free_schedulable = ttp_probe(state, 0);
  if (report.fault_free_schedulable) {
    report.margin = largest_feasible(
        [&](int k) { return ttp_probe(state, k); },
        hopeless_faults(set, report.recovery_per_fault), budget.kind);
  }
  count_margin_query(report);
  return report;
}

}  // namespace tokenring::fault
