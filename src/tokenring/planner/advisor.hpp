// Protocol selection advisor — the paper's design-stage use case.
//
// "At the design stage, when faced with a choice between alternative
// protocols, and in the absence of a detailed knowledge of the message
// sets, it is more appropriate to base the selection on the average case
// performance" (Section 2). Given a traffic profile (station count, period
// statistics) and candidate bandwidths, the advisor estimates the average
// breakdown utilization of all three implementations at each bandwidth
// and recommends the winner with its margin.

#pragma once

#include <cstdint>
#include <vector>

#include "tokenring/experiments/setup.hpp"
#include "tokenring/planner/planner.hpp"

namespace tokenring::planner {

/// Traffic profile for the advisor; the subset of PaperSetup a designer
/// would actually know up front.
struct TrafficProfile {
  int num_stations = 100;
  double station_spacing_m = 100.0;
  Seconds mean_period = milliseconds(100);
  double period_ratio = 10.0;

  experiments::PaperSetup to_setup() const;
};

/// Per-protocol estimate and the recommendation.
struct Recommendation {
  Protocol best{};
  double ieee8025 = 0.0;
  double modified8025 = 0.0;
  double fddi = 0.0;
  /// best / second-best mean breakdown utilization (1.0 = dead heat).
  double margin = 1.0;
  /// Mean fault resilience margin (fault/margins.hpp: max token losses per
  /// period the fault-aware criterion still absorbs) with each sampled set
  /// scaled to 70% of its own schedulability boundary. Sets with no
  /// boundary (degenerate or unbounded draws) or infeasible even at that
  /// load contribute -1, matching FaultMarginReport.
  double modified8025_resilience = 0.0;
  double fddi_resilience = 0.0;

  /// Estimate for one protocol (indexing helper for reports).
  double estimate(Protocol protocol) const;
};

/// Estimate breakdown utilization for each protocol at each of
/// `bandwidths` via Monte Carlo (`num_sets` random sets per estimate, the
/// same sets at every bandwidth, deterministic in `seed`) and pick the
/// winner per bandwidth, running the trials on `executor` (an
/// `exec::Executor(1)` runs them inline). Every bandwidth's three
/// protocol points run in one sweep (breakdown::estimate_sweep), one
/// dispatch, saturating in lockstep SoA batches of `batch` trials; each
/// trial's resilience margins are follow-ups on its modified 802.5 and
/// FDDI searches. Returns one Recommendation per bandwidth, in order,
/// each the same for every (jobs, batch) combination and whatever the
/// other bandwidths are.
std::vector<Recommendation> recommend_protocol(
    const TrafficProfile& profile, const std::vector<BitsPerSecond>& bandwidths,
    std::size_t num_sets, std::uint64_t seed, const exec::Executor& executor,
    std::size_t batch = 64);

}  // namespace tokenring::planner
