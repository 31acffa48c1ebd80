#include "tokenring/experiments/fig1.hpp"

#include "tokenring/obs/span.hpp"

#include <algorithm>

#include "tokenring/common/checks.hpp"

namespace tokenring::experiments {

std::vector<Fig1Row> run_fig1(const Fig1Config& config) {
  const obs::Span span("experiments/fig1");
  TR_EXPECTS(!config.bandwidths_mbps.empty());
  TR_EXPECTS(config.sets_per_point >= 1);

  std::vector<breakdown::SweepPoint> points;
  for (double bw_mbps : config.bandwidths_mbps) {
    add_protocol_points(points, config.setup, mbps(bw_mbps),
                        config.sets_per_point, config.seed);
  }
  const auto est =
      estimate_points(points, exec::Executor(config.jobs), config.batch);

  std::vector<Fig1Row> rows;
  rows.reserve(config.bandwidths_mbps.size());
  for (std::size_t i = 0; i < config.bandwidths_mbps.size(); ++i) {
    const auto* point = &est[3 * i];  // standard, modified, FDDI
    Fig1Row row;
    row.bandwidth_mbps = config.bandwidths_mbps[i];
    row.ieee8025 = point[0].mean();
    row.ieee8025_ci = point[0].ci95();
    row.modified8025 = point[1].mean();
    row.modified8025_ci = point[1].ci95();
    row.fddi = point[2].mean();
    row.fddi_ci = point[2].ci95();
    rows.push_back(row);
  }
  return rows;
}

Fig1Observations analyze_fig1(const std::vector<Fig1Row>& rows) {
  TR_EXPECTS(rows.size() >= 2);

  Fig1Observations obs;
  obs.modified_dominates_standard = true;
  obs.fddi_monotone_rising = true;

  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    if (r.modified8025 > obs.pdp_peak_utilization) {
      obs.pdp_peak_utilization = r.modified8025;
      obs.pdp_peak_bandwidth_mbps = r.bandwidth_mbps;
    }
    if (r.modified8025 + 1e-9 < r.ieee8025) {
      obs.modified_dominates_standard = false;
    }
    if (i > 0 && r.fddi + 1e-9 < rows[i - 1].fddi) {
      obs.fddi_monotone_rising = false;
    }
  }
  obs.pdp_non_monotone =
      rows.back().modified8025 < obs.pdp_peak_utilization - 1e-12;

  const auto winner = [](const Fig1Row& r) {
    return r.fddi >= std::max(r.ieee8025, r.modified8025) ? "ttp" : "pdp";
  };
  obs.low_bandwidth_winner = winner(rows.front());
  obs.high_bandwidth_winner = winner(rows.back());

  for (const auto& r : rows) {
    if (r.fddi >= std::max(r.ieee8025, r.modified8025)) {
      // Ignore degenerate ties where every protocol is at ~zero (e.g. the
      // 1 Mbps point, where nothing is schedulable for 100 stations).
      if (r.fddi < 1e-6) continue;
      obs.ttp_crossover_mbps = r.bandwidth_mbps;
      break;
    }
  }
  return obs;
}

}  // namespace tokenring::experiments
