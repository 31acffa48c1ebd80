#include "tokenring/experiments/deadline_study.hpp"

#include "tokenring/obs/span.hpp"

#include "tokenring/common/checks.hpp"

namespace tokenring::experiments {

std::vector<DeadlineStudyRow> run_deadline_study(
    const DeadlineStudyConfig& config) {
  const obs::Span span("experiments/deadline_study");
  TR_EXPECTS(!config.deadline_fractions.empty());
  TR_EXPECTS(!config.bandwidths_mbps.empty());

  std::vector<breakdown::SweepPoint> points;
  std::vector<DeadlineStudyRow> rows;
  for (double bw_mbps : config.bandwidths_mbps) {
    const BitsPerSecond bw = mbps(bw_mbps);
    for (double fraction : config.deadline_fractions) {
      TR_EXPECTS(fraction > 0.0 && fraction <= 1.0);
      PaperSetup setup = config.setup;
      setup.deadline_fraction = fraction;
      add_protocol_points(points, setup, bw, config.sets_per_point,
                          config.seed);
      DeadlineStudyRow row;
      row.bandwidth_mbps = bw_mbps;
      row.deadline_fraction = fraction;
      rows.push_back(row);
    }
  }
  const auto est =
      estimate_points(points, exec::Executor(config.jobs), config.batch);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].ieee8025 = est[3 * i].mean();
    rows[i].modified8025 = est[3 * i + 1].mean();
    rows[i].fddi = est[3 * i + 2].mean();
  }
  return rows;
}

}  // namespace tokenring::experiments
