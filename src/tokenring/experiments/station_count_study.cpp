#include "tokenring/experiments/station_count_study.hpp"

#include "tokenring/obs/span.hpp"

#include "tokenring/common/checks.hpp"

namespace tokenring::experiments {

std::vector<StationCountStudyRow> run_station_count_study(
    const StationCountStudyConfig& config) {
  const obs::Span span("experiments/station_count_study");
  TR_EXPECTS(!config.station_counts.empty());

  const BitsPerSecond bw = mbps(config.bandwidth_mbps);
  std::vector<breakdown::SweepPoint> points;
  for (int n : config.station_counts) {
    TR_EXPECTS(n >= 2);
    PaperSetup setup = config.setup;
    setup.num_stations = n;
    add_protocol_points(points, setup, bw, config.sets_per_point, config.seed);
  }
  const auto est =
      estimate_points(points, exec::Executor(config.jobs), config.batch);

  std::vector<StationCountStudyRow> rows;
  for (std::size_t i = 0; i < config.station_counts.size(); ++i) {
    StationCountStudyRow row;
    row.stations = config.station_counts[i];
    row.ieee8025 = est[3 * i].mean();
    row.modified8025 = est[3 * i + 1].mean();
    row.fddi = est[3 * i + 2].mean();
    rows.push_back(row);
  }
  return rows;
}

}  // namespace tokenring::experiments
