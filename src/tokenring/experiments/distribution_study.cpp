#include "tokenring/experiments/distribution_study.hpp"

#include "tokenring/obs/span.hpp"

#include "tokenring/common/checks.hpp"

namespace tokenring::experiments {

const char* to_string(msg::PeriodDistribution dist) {
  switch (dist) {
    case msg::PeriodDistribution::kUniform:
      return "uniform";
    case msg::PeriodDistribution::kLogUniform:
      return "log-uniform";
    case msg::PeriodDistribution::kEqual:
      return "equal";
  }
  return "?";
}

std::vector<DistributionStudyRow> run_distribution_study(
    const DistributionStudyConfig& config) {
  const obs::Span span("experiments/distribution_study");
  TR_EXPECTS(!config.mean_periods_ms.empty());
  TR_EXPECTS(!config.period_ratios.empty());
  TR_EXPECTS(!config.distributions.empty());

  const BitsPerSecond bw = mbps(config.bandwidth_mbps);
  std::vector<breakdown::SweepPoint> points;
  std::vector<DistributionStudyRow> rows;
  for (auto dist : config.distributions) {
    for (double mean_ms : config.mean_periods_ms) {
      for (double ratio : config.period_ratios) {
        PaperSetup setup = config.setup;
        setup.mean_period = milliseconds(mean_ms);
        setup.period_ratio = ratio;
        setup.period_dist = dist;
        add_protocol_points(points, setup, bw, config.sets_per_point,
                            config.seed);
        DistributionStudyRow row;
        row.mean_period_ms = mean_ms;
        row.period_ratio = ratio;
        row.distribution = to_string(dist);
        rows.push_back(row);
      }
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
