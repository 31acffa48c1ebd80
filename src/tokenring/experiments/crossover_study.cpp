#include "tokenring/experiments/crossover_study.hpp"

#include "tokenring/obs/span.hpp"

#include <cmath>
#include <limits>

#include "tokenring/common/checks.hpp"

namespace tokenring::experiments {

namespace {

struct MeanPair {
  double ttp = 0.0;
  double pdp = 0.0;  // modified 802.5

  // Does FDDI meaningfully beat modified 802.5? A tie at ~zero (the
  // degenerate low-bandwidth regime where neither protocol can schedule
  // anything) does not count as a win.
  bool ttp_wins() const { return ttp >= pdp && ttp > 0.01; }
};

// FDDI and modified 802.5 at one bandwidth, in one dispatch.
MeanPair estimate_pair(const PaperSetup& setup, BitsPerSecond bw,
                       const CrossoverStudyConfig& config,
                       const exec::Executor& executor) {
  const breakdown::SweepPoint points[] = {
      sweep_point(setup, setup.ttp_batch_kernel_factory(bw), bw,
                  config.sets_per_point, config.seed),
      sweep_point(setup,
                  setup.pdp_batch_kernel_factory(
                      analysis::PdpVariant::kModified8025, bw),
                  bw, config.sets_per_point, config.seed)};
  const auto est = estimate_points(points, executor, config.batch);
  return {est[0].mean(), est[1].mean()};
}

}  // namespace

std::vector<CrossoverStudyRow> run_crossover_study(
    const CrossoverStudyConfig& config) {
  const obs::Span span("experiments/crossover_study");
  TR_EXPECTS(!config.station_counts.empty());
  TR_EXPECTS(!config.mean_periods_ms.empty());
  TR_EXPECTS(config.bw_low_mbps > 0.0);
  TR_EXPECTS(config.bw_high_mbps > config.bw_low_mbps);
  TR_EXPECTS(config.iterations >= 1);

  const exec::Executor executor(config.jobs);
  std::vector<CrossoverStudyRow> rows;
  for (int n : config.station_counts) {
    for (double mean_ms : config.mean_periods_ms) {
      PaperSetup setup = config.setup;
      setup.num_stations = n;
      setup.mean_period = milliseconds(mean_ms);

      CrossoverStudyRow row;
      row.stations = n;
      row.mean_period_ms = mean_ms;

      const auto wins = [&](double bw_mbps) {
        return estimate_pair(setup, mbps(bw_mbps), config, executor)
            .ttp_wins();
      };

      if (wins(config.bw_low_mbps)) {
        row.crossover_mbps = config.bw_low_mbps;
      } else if (!wins(config.bw_high_mbps)) {
        row.crossover_mbps = std::numeric_limits<double>::infinity();
      } else {
        // Bisect in log-bandwidth: TTP gains and PDP loses with bandwidth,
        // so the win predicate flips exactly once in the search interval.
        double lo = std::log(config.bw_low_mbps);
        double hi = std::log(config.bw_high_mbps);
        for (int it = 0; it < config.iterations; ++it) {
          const double mid = 0.5 * (lo + hi);
          (wins(std::exp(mid)) ? hi : lo) = mid;
        }
        row.crossover_mbps = std::exp(hi);
      }

      if (std::isfinite(row.crossover_mbps) && row.crossover_mbps > 0.0) {
        const MeanPair at = estimate_pair(setup, mbps(row.crossover_mbps),
                                          config, executor);
        row.ttp_at_crossover = at.ttp;
        row.pdp_at_crossover = at.pdp;
      }
      rows.push_back(row);
    }
  }
  return rows;
}

}  // namespace tokenring::experiments
