#include "tokenring/experiments/ttrt_study.hpp"

#include "tokenring/obs/span.hpp"

#include <algorithm>
#include <cmath>

#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/common/checks.hpp"

namespace tokenring::experiments {

TtrtStudyResult run_ttrt_study(const TtrtStudyConfig& config) {
  const obs::Span span("experiments/ttrt_study");
  TR_EXPECTS(!config.ttrt_fractions.empty());
  TR_EXPECTS(config.sets_per_point >= 1);

  const BitsPerSecond bw = mbps(config.bandwidth_mbps);
  const auto gen_config = config.setup.generator_config();
  const Seconds p_min = gen_config.min_period();
  const Seconds max_ttrt = p_min / 2.0;

  // One point per TTRT fraction, then the sqrt rule (per-set TTRT).
  std::vector<breakdown::SweepPoint> points;
  TtrtStudyResult result;
  for (double fraction : config.ttrt_fractions) {
    TR_EXPECTS(fraction > 0.0 && fraction <= 1.0);
    TtrtStudyRow row;
    row.fraction = fraction;
    row.ttrt = fraction * max_ttrt;
    points.push_back(sweep_point(
        config.setup, config.setup.ttp_batch_kernel_factory_at(bw, row.ttrt),
        bw, config.sets_per_point, config.seed));
    result.rows.push_back(row);
  }
  points.push_back(sweep_point(config.setup,
                               config.setup.ttp_batch_kernel_factory(bw), bw,
                               config.sets_per_point, config.seed));
  const auto est =
      estimate_points(points, exec::Executor(config.jobs), config.batch);
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    result.rows[i].breakdown_mean = est[i].mean();
    result.rows[i].breakdown_ci = est[i].ci95();
  }

  const Seconds theta = config.setup.ttp_params().ring.theta(bw);
  result.sqrt_rule_ttrt = std::min(std::sqrt(theta * p_min), max_ttrt);
  result.sqrt_rule_breakdown = est.back().mean();

  result.best_row = *std::max_element(
      result.rows.begin(), result.rows.end(),
      [](const TtrtStudyRow& a, const TtrtStudyRow& b) {
        return a.breakdown_mean < b.breakdown_mean;
      });
  return result;
}

}  // namespace tokenring::experiments
