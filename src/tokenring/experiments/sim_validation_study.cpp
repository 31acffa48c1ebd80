#include "tokenring/experiments/sim_validation_study.hpp"

#include "tokenring/obs/span.hpp"

#include <algorithm>
#include <vector>

#include "tokenring/breakdown/saturation.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/sim/config.hpp"
#include "tokenring/sim/workload.hpp"

namespace tokenring::experiments {

namespace {

SimValidationRow validate_pdp(const SimValidationConfig& config,
                              analysis::PdpVariant variant, double bw_mbps) {
  const BitsPerSecond bw = mbps(bw_mbps);
  const auto params = config.setup.pdp_params(variant);
  msg::MessageSetGenerator gen(config.setup.generator_config());
  Rng rng(config.seed);

  SimValidationRow row;
  row.protocol = variant == analysis::PdpVariant::kStandard8025
                     ? "ieee8025"
                     : "modified8025";
  row.bandwidth_mbps = bw_mbps;

  // Draw first, saturate in batch: the boundary search consumes no
  // randomness, so the generator stream (and every downstream draw) is
  // unchanged from the per-set form.
  std::vector<msg::MessageSet> bases;
  bases.reserve(config.sets_per_point);
  for (std::size_t i = 0; i < config.sets_per_point; ++i) {
    bases.push_back(gen.generate(rng));
  }
  const auto sats = breakdown::find_saturation_chunked(
      bases, config.setup.pdp_batch_kernel_factory(variant, bw), bw,
      config.batch);

  for (std::size_t i = 0; i < config.sets_per_point; ++i) {
    const auto& base = bases[i];
    const auto& sat = sats[i];
    if (!sat.found) {
      ++row.degenerate_skipped;
      continue;
    }
    ++row.sets_tested;

    const auto inside =
        base.scaled(sat.critical_scale * config.inside_scale_pdp);
    auto cfg = sim::make_sim_config(inside, params, bw, config.horizon_periods);
    cfg.seed = config.seed + i;
    if (sim::run_simulation(inside, cfg).deadline_misses > 0) {
      ++row.false_negatives;
    }

    // An outside run counts only if no miss shows: stop at the first one.
    const auto outside = base.scaled(sat.critical_scale * config.outside_scale);
    cfg = sim::make_sim_config(outside, params, bw, config.horizon_periods);
    cfg.seed = config.seed + i;
    if (!sim::make_simulator(outside, cfg)->misses_a_deadline()) {
      ++row.outside_clean;
    }
  }
  return row;
}

SimValidationRow validate_ttp(const SimValidationConfig& config,
                              double bw_mbps) {
  const BitsPerSecond bw = mbps(bw_mbps);
  const auto params = config.setup.ttp_params();
  msg::MessageSetGenerator gen(config.setup.generator_config());
  Rng rng(config.seed);

  SimValidationRow row;
  row.protocol = "fddi";
  row.bandwidth_mbps = bw_mbps;

  std::vector<msg::MessageSet> bases;
  bases.reserve(config.sets_per_point);
  for (std::size_t i = 0; i < config.sets_per_point; ++i) {
    bases.push_back(gen.generate(rng));
  }
  const auto sats = breakdown::find_saturation_chunked(
      bases, config.setup.ttp_batch_kernel_factory(bw), bw, config.batch);

  for (std::size_t i = 0; i < config.sets_per_point; ++i) {
    const auto& base = bases[i];
    const auto& sat = sats[i];
    if (!sat.found) {
      ++row.degenerate_skipped;
      continue;
    }
    ++row.sets_tested;

    const auto inside =
        base.scaled(sat.critical_scale * config.inside_scale_ttp);
    auto cfg = sim::make_sim_config(inside, params, bw, config.horizon_periods);
    cfg.seed = config.seed + i;
    const auto inside_sim = sim::make_simulator(inside, cfg);
    const auto inside_metrics = inside_sim->run();
    if (inside_metrics.deadline_misses > 0) ++row.false_negatives;
    const double ratio = inside_sim->max_intervisit() / cfg.ttrt;
    row.max_intervisit_ratio = std::max(row.max_intervisit_ratio, ratio);
    if (ratio > 2.0 + 1e-9) ++row.johnson_violations;

    // An outside run counts only if no miss shows: stop at the first one.
    const auto outside = base.scaled(sat.critical_scale * config.outside_scale);
    cfg = sim::make_sim_config(outside, params, bw, config.horizon_periods);
    cfg.seed = config.seed + i;
    if (!sim::make_simulator(outside, cfg)->misses_a_deadline()) {
      ++row.outside_clean;
    }
  }
  return row;
}

}  // namespace

std::vector<SimValidationRow> run_sim_validation(
    const SimValidationConfig& config) {
  const obs::Span span("experiments/sim_validation");
  TR_EXPECTS(!config.bandwidths_mbps.empty());
  TR_EXPECTS(config.sets_per_point >= 1);
  TR_EXPECTS(config.inside_scale_pdp > 0.0 && config.inside_scale_pdp < 1.0);
  TR_EXPECTS(config.inside_scale_ttp > 0.0 && config.inside_scale_ttp <= 1.0);
  TR_EXPECTS(config.outside_scale > 1.0);

  std::vector<SimValidationRow> rows;
  for (double bw_mbps : config.bandwidths_mbps) {
    rows.push_back(
        validate_pdp(config, analysis::PdpVariant::kStandard8025, bw_mbps));
    rows.push_back(
        validate_pdp(config, analysis::PdpVariant::kModified8025, bw_mbps));
    rows.push_back(validate_ttp(config, bw_mbps));
  }
  return rows;
}

}  // namespace tokenring::experiments
