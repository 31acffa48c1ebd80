#include "tokenring/experiments/fault_study.hpp"

#include "tokenring/obs/span.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "tokenring/breakdown/saturation.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/exec/executor.hpp"
#include "tokenring/exec/seed_stream.hpp"
#include "tokenring/sim/config.hpp"
#include "tokenring/sim/workload.hpp"

namespace tokenring::experiments {

namespace {

/// A base set scaled to the study load for each protocol (when its
/// schedulability boundary exists).
struct PreparedSet {
  bool pdp_found = false;
  bool ttp_found = false;
  msg::MessageSet pdp_set;
  msg::MessageSet ttp_set;
};

struct CellStats {
  double missed = 0.0;
  double released = 0.0;
  double attributed = 0.0;
  Seconds outage = 0.0;
  double injected = 0.0;

  void absorb(const CellStats& o) {
    missed += o.missed;
    released += o.released;
    attributed += o.attributed;
    outage += o.outage;
    injected += o.injected;
  }
};

struct TrialResult {
  CellStats pdp;
  CellStats ttp;
};

CellStats stats_of(const sim::SimMetrics& m) {
  CellStats s;
  s.missed = static_cast<double>(m.deadline_misses);
  s.released = static_cast<double>(m.messages_released);
  s.attributed = static_cast<double>(m.fault_attributed_misses());
  s.outage = m.total_outage();
  s.injected = static_cast<double>(m.faults_injected());
  return s;
}

/// Deterministic plan of `count` faults of one kind, uniform over the first
/// 90% of the run (a fault right at the horizon has no time to show its
/// consequences and only adds noise). Station crashes pick a uniform victim
/// and rejoin after the configured downtime.
fault::FaultPlan make_plan(fault::FaultKind kind, int count, Seconds horizon,
                           std::uint64_t trial_seed, int num_stations,
                           const FaultStudyConfig& config) {
  fault::FaultPlan plan;
  Rng rng = exec::make_trial_rng(trial_seed, 0xfa17);
  std::vector<Seconds> times;
  times.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    times.push_back(rng.uniform(0.0, 0.9 * horizon));
  }
  std::sort(times.begin(), times.end());
  const Seconds downtime = config.crash_downtime_fraction * horizon;
  for (Seconds t : times) {
    switch (kind) {
      case fault::FaultKind::kTokenLoss:
        plan.add_token_loss(t);
        break;
      case fault::FaultKind::kFrameCorruption:
        plan.add_frame_corruption(t);
        break;
      case fault::FaultKind::kNoiseBurst:
        plan.add_noise_burst(t, config.noise_duration);
        break;
      case fault::FaultKind::kDuplicateToken:
        plan.add_duplicate_token(t);
        break;
      case fault::FaultKind::kStationCrash:
      case fault::FaultKind::kStationRejoin: {
        const int victim = static_cast<int>(
            rng.uniform_int(0, static_cast<std::int64_t>(num_stations) - 1));
        plan.add_station_crash(t, victim, downtime);
        break;
      }
    }
  }
  return plan;
}

}  // namespace

std::vector<FaultStudyRow> run_fault_study(const FaultStudyConfig& config) {
  const obs::Span span("experiments/fault_study");
  TR_EXPECTS(!config.kinds.empty());
  TR_EXPECTS(!config.fault_counts.empty());
  TR_EXPECTS(config.sets_per_point >= 1);
  TR_EXPECTS(config.load_scale > 0.0 && config.load_scale < 1.0);
  TR_EXPECTS(config.noise_duration >= 0.0);
  TR_EXPECTS(config.crash_downtime_fraction > 0.0 &&
             config.crash_downtime_fraction < 1.0);

  const BitsPerSecond bw = mbps(config.bandwidth_mbps);
  const auto pdp_params =
      config.setup.pdp_params(analysis::PdpVariant::kModified8025);
  const auto ttp_params = config.setup.ttp_params();

  // The stochastic parts that share one engine stream (set generation and
  // boundary search) run sequentially up front; the expensive simulations
  // then fan out over independent trials, each with its own seed stream, so
  // results are bit-identical for any jobs value. Boundary searches run in
  // lockstep SoA batches; drawing every base first leaves the generator
  // stream unchanged because the searches consume no randomness.
  std::vector<PreparedSet> prepared(config.sets_per_point);
  {
    msg::MessageSetGenerator gen(config.setup.generator_config());
    Rng rng(config.seed);
    std::vector<msg::MessageSet> bases;
    bases.reserve(config.sets_per_point);
    for (std::size_t i = 0; i < config.sets_per_point; ++i) {
      bases.push_back(gen.generate(rng));
    }
    const auto pdp_sats = breakdown::find_saturation_chunked(
        bases,
        config.setup.pdp_batch_kernel_factory(
            analysis::PdpVariant::kModified8025, bw),
        bw, config.batch);
    const auto ttp_sats = breakdown::find_saturation_chunked(
        bases, config.setup.ttp_batch_kernel_factory(bw), bw, config.batch);
    for (std::size_t i = 0; i < bases.size(); ++i) {
      PreparedSet& p = prepared[i];
      if (pdp_sats[i].found) {
        p.pdp_found = true;
        p.pdp_set =
            bases[i].scaled(pdp_sats[i].critical_scale * config.load_scale);
      }
      if (ttp_sats[i].found) {
        p.ttp_found = true;
        p.ttp_set =
            bases[i].scaled(ttp_sats[i].critical_scale * config.load_scale);
      }
    }
  }

  const std::size_t counts = config.fault_counts.size();
  const std::size_t cells = config.kinds.size() * counts;
  const std::size_t trials = cells * config.sets_per_point;

  auto run_trial = [&](std::size_t t) -> TrialResult {
    const std::size_t cell = t / config.sets_per_point;
    const std::size_t set_idx = t % config.sets_per_point;
    const fault::FaultKind kind = config.kinds[cell / counts];
    const int count = config.fault_counts[cell % counts];
    const auto& p = prepared[set_idx];
    const std::uint64_t trial_seed = exec::derive_seed(config.seed, t);

    TrialResult out;
    if (p.pdp_found) {
      auto cfg = sim::make_sim_config(p.pdp_set, pdp_params, bw,
                                      config.horizon_periods);
      cfg.seed = config.seed + set_idx;
      cfg.faults = make_plan(kind, count, cfg.horizon, trial_seed,
                             pdp_params.ring.num_stations, config);
      out.pdp = stats_of(sim::run_simulation(p.pdp_set, cfg));
    }
    if (p.ttp_found) {
      auto cfg = sim::make_sim_config(p.ttp_set, ttp_params, bw,
                                      config.horizon_periods);
      cfg.seed = config.seed + set_idx;
      cfg.faults = make_plan(kind, count, cfg.horizon, trial_seed,
                             ttp_params.ring.num_stations, config);
      out.ttp = stats_of(sim::run_simulation(p.ttp_set, cfg));
    }
    return out;
  };

  std::vector<TrialResult> results(trials);
  exec::Executor executor(config.jobs);
  executor.parallel_for(trials, [&](std::size_t t) { results[t] = run_trial(t); });

  std::vector<FaultStudyRow> rows;
  rows.reserve(2 * cells);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    CellStats pdp, ttp;
    for (std::size_t i = 0; i < config.sets_per_point; ++i) {
      pdp.absorb(results[cell * config.sets_per_point + i].pdp);
      ttp.absorb(results[cell * config.sets_per_point + i].ttp);
    }
    const fault::FaultKind kind = config.kinds[cell / counts];
    const int count = config.fault_counts[cell % counts];
    const auto emit = [&](const char* protocol, const CellStats& s) {
      FaultStudyRow row;
      row.protocol = protocol;
      row.kind = kind;
      row.faults = count;
      row.miss_ratio = s.released > 0 ? s.missed / s.released : 0.0;
      row.attributed_ratio = s.missed > 0 ? s.attributed / s.missed : 0.0;
      row.outage = s.injected > 0 ? s.outage / s.injected : 0.0;
      rows.push_back(row);
    };
    emit("modified8025", pdp);
    emit("fddi", ttp);
  }
  return rows;
}

}  // namespace tokenring::experiments
