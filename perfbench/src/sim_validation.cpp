// sim_validation: the analysis-versus-simulation study through
// experiments::run_sim_validation, with enough sets per cell that one
// study takes a few seconds.
//
// Untraced: set-up is a warm-up study with one set per cell; then the
// study repeats, once serially and once with its bandwidth cells on an
// nproc-thread executor (each cell is an independent study over one
// bandwidth), until the time is up. Traced: the study loop is replayed
// from its public calls (batch-kernel boundary searches, then
// make_simulator + run per set) with spans around each, next to an
// untraced run whose rows it must equal.

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "report.hpp"
#include "tokenring/analysis/kernels.hpp"
#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/breakdown/saturation.hpp"
#include "tokenring/exec/executor.hpp"
#include "tokenring/experiments/sim_validation_study.hpp"
#include "tokenring/obs/registry.hpp"
#include "tokenring/sim/config.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace tr = tokenring;
using tr::experiments::SimValidationConfig;
using tr::experiments::SimValidationRow;

/// Sets per (protocol, bandwidth) cell: about 2.5 s per study on a
/// 2020s x86 core, against 0.7 s at the study's default of 10.
constexpr std::size_t kSetsPerCell = 40;

bool rows_identical(const std::vector<SimValidationRow>& a,
                    const std::vector<SimValidationRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const SimValidationRow& x = a[i];
    const SimValidationRow& y = b[i];
    if (x.protocol != y.protocol ||
        std::memcmp(&x.bandwidth_mbps, &y.bandwidth_mbps, sizeof(double)) ||
        x.sets_tested != y.sets_tested ||
        x.degenerate_skipped != y.degenerate_skipped ||
        x.false_negatives != y.false_negatives ||
        x.outside_clean != y.outside_clean ||
        x.johnson_violations != y.johnson_violations ||
        std::memcmp(&x.max_intervisit_ratio, &y.max_intervisit_ratio,
                    sizeof(double))) {
      return false;
    }
  }
  return true;
}

void gate_rows(const std::vector<SimValidationRow>& rows, Result& result) {
  for (const SimValidationRow& row : rows) {
    const std::string cell =
        row.protocol + "@" + std::to_string(row.bandwidth_mbps) + "Mbps";
    result.gate(row.false_negatives == 0,
                "sim_validation: false negatives at " + cell);
    result.gate(row.johnson_violations == 0,
                "sim_validation: Johnson bound violated at " + cell);
  }
}

SimValidationConfig study_config(std::uint64_t seed, std::size_t sets) {
  SimValidationConfig config;
  config.seed = seed;
  config.sets_per_point = sets;
  return config;
}

double seconds_since(std::uint64_t start) {
  return static_cast<double>(now_ns() - start) * 1e-9;
}

/// The study with its bandwidth cells spread over an nproc-thread pool.
std::vector<SimValidationRow> parallel_study(const SimValidationConfig& config,
                                             std::size_t jobs) {
  const tr::exec::Executor executor(jobs);
  std::vector<std::vector<SimValidationRow>> cells(
      config.bandwidths_mbps.size());
  executor.parallel_for(cells.size(), [&](std::size_t i) {
    SimValidationConfig cell = config;
    cell.bandwidths_mbps = {config.bandwidths_mbps[i]};
    cells[i] = tr::experiments::run_sim_validation(cell);
  });
  std::vector<SimValidationRow> rows;
  for (auto& cell : cells) rows.insert(rows.end(), cell.begin(), cell.end());
  return rows;
}

/// Per-layer tallies of the traced replay.
struct Replay {
  Trace trace;
  std::vector<SimValidationRow> rows;
  std::uint64_t pdp_events = 0;
  std::uint64_t ttp_events = 0;
  std::size_t max_queue_depth = 0;
};

std::uint64_t sim_events() {
  const auto snap = tr::obs::Registry::global().snapshot();
  const auto it = snap.counters.find("sim.events");
  return it == snap.counters.end() ? 0 : it->second;
}

/// One simulation run under a span, its events attributed to `events`.
tr::sim::SimMetrics traced_run(Replay& replay, const char* span_name,
                               std::uint64_t tag,
                               const tr::msg::MessageSet& set,
                               const tr::sim::SimConfig& cfg,
                               std::uint64_t& events,
                               tr::Seconds* max_intervisit = nullptr) {
  const std::uint64_t before = sim_events();
  tr::sim::SimMetrics metrics;
  {
    const ScopedSpan span(&replay.trace, span_name, 0, tag);
    const auto sim = tr::sim::make_simulator(set, cfg);
    metrics = sim->run();
    if (max_intervisit != nullptr) *max_intervisit = sim->max_intervisit();
  }
  events += sim_events() - before;
  replay.max_queue_depth = std::max(replay.max_queue_depth,
                                    metrics.max_queue_depth);
  return metrics;
}

/// Boundary searches for every base set, in the study's batch chunks.
template <typename Kernel, typename Params>
std::vector<tr::breakdown::SaturationResult> traced_saturation(
    Replay& replay, const std::vector<tr::msg::MessageSet>& bases,
    std::size_t batch, const Params& params, tr::BitsPerSecond bw) {
  const ScopedSpan span(&replay.trace, "analysis.saturation");
  std::vector<tr::breakdown::SaturationResult> sats;
  for (std::size_t lo = 0; lo < bases.size(); lo += batch) {
    const std::size_t count = std::min(batch, bases.size() - lo);
    const std::span<const tr::msg::MessageSet> chunk(bases.data() + lo, count);
    const Kernel kernel(chunk, params, bw);
    auto part = tr::breakdown::find_saturation_batch(
        chunk,
        [&kernel](std::span<const double> scales,
                  std::span<const std::uint8_t> active,
                  std::span<std::uint8_t> verdicts) {
          kernel.evaluate(scales, active, verdicts);
        },
        bw);
    sats.insert(sats.end(), part.begin(), part.end());
  }
  return sats;
}

std::vector<tr::msg::MessageSet> draw_bases(const SimValidationConfig& config) {
  const tr::msg::MessageSetGenerator gen(config.setup.generator_config());
  tr::Rng rng(config.seed);
  std::vector<tr::msg::MessageSet> bases;
  for (std::size_t i = 0; i < config.sets_per_point; ++i) {
    bases.push_back(gen.generate(rng));
  }
  return bases;
}

SimValidationRow replay_pdp(Replay& replay, const SimValidationConfig& config,
                            tr::analysis::PdpVariant variant, double bw_mbps) {
  const tr::BitsPerSecond bw = tr::mbps(bw_mbps);
  const auto params = config.setup.pdp_params(variant);
  SimValidationRow row;
  row.protocol = variant == tr::analysis::PdpVariant::kStandard8025
                     ? "ieee8025"
                     : "modified8025";
  row.bandwidth_mbps = bw_mbps;
  const auto bases = draw_bases(config);
  const auto sats = traced_saturation<tr::analysis::PdpBatchKernel>(
      replay, bases, config.batch, params, bw);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    if (!sats[i].found) {
      ++row.degenerate_skipped;
      continue;
    }
    ++row.sets_tested;
    tr::sim::SimConfig cfg;
    cfg.protocol = tr::sim::Protocol::kPdp;
    cfg.pdp = params;
    cfg.bandwidth = bw;
    cfg.worst_case_phasing = true;
    cfg.async_model = tr::sim::AsyncModel::kSaturating;
    cfg.seed = config.seed + i;
    const auto inside =
        bases[i].scaled(sats[i].critical_scale * config.inside_scale_pdp);
    cfg.horizon = config.horizon_periods * inside.max_period();
    if (traced_run(replay, "sim.pdp.run", i, inside, cfg, replay.pdp_events)
            .deadline_misses > 0) {
      ++row.false_negatives;
    }
    const auto outside =
        bases[i].scaled(sats[i].critical_scale * config.outside_scale);
    cfg.horizon = config.horizon_periods * outside.max_period();
    if (traced_run(replay, "sim.pdp.run", i, outside, cfg, replay.pdp_events)
            .deadline_misses == 0) {
      ++row.outside_clean;
    }
  }
  return row;
}

tr::sim::SimConfig ttp_config(const tr::msg::MessageSet& set,
                              const tr::analysis::TtpParams& params,
                              tr::BitsPerSecond bw,
                              const SimValidationConfig& config,
                              std::size_t i) {
  tr::sim::SimConfig cfg;
  cfg.protocol = tr::sim::Protocol::kTtp;
  cfg.ttp = params;
  cfg.bandwidth = bw;
  cfg.ttrt = tr::analysis::select_ttrt(set, params.ring, bw);
  cfg.worst_case_phasing = true;
  cfg.async_model = tr::sim::AsyncModel::kSaturating;
  cfg.seed = config.seed + i;
  cfg.horizon = config.horizon_periods * set.max_period();
  for (const auto& s : set.streams()) {
    cfg.sync_bandwidth_per_stream.push_back(
        tr::analysis::ttp_local_bandwidth(s, params, bw, cfg.ttrt)
            .value_or(0.0));
  }
  return cfg;
}

SimValidationRow replay_ttp(Replay& replay, const SimValidationConfig& config,
                            double bw_mbps) {
  const tr::BitsPerSecond bw = tr::mbps(bw_mbps);
  const auto params = config.setup.ttp_params();
  SimValidationRow row;
  row.protocol = "fddi";
  row.bandwidth_mbps = bw_mbps;
  const auto bases = draw_bases(config);
  const auto sats = traced_saturation<tr::analysis::TtpBatchKernel>(
      replay, bases, config.batch, params, bw);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    if (!sats[i].found) {
      ++row.degenerate_skipped;
      continue;
    }
    ++row.sets_tested;
    const auto inside =
        bases[i].scaled(sats[i].critical_scale * config.inside_scale_ttp);
    const auto cfg = ttp_config(inside, params, bw, config, i);
    tr::Seconds intervisit = 0.0;
    if (traced_run(replay, "sim.ttp.run", i, inside, cfg, replay.ttp_events,
                   &intervisit)
            .deadline_misses > 0) {
      ++row.false_negatives;
    }
    const double ratio = intervisit / cfg.ttrt;
    row.max_intervisit_ratio = std::max(row.max_intervisit_ratio, ratio);
    if (ratio > 2.0 + 1e-9) ++row.johnson_violations;
    const auto outside =
        bases[i].scaled(sats[i].critical_scale * config.outside_scale);
    if (traced_run(replay, "sim.ttp.run", i, outside,
                   ttp_config(outside, params, bw, config, i),
                   replay.ttp_events)
            .deadline_misses == 0) {
      ++row.outside_clean;
    }
  }
  return row;
}

void traced_rep(const WorkloadArgs& args, bool write_trace, Result& result,
                Sample& sample) {
  const SimValidationConfig config = study_config(args.seed, kSetsPerCell);
  const auto before = tr::obs::Registry::global().snapshot();
  const std::uint64_t t0 = now_ns();
  const auto rows = tr::experiments::run_sim_validation(config);
  const double untraced_s = seconds_since(t0);
  const auto after = tr::obs::Registry::global().snapshot();

  Replay replay;
  const std::uint64_t t1 = now_ns();
  for (double bw : config.bandwidths_mbps) {
    replay.rows.push_back(replay_pdp(
        replay, config, tr::analysis::PdpVariant::kStandard8025, bw));
    replay.rows.push_back(replay_pdp(
        replay, config, tr::analysis::PdpVariant::kModified8025, bw));
    replay.rows.push_back(replay_ttp(replay, config, bw));
  }
  const double traced_s = seconds_since(t1);
  result.attempted += 2;
  gate_rows(rows, result);
  const bool same = rows_identical(rows, replay.rows);
  result.gate(same, "sim_validation: traced rows differ from the study's");
  if (!same) ++result.failed;
  if (write_trace && !args.trace_out.empty()) {
    result.gate(replay.trace.write_jsonl(args.trace_out),
                "sim_validation: cannot write " + args.trace_out);
  }

  const auto delta = [&](const char* name) {
    const auto a = after.counters.find(name);
    const auto b = before.counters.find(name);
    return static_cast<double>(
        (a == after.counters.end() ? 0 : a->second) -
        (b == before.counters.end() ? 0 : b->second));
  };
  const auto totals = totals_by_name(replay.trace.spans());
  const auto total_s = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : static_cast<double>(it->second.total_ns) * 1e-9;
  };
  sample["analysis.saturation_us"] = total_s("analysis.saturation") * 1e6;
  sample["sim.pdp.run_us"] = total_s("sim.pdp.run") * 1e6;
  sample["sim.ttp.run_us"] = total_s("sim.ttp.run") * 1e6;
  sample["sim.pdp.events_per_s"] =
      static_cast<double>(replay.pdp_events) / total_s("sim.pdp.run");
  sample["sim.ttp.events_per_s"] =
      static_cast<double>(replay.ttp_events) / total_s("sim.ttp.run");
  sample["sim.events"] = delta("sim.events");
  sample["sim.runs"] = delta("sim.runs");
  sample["sim.token_rotations"] = delta("sim.token_rotations");
  sample["sim.max_queue_depth"] =
      static_cast<double>(replay.max_queue_depth);
  sample["trace_overhead_share"] = (traced_s - untraced_s) / untraced_s;
}

}  // namespace

Result run_sim_validation(const WorkloadArgs& args) {
  Result result;
  // Set-up: a warm-up study with four sets per cell (with fewer, its time
  // is too short to read steadily on a shared host).
  HostSpeed host;
  std::vector<double> setups;
  host.time(1, [&] {
    for (int i = 0; i < 5; ++i) {
      const std::uint64_t t0 = now_ns();
      tr::experiments::run_sim_validation(study_config(args.seed, 4));
      setups.push_back(seconds_since(t0));
    }
  });

  if (args.trace) {
    bool first = true;
    const auto reps = repeat_for(args.seconds, [&](Sample& sample) {
      traced_rep(args, first, result, sample);
      first = false;
      return result.correct();
    });
    result.metrics = median_by_key(reps);
    result.notes.push_back("traced repetitions: " +
                           std::to_string(reps.size()));
    return result;
  }

  const SimValidationConfig config = study_config(args.seed, kSetsPerCell);
  // Busy threads of the parallel study: one per bandwidth cell.
  const std::size_t cells =
      std::min(args.nproc, config.bandwidths_mbps.size());
  std::vector<SimValidationRow> reference;
  double rss_mib = 0.0;
  const auto reps = repeat_for(args.seconds, [&](Sample& sample) {
    std::vector<SimValidationRow> serial;
    std::vector<SimValidationRow> parallel;
    sample["serial_wall_s"] = host.time(1, [&] {
      serial = tr::experiments::run_sim_validation(config);
    });
    sample["parallel_wall_s"] = host.time(cells, [&] {
      parallel = parallel_study(config, args.nproc);
    });
    if (reference.empty()) {
      // Peak footprint of set-up plus one repetition: later repetitions
      // only churn pool threads and allocator arenas, which adds noise,
      // not information.
      rss_mib = peak_rss_mib();
      reference = serial;
      gate_rows(reference, result);
    }
    result.attempted += 2;
    const bool same = rows_identical(reference, serial) &&
                      rows_identical(reference, parallel);
    result.gate(same, "sim_validation: serial and parallel rows differ");
    if (!same) ++result.failed;
    return result.correct();
  });
  const Sample med = median_by_key(reps);
  result.set("serial_wall_s", host.rescale(med.at("serial_wall_s"), 1));
  result.set("parallel_wall_s",
             host.rescale(med.at("parallel_wall_s"), cells));
  result.set("setup_s", host.rescale(median(setups), 1));
  result.set("peak_rss_mib", rss_mib);
  result.notes.push_back("study repetitions: " + std::to_string(reps.size()) +
                         ", " + std::to_string(kSetsPerCell) +
                         " sets per cell");
  result.notes.push_back(
      "raw medians [s]: serial " + std::to_string(med.at("serial_wall_s")) +
      ", parallel " + std::to_string(med.at("parallel_wall_s")) +
      ", setup " + std::to_string(median(setups)));
  result.notes.push_back(host.describe());
  return result;
}

}  // namespace perfbench
