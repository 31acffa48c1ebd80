// fig1_sweep: the paper's Figure 1 at its Section 6.2 conditions (100
// stations, ten bandwidths, all three protocols, 100 sets per point),
// through experiments::run_fig1 at jobs=1 and at jobs=nproc.
//
// Untraced: set-up is one warm-up sweep with a single set per point (it
// starts the pool and faults in the code and allocator paths); then full
// sweeps repeat at both job counts until the time is up. Traced: the same
// sweep is replayed point by point through experiments::estimate_point
// with traced kernel factories (kernel_probe.hpp), next to an untraced
// run_fig1 whose rows it must match bit for bit.

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "kernel_probe.hpp"
#include "report.hpp"
#include "tokenring/exec/seed_stream.hpp"
#include "tokenring/experiments/fig1.hpp"
#include "tokenring/obs/registry.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using tokenring::analysis::PdpVariant;
using tokenring::experiments::Fig1Config;
using tokenring::experiments::Fig1Row;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool rows_identical(const std::vector<Fig1Row>& a,
                    const std::vector<Fig1Row>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Fig1Row& x = a[i];
    const Fig1Row& y = b[i];
    if (!same_bits(x.bandwidth_mbps, y.bandwidth_mbps) ||
        !same_bits(x.ieee8025, y.ieee8025) ||
        !same_bits(x.ieee8025_ci, y.ieee8025_ci) ||
        !same_bits(x.modified8025, y.modified8025) ||
        !same_bits(x.modified8025_ci, y.modified8025_ci) ||
        !same_bits(x.fddi, y.fddi) || !same_bits(x.fddi_ci, y.fddi_ci)) {
      return false;
    }
  }
  return true;
}

std::uint64_t counter(const tokenring::obs::MetricsSnapshot& s,
                      const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

std::uint64_t counter_delta(const tokenring::obs::MetricsSnapshot& before,
                            const tokenring::obs::MetricsSnapshot& after,
                            const char* name) {
  return counter(after, name) - counter(before, name);
}

Fig1Config sweep_config(std::uint64_t seed, std::size_t jobs) {
  Fig1Config config;
  config.seed = seed;
  config.jobs = jobs;
  return config;
}

/// The paper's observations must hold on every sweep.
void gate_observations(const std::vector<Fig1Row>& rows, Result& result) {
  const auto obs = tokenring::experiments::analyze_fig1(rows);
  result.gate(obs.modified_dominates_standard,
              "fig1: modified 802.5 falls below standard 802.5");
  result.gate(obs.fddi_monotone_rising, "fig1: FDDI curve is not monotone");
  result.gate(obs.pdp_non_monotone,
              "fig1: PDP curve is monotone (the paper's anomaly is missing)");
  result.gate(obs.high_bandwidth_winner == "ttp",
              "fig1: TTP does not win at the top bandwidth");
}

double seconds_since(std::uint64_t start) {
  return static_cast<double>(now_ns() - start) * 1e-9;
}

struct TimedSweep {
  std::vector<Fig1Row> rows;
  double wall_s = 0.0;
};

TimedSweep timed_run_fig1(const Fig1Config& config) {
  const std::uint64_t t0 = now_ns();
  TimedSweep out{tokenring::experiments::run_fig1(config), 0.0};
  out.wall_s = seconds_since(t0);
  return out;
}

/// run_fig1 timed after a reference pass on its thread count.
TimedSweep host_timed_run_fig1(HostSpeed& host, const Fig1Config& config) {
  TimedSweep out;
  out.wall_s = host.time(config.jobs, [&] {
    out.rows = tokenring::experiments::run_fig1(config);
  });
  return out;
}

/// The sweep replayed through estimate_point with traced kernel
/// factories: the same calls, in the same order, run_fig1 makes.
struct TracedSweep {
  std::vector<Fig1Row> rows;
  double wall_s = 0.0;
  std::vector<SpanRecord> spans;
  KernelCounts pdp;
  KernelCounts ttp;
  tokenring::obs::MetricsSnapshot before;
  tokenring::obs::MetricsSnapshot after;
};

void traced_sweep(const Fig1Config& config, Trace& trace, TracedSweep& out) {
  using tokenring::mbps;
  out.before = tokenring::obs::Registry::global().snapshot();
  const std::uint64_t t0 = now_ns();
  const tokenring::exec::Executor executor(config.jobs);
  std::uint64_t point = 0;
  const auto estimate = [&](const char* span_name, auto make_inner,
                            KernelSpanNames names, KernelCounts& counts,
                            double bw_mbps) {
    const ScopedSpan span(&trace, span_name, 0, point++);
    const auto factory = traced_factory(make_inner(), trace, names, span.id(),
                                        counts);
    return tokenring::experiments::estimate_point(
        config.setup, factory, mbps(bw_mbps), config.sets_per_point,
        config.seed, executor, config.batch);
  };
  for (double bw_mbps : config.bandwidths_mbps) {
    const auto bw = mbps(bw_mbps);
    const auto std8025 = estimate(
        "experiments.pdp_point",
        [&] {
          return config.setup.pdp_batch_kernel_factory(
              PdpVariant::kStandard8025, bw);
        },
        kPdpKernelSpans, out.pdp, bw_mbps);
    const auto mod8025 = estimate(
        "experiments.pdp_point",
        [&] {
          return config.setup.pdp_batch_kernel_factory(
              PdpVariant::kModified8025, bw);
        },
        kPdpKernelSpans, out.pdp, bw_mbps);
    const auto fddi = estimate(
        "experiments.ttp_point",
        [&] { return config.setup.ttp_batch_kernel_factory(bw); },
        kTtpKernelSpans, out.ttp, bw_mbps);
    Fig1Row row;
    row.bandwidth_mbps = bw_mbps;
    row.ieee8025 = std8025.mean();
    row.ieee8025_ci = std8025.ci95();
    row.modified8025 = mod8025.mean();
    row.modified8025_ci = mod8025.ci95();
    row.fddi = fddi.mean();
    row.fddi_ci = fddi.ci95();
    out.rows.push_back(row);
  }
  out.wall_s = seconds_since(t0);
  out.after = tokenring::obs::Registry::global().snapshot();
  out.spans = trace.spans();
}

/// Busy share and mean per-point idle tail of a jobs > 1 traced sweep.
void exec_metrics(const TracedSweep& sweep, std::size_t jobs,
                  Sample& sample) {
  std::map<std::uint64_t, const SpanRecord*> points;
  for (const SpanRecord& s : sweep.spans) {
    if (s.parent == 0 && std::strncmp(s.name, "experiments.", 12) == 0) {
      points[s.id] = &s;
    }
  }
  // Per point: the last group end on each thread that ran a group.
  std::map<std::uint64_t, std::map<std::uint32_t, std::uint64_t>> last_end;
  double busy_ns = 0.0;
  for (const SpanRecord& s : sweep.spans) {
    if (std::strcmp(s.name, "breakdown.group") != 0) continue;
    busy_ns += static_cast<double>(s.end_ns - s.start_ns);
    auto& end = last_end[s.parent][s.thread];
    end = std::max(end, s.end_ns);
  }
  double point_ns = 0.0;
  double idle_tail_ns = 0.0;
  for (const auto& [id, p] : points) {
    const double duration = static_cast<double>(p->end_ns - p->start_ns);
    point_ns += duration;
    const auto& threads = last_end[id];
    for (const auto& [thread, end] : threads) {
      idle_tail_ns += static_cast<double>(p->end_ns - std::min(end, p->end_ns));
    }
    // Pool threads that ran no group idled for the whole point.
    const std::size_t idle_threads =
        jobs > threads.size() ? jobs - threads.size() : 0;
    idle_tail_ns += duration * static_cast<double>(idle_threads);
  }
  sample["exec.busy_share"] =
      busy_ns / (point_ns * static_cast<double>(jobs));
  sample["exec.barrier_wait_ms"] =
      idle_tail_ns * 1e-6 / static_cast<double>(points.size());
}

/// Side pass: re-draw the sweep's seed streams (every point draws trial i
/// from make_trial_rng(seed, i)) through MessageSetGenerator::generate.
double draw_pass_us(const Fig1Config& config, Result& result) {
  const tokenring::msg::MessageSetGenerator generator(
      config.setup.generator_config());
  const std::size_t draws =
      config.bandwidths_mbps.size() * 3 * config.sets_per_point;
  std::size_t streams = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t d = 0; d < draws; ++d) {
    auto rng = tokenring::exec::make_trial_rng(
        config.seed, d % config.sets_per_point);
    streams += generator.generate(rng).size();
  }
  const double us = static_cast<double>(now_ns() - t0) * 1e-3;
  result.gate(streams == draws * static_cast<std::size_t>(
                                     config.setup.num_stations),
              "fig1: a redrawn set has the wrong stream count");
  return us;
}

void traced_rep(const WorkloadArgs& args, bool write_trace, Result& result,
                Sample& sample) {
  const Fig1Config serial = sweep_config(args.seed, 1);
  const Fig1Config parallel = sweep_config(args.seed, args.nproc);
  const TimedSweep ref1 = timed_run_fig1(serial);
  const TimedSweep refn = timed_run_fig1(parallel);

  Trace trace1;
  TracedSweep t1;
  traced_sweep(serial, trace1, t1);
  Trace tracen;
  TracedSweep tn;
  traced_sweep(parallel, tracen, tn);
  result.attempted += 4;
  const bool same = rows_identical(ref1.rows, refn.rows) &&
                    rows_identical(ref1.rows, t1.rows) &&
                    rows_identical(ref1.rows, tn.rows);
  result.gate(same, "fig1: traced and untraced estimates differ");
  if (!same) ++result.failed;
  gate_observations(ref1.rows, result);
  if (write_trace && !args.trace_out.empty()) {
    result.gate(trace1.write_jsonl(args.trace_out),
                "fig1: cannot write " + args.trace_out);
  }

  const auto totals = totals_by_name(t1.spans);
  const auto total_us = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : static_cast<double>(it->second.total_ns) * 1e-3;
  };
  sample["analysis.pdp.build_us"] = total_us("analysis.pdp.build");
  sample["analysis.ttp.build_us"] = total_us("analysis.ttp.build");
  sample["analysis.pdp.evaluate_us"] = total_us("analysis.pdp.evaluate");
  sample["analysis.ttp.evaluate_us"] = total_us("analysis.ttp.evaluate");
  const auto calls = t1.pdp.evaluate_calls + t1.ttp.evaluate_calls;
  const auto lanes = t1.pdp.lanes_evaluated + t1.ttp.lanes_evaluated;
  const auto active = t1.pdp.active_lanes + t1.ttp.active_lanes;
  sample["analysis.evaluate_calls"] = static_cast<double>(calls);
  sample["analysis.lanes_evaluated"] = static_cast<double>(lanes);
  sample["analysis.lane_occupancy"] =
      lanes > 0 ? static_cast<double>(active) / static_cast<double>(lanes)
                : 0.0;
  const auto evals =
      counter_delta(t1.before, t1.after, "breakdown.predicate_evals");
  const auto trials = counter_delta(t1.before, t1.after, "breakdown.trials");
  sample["breakdown.predicate_evals"] = static_cast<double>(evals);
  sample["breakdown.trials"] = static_cast<double>(trials);
  sample["breakdown.probes_per_trial"] =
      trials > 0 ? static_cast<double>(evals) / static_cast<double>(trials)
                 : 0.0;
  const auto search = totals.find("breakdown.search");
  sample["breakdown.search_self_us"] =
      search == totals.end()
          ? 0.0
          : static_cast<double>(search->second.self_ns) * 1e-3;
  sample["experiments.pdp_point_s"] =
      total_us("experiments.pdp_point") * 1e-6;
  sample["experiments.ttp_point_s"] =
      total_us("experiments.ttp_point") * 1e-6;
  sample["exec.parallel_for_tasks"] = static_cast<double>(
      counter_delta(tn.before, tn.after, "exec.parallel_for_tasks"));
  exec_metrics(tn, args.nproc, sample);
  sample["msg.draw_us"] = draw_pass_us(serial, result);
  const double untraced = ref1.wall_s + refn.wall_s;
  sample["trace_overhead_share"] =
      (t1.wall_s + tn.wall_s - untraced) / untraced;
}

}  // namespace

Result run_fig1_sweep(const WorkloadArgs& args) {
  Result result;
  // Set-up: pool start plus a warm-up sweep with one shard (8 sets) per
  // point at jobs=nproc, which also keeps cold-start costs out of the
  // traced run's overhead share. With fewer sets the warm-up is mostly
  // thread wake-ups, whose latency on a shared host varies twofold.
  HostSpeed host;
  std::vector<double> setups;
  host.time(args.nproc, [&] {
    Fig1Config warm = sweep_config(args.seed, args.nproc);
    warm.sets_per_point = 8;
    for (int i = 0; i < 9; ++i) setups.push_back(timed_run_fig1(warm).wall_s);
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

  std::vector<Fig1Row> reference;
  double rss_mib = 0.0;
  const auto reps = repeat_for(args.seconds, [&](Sample& sample) {
    const TimedSweep serial =
        host_timed_run_fig1(host, sweep_config(args.seed, 1));
    const TimedSweep parallel =
        host_timed_run_fig1(host, sweep_config(args.seed, args.nproc));
    if (reference.empty()) {
      // Peak footprint of set-up plus one repetition: later repetitions
      // only churn pool threads and allocator arenas, which adds noise,
      // not information.
      rss_mib = peak_rss_mib();
      reference = serial.rows;
      gate_observations(reference, result);
    }
    result.attempted += 2;
    const bool same = rows_identical(reference, serial.rows) &&
                      rows_identical(reference, parallel.rows);
    result.gate(same, "fig1: jobs=1 and jobs=nproc estimates differ");
    if (!same) ++result.failed;
    sample["serial_wall_s"] = serial.wall_s;
    sample["parallel_wall_s"] = parallel.wall_s;
    return result.correct();
  });
  const Sample med = median_by_key(reps);
  result.set("serial_wall_s", host.rescale(med.at("serial_wall_s"), 1));
  result.set("parallel_wall_s",
             host.rescale(med.at("parallel_wall_s"), args.nproc));
  result.set("setup_s", host.rescale(median(setups), args.nproc));
  result.set("peak_rss_mib", rss_mib);
  result.notes.push_back("sweep repetitions: " + std::to_string(reps.size()) +
                         " at jobs=1 and jobs=" + std::to_string(args.nproc));
  result.notes.push_back(
      "raw medians [s]: serial " + std::to_string(med.at("serial_wall_s")) +
      ", parallel " + std::to_string(med.at("parallel_wall_s")) +
      ", setup " + std::to_string(median(setups)));
  result.notes.push_back(host.describe());
  return result;
}

}  // namespace perfbench
