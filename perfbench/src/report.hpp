// Workload results, correctness gates and provenance.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// What one workload invocation reports: metric values by name (units
/// come from BENCHMARK.json, see run.py). A failed gate clears every
/// number: a run that computed the wrong answer has no timing worth
/// keeping.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> gate_failures;
  std::vector<std::string> notes;  // sample counts and other context

  bool correct() const { return gate_failures.empty(); }

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Record a correctness gate; a false `ok` fails the run.
  void gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
};

/// Settings every workload takes from the command line.
struct WorkloadArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // JSON-lines span dump (traced runs only)
  std::size_t nproc = 1;  // hardware threads; the parallel job count
};

Result run_fig1_sweep(const WorkloadArgs& args);
Result run_serve_mix(const WorkloadArgs& args);
Result run_sim_validation(const WorkloadArgs& args);

/// Repeat `rep` until `seconds` have elapsed (at least once) and return
/// each repetition's sample. `rep` returns false to stop early (a failed
/// gate); its sample is still kept.
std::vector<Sample> repeat_for(double seconds,
                               const std::function<bool(Sample&)>& rep);

/// Peak resident set size of this process [MiB] (VmHWM).
double peak_rss_mib();

/// One-line JSON provenance record: build type, compiler, flags, CPU
/// model and hardware thread count.
std::string provenance_json(std::size_t nproc);

/// The result as one JSON line: correct, attempted, failed, metrics,
/// gate_failures and notes.
void print_result(std::ostream& os, const Result& result);

}  // namespace perfbench
