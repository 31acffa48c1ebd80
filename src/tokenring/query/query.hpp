// Query layer: the three questions both front ends ask of the paper's
// protocols — check (Theorem 4.1 / 5.1 verdict), faultcheck (fault margin
// per fault kind) and advise (protocol recommendation per bandwidth).
//
// `tokenring_tool` reads a query from flags and a scenario CSV, the serve
// daemon from a JSON request (serve/wire.hpp). Both enforce the range
// rules below, run the same function, and print its typed result with one
// of the two renderers: a daemon verdict equals the CLI verdict because
// there is one code path.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tokenring/exec/executor.hpp"
#include "tokenring/fault/margins.hpp"
#include "tokenring/obs/report.hpp"
#include "tokenring/planner/advisor.hpp"

namespace tokenring::query {

/// check / faultcheck: one explicit scenario against one protocol.
struct CheckQuery {
  planner::Protocol protocol = planner::Protocol::kFddi;
  double bandwidth_mbps = 100.0;
  msg::MessageSet set;
  double noise_ms = 1.0;  // faultcheck only: noise burst duration
};

/// advise: a traffic profile and candidate bandwidths (defaults = the
/// `tokenring_tool advise` flag defaults).
struct AdviseQuery {
  int stations = 100;
  double mean_period_ms = 100.0;
  double period_ratio = 10.0;
  std::vector<double> bandwidths_mbps = {4.0, 16.0, 100.0, 622.0};
  int sets = 50;
  std::uint64_t seed = 1;
};

// ---- range rules ------------------------------------------------------------
// Each returns nullptr for an admissible value, else the bound the value
// breaks ("must be > 0"). The daemon answers 400 naming the JSON field,
// tokenring_tool exits 1 naming the flag or the scenario file.

/// Bandwidth [Mbit/s], also each advise candidate: > 0. A negative value
/// breaks ">= 0", the daemon's wording since tokenring.serve/1.
const char* bandwidth_violation(double mbps);
/// advise mean period [ms]: > 0, worded as for bandwidth.
const char* mean_period_violation(double ms);
/// faultcheck noise burst [ms]: >= 0.
const char* noise_violation(double ms);
/// advise max/min period ratio: >= 1.
const char* period_ratio_violation(double ratio);
/// advise candidate bandwidths: at least one, each admissible.
const char* bandwidths_violation(const std::vector<double>& mbps);
/// check / faultcheck scenario: at least one stream.
const char* scenario_violation(const msg::MessageSet& set);
/// advise stations: an integer in [1, kMaxStations]. FDDI allows at most
/// 1000 physical connections on a ring, and 802.5 rings are smaller
/// still. The bound also caps an advise's memory: each Monte Carlo group
/// holds min(sets, batch) sets of `stations` streams.
inline constexpr int kMaxStations = 1000;

// ---- scenario parameters ----------------------------------------------------

/// Ring stations for a scenario: one per stream, at least two, and room
/// for the highest station index.
int ring_size_for(const msg::MessageSet& set);

/// The query protocol's standard ring sized by ring_size_for, with the
/// paper's frame format, at the query bandwidth: check, faultcheck and
/// tokenring_tool's plan and simulate take their parameter blocks from
/// here (PlannerConfig::pdp_params / ttp_params).
planner::PlannerConfig config_for(const CheckQuery& query);

// ---- questions and results --------------------------------------------------

struct CheckResult {
  planner::Protocol protocol{};
  bool schedulable = false;
  analysis::PdpVerdict pdp;  // 802.5 protocols (Theorem 4.1)
  analysis::TtpVerdict ttp;  // FDDI (Theorem 5.1)
};

struct FaultcheckResult {
  planner::Protocol protocol{};
  BitsPerSecond bandwidth = 0.0;
  double noise_ms = 0.0;
  bool schedulable = false;  // fault-free verdict
  /// One row per fault kind in kAllFaultKinds order, less kStationRejoin
  /// (its recovery cost is a station crash's).
  std::vector<std::pair<fault::FaultKind, fault::FaultMarginReport>> margins;
};

struct AdviseResult {
  /// (candidate bandwidth [Mbit/s], recommendation), in query order.
  std::vector<std::pair<double, planner::Recommendation>> rows;
};

CheckResult check(const CheckQuery& query);
FaultcheckResult faultcheck(const CheckQuery& query);
/// Every candidate is estimated from the same `sets` Monte Carlo sets; the
/// result is the same for every executor width and batch size.
AdviseResult advise(const AdviseQuery& query, const exec::Executor& executor,
                    std::size_t batch = 64);

// ---- renderers --------------------------------------------------------------

/// The daemon's "result" object, written by the strict JSON writer (a
/// non-finite number throws PreconditionError).
std::string to_json(const CheckResult& result);
std::string to_json(const FaultcheckResult& result);
std::string to_json(const AdviseResult& result);

/// tokenring_tool's output: notes in table mode, result tables recorded in
/// the manifest and printed by print_table (check's verdict table prints
/// in csv mode only).
void render_table(const CheckResult& result, obs::RunReport& report);
void render_table(const FaultcheckResult& result, obs::RunReport& report);
void render_table(const AdviseResult& result, obs::RunReport& report);

/// Record `table` as `name`; print it aligned in table mode (no trailing
/// CSV block), as CSV in csv mode.
void print_table(obs::RunReport& report, const std::string& name,
                 const Table& table);

}  // namespace tokenring::query
