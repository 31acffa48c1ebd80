#include "tokenring/query/query.hpp"

#include <algorithm>
#include <iostream>
#include <sstream>

#include "tokenring/obs/json.hpp"

namespace tokenring::query {

namespace {

const char* positive_violation(double v) {
  if (!(v >= 0.0)) return "must be >= 0";
  return v > 0.0 ? nullptr : "must be > 0";
}

const char* verdict(bool schedulable) {
  return schedulable ? "SCHEDULABLE" : "NOT SCHEDULABLE";
}

}  // namespace

const char* bandwidth_violation(double mbps) {
  return positive_violation(mbps);
}

const char* mean_period_violation(double ms) {
  return positive_violation(ms);
}

const char* noise_violation(double ms) {
  return ms >= 0.0 ? nullptr : "must be >= 0";
}

const char* period_ratio_violation(double ratio) {
  return ratio >= 1.0 ? nullptr : "must be >= 1";
}

const char* bandwidths_violation(const std::vector<double>& mbps) {
  if (mbps.empty()) return "must list at least one bandwidth";
  for (double bw : mbps) {
    if (bandwidth_violation(bw) != nullptr) return "entries must be > 0";
  }
  return nullptr;
}

const char* scenario_violation(const msg::MessageSet& set) {
  return set.empty() ? "must hold at least one stream" : nullptr;
}

int ring_size_for(const msg::MessageSet& set) {
  int n = std::max<int>(2, static_cast<int>(set.size()));
  for (const auto& s : set.streams()) n = std::max(n, s.station + 1);
  return n;
}

planner::PlannerConfig config_for(const CheckQuery& query) {
  return planner::default_config(query.protocol, mbps(query.bandwidth_mbps),
                                 ring_size_for(query.set));
}

CheckResult check(const CheckQuery& query) {
  const planner::PlannerConfig config = config_for(query);
  CheckResult r;
  r.protocol = query.protocol;
  if (query.protocol == planner::Protocol::kFddi) {
    r.ttp = analysis::ttp_schedulable(query.set, config.ttp_params(),
                                      config.bandwidth);
    r.schedulable = r.ttp.schedulable;
  } else {
    r.pdp = analysis::pdp_schedulable(query.set, config.pdp_params(),
                                      config.bandwidth);
    r.schedulable = r.pdp.schedulable;
  }
  return r;
}

FaultcheckResult faultcheck(const CheckQuery& query) {
  const planner::PlannerConfig config = config_for(query);
  FaultcheckResult r;
  r.protocol = query.protocol;
  r.bandwidth = config.bandwidth;
  r.noise_ms = query.noise_ms;
  for (fault::FaultKind kind : fault::kAllFaultKinds) {
    if (kind == fault::FaultKind::kStationRejoin) continue;  // = crash cost
    const fault::FaultBudget budget{kind, milliseconds(query.noise_ms)};
    r.margins.emplace_back(
        kind, query.protocol == planner::Protocol::kFddi
                  ? fault::ttp_fault_margin(query.set, config.ttp_params(),
                                            config.bandwidth, 0.0, budget)
                  : fault::pdp_fault_margin(query.set, config.pdp_params(),
                                            config.bandwidth, budget));
    r.schedulable = r.margins.back().second.fault_free_schedulable;
  }
  return r;
}

AdviseResult advise(const AdviseQuery& query, const exec::Executor& executor,
                    std::size_t batch) {
  planner::TrafficProfile profile;
  profile.num_stations = query.stations;
  profile.mean_period = milliseconds(query.mean_period_ms);
  profile.period_ratio = query.period_ratio;
  std::vector<BitsPerSecond> bandwidths;
  for (double bw : query.bandwidths_mbps) bandwidths.push_back(mbps(bw));
  const auto recs = planner::recommend_protocol(
      profile, bandwidths, static_cast<std::size_t>(query.sets), query.seed,
      executor, batch);
  AdviseResult r;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    r.rows.emplace_back(query.bandwidths_mbps[i], recs[i]);
  }
  return r;
}

// ---- JSON -------------------------------------------------------------------

std::string to_json(const CheckResult& r) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("protocol").value_string(planner::protocol_name(r.protocol));
  w.key("schedulable").value_bool(r.schedulable);
  if (r.protocol == planner::Protocol::kFddi) {
    w.key("ttrt_ms").value_number(to_milliseconds(r.ttp.ttrt));
    w.key("allocated_ms").value_number(to_milliseconds(r.ttp.allocated));
    w.key("available_ms").value_number(to_milliseconds(r.ttp.available));
  } else {
    w.key("blocking_us").value_number(to_microseconds(r.pdp.blocking));
    w.key("misses").begin_array();
    for (const auto& s : r.pdp.reports) {
      if (s.schedulable) continue;
      w.begin_object();
      w.key("station").value_int(s.stream.station);
      w.key("augmented_ms").value_number(to_milliseconds(s.augmented_length));
      w.key("period_ms").value_number(to_milliseconds(s.stream.period));
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  return os.str();
}

std::string to_json(const FaultcheckResult& r) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("protocol").value_string(planner::protocol_name(r.protocol));
  w.key("noise_ms").value_number(r.noise_ms);
  w.key("schedulable").value_bool(r.schedulable);
  w.key("margins").begin_array();
  for (const auto& [kind, report] : r.margins) {
    w.begin_object();
    w.key("fault_kind").value_string(fault::to_string(kind));
    w.key("recovery_us")
        .value_number(to_microseconds(report.recovery_per_fault));
    if (report.margin < 0) {
      w.key("margin").value_null();
    } else {
      w.key("margin").value_int(report.margin);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

std::string to_json(const AdviseResult& r) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("recommendations").begin_array();
  for (const auto& [bw, rec] : r.rows) {
    w.begin_object();
    w.key("bandwidth_mbps").value_number(bw);
    w.key("ieee8025").value_number(rec.ieee8025);
    w.key("modified8025").value_number(rec.modified8025);
    w.key("fddi").value_number(rec.fddi);
    w.key("resil_8025").value_number(rec.modified8025_resilience);
    w.key("resil_fddi").value_number(rec.fddi_resilience);
    w.key("recommend").value_string(planner::to_string(rec.best));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

// ---- tables -----------------------------------------------------------------

void render_table(const CheckResult& r, obs::RunReport& report) {
  const char* name = planner::protocol_name(r.protocol);
  if (r.protocol == planner::Protocol::kFddi) {
    report.note("%s: %s (TTRT %.3f ms, allocated %.3f / available %.3f ms)\n",
                name, verdict(r.schedulable), to_milliseconds(r.ttp.ttrt),
                to_milliseconds(r.ttp.allocated),
                to_milliseconds(r.ttp.available));
  } else {
    report.note("%s: %s (blocking %.1f us)\n", name, verdict(r.schedulable),
                to_microseconds(r.pdp.blocking));
    for (const auto& s : r.pdp.reports) {
      if (s.schedulable) continue;
      report.note("  station %d misses: C'=%.3f ms in P=%.1f ms\n",
                  s.stream.station, to_milliseconds(s.augmented_length),
                  to_milliseconds(s.stream.period));
    }
  }
  Table table({"protocol", "schedulable"});
  table.add_row({name, r.schedulable ? "yes" : "no"});
  report.record_table("verdict", table);
  if (report.format() == obs::OutputFormat::kCsv) table.print_csv(std::cout);
}

void render_table(const FaultcheckResult& r, obs::RunReport& report) {
  report.note("%s at %.0f Mbps: %s fault-free\n",
              planner::protocol_name(r.protocol), to_mbps(r.bandwidth),
              verdict(r.schedulable));
  Table table({"fault_kind", "recovery_us", "margin"});
  for (const auto& [kind, fmr] : r.margins) {
    table.add_row({fault::to_string(kind),
                   fmt(to_microseconds(fmr.recovery_per_fault), 1),
                   fmr.margin < 0 ? std::string("-")
                                  : fmt(static_cast<long long>(fmr.margin))});
  }
  print_table(report, "fault_margins", table);
  report.note(
      "(margin = max faults of that kind per period the fault-aware\n"
      " criterion still guarantees; '-' = infeasible even fault-free)\n");
}

void render_table(const AdviseResult& r, obs::RunReport& report) {
  Table table({"BW_Mbps", "ieee8025", "modified8025", "fddi", "resil_8025",
               "resil_fddi", "recommend"});
  for (const auto& [bw, rec] : r.rows) {
    table.add_row({fmt(bw, 0), fmt(rec.ieee8025, 3), fmt(rec.modified8025, 3),
                   fmt(rec.fddi, 3), fmt(rec.modified8025_resilience, 1),
                   fmt(rec.fddi_resilience, 1), planner::to_string(rec.best)});
  }
  print_table(report, "recommendations", table);
  report.note(
      "(resil_* = mean token losses per period absorbed at 70%% of each\n"
      " sampled set's schedulability boundary)\n");
}

void print_table(obs::RunReport& report, const std::string& name,
                 const Table& table) {
  report.record_table(name, table);
  if (report.verbose()) {
    table.print(std::cout);
  } else if (report.format() == obs::OutputFormat::kCsv) {
    table.print_csv(std::cout);
  }
}

}  // namespace tokenring::query
