#include "tokenring/planner/planner.hpp"

#include <algorithm>

#include "tokenring/common/checks.hpp"
#include "tokenring/net/standards.hpp"

namespace tokenring::planner {

const char* to_string(Protocol protocol) {
  switch (protocol) {
    case Protocol::kIeee8025:
      return "IEEE 802.5";
    case Protocol::kModified8025:
      return "Modified IEEE 802.5";
    case Protocol::kFddi:
      return "FDDI timed token";
  }
  return "?";
}

const char* protocol_name(Protocol protocol) {
  constexpr const char* kNames[] = {"ieee8025", "modified8025", "fddi"};
  return kNames[static_cast<int>(protocol)];
}

std::optional<Protocol> protocol_from_name(std::string_view name) {
  for (Protocol p :
       {Protocol::kIeee8025, Protocol::kModified8025, Protocol::kFddi}) {
    if (name == protocol_name(p)) return p;
  }
  return std::nullopt;
}

void PlannerConfig::validate() const {
  TR_EXPECTS(bandwidth > 0.0);
  ring.validate();
  frame.validate();
  async_frame.validate();
}

analysis::PdpParams PlannerConfig::pdp_params() const {
  TR_EXPECTS(protocol != Protocol::kFddi);
  return {ring, frame,
          protocol == Protocol::kIeee8025 ? analysis::PdpVariant::kStandard8025
                                          : analysis::PdpVariant::kModified8025};
}

analysis::TtpParams PlannerConfig::ttp_params() const {
  return {ring, frame, async_frame};
}

PlannerConfig default_config(Protocol protocol, BitsPerSecond bandwidth,
                             int num_stations) {
  PlannerConfig cfg;
  cfg.protocol = protocol;
  cfg.bandwidth = bandwidth;
  cfg.ring = protocol == Protocol::kFddi ? net::fddi_ring(num_stations)
                                         : net::ieee8025_ring(num_stations);
  cfg.frame = net::paper_frame_format();
  cfg.async_frame = net::paper_frame_format();
  return cfg;
}

AdmissionController::AdmissionController(PlannerConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

double AdmissionController::utilization() const {
  return admitted_.utilization(config_.bandwidth);
}

bool AdmissionController::feasible(const msg::MessageSet& set) const {
  if (set.empty()) return true;
  return config_.protocol == Protocol::kFddi
             ? analysis::ttp_feasible(set, config_.ttp_params(),
                                      config_.bandwidth)
             : analysis::pdp_feasible(set, config_.pdp_params(),
                                      config_.bandwidth);
}

AdmissionDecision AdmissionController::try_admit(const msg::SyncStream& stream) {
  stream.validate();
  AdmissionDecision decision;

  if (stream.station >= config_.ring.num_stations) {
    decision.utilization = utilization();
    decision.reason = "station index outside the ring";
    return decision;
  }
  const bool occupied = std::any_of(
      admitted_.streams().begin(), admitted_.streams().end(),
      [&](const msg::SyncStream& s) { return s.station == stream.station; });
  if (occupied) {
    decision.utilization = utilization();
    decision.reason = "station already carries a synchronous stream";
    return decision;
  }

  msg::MessageSet candidate = admitted_;
  candidate.add(stream);
  if (!feasible(candidate)) {
    decision.utilization = utilization();
    decision.reason = "admitting the stream would violate the " +
                      std::string(to_string(config_.protocol)) +
                      " schedulability criterion";
    return decision;
  }

  admitted_ = std::move(candidate);
  decision.admitted = true;
  decision.utilization = utilization();
  decision.reason = "schedulable";
  return decision;
}

bool AdmissionController::remove(int station) {
  std::vector<msg::SyncStream> remaining;
  bool removed = false;
  for (const auto& s : admitted_.streams()) {
    if (s.station == station && !removed) {
      removed = true;
      continue;
    }
    remaining.push_back(s);
  }
  if (removed) admitted_ = msg::MessageSet(std::move(remaining));
  return removed;
}

std::optional<Bits> AdmissionController::headroom_bits(
    Seconds period, int station, Bits tolerance_bits) const {
  TR_EXPECTS(period > 0.0);
  TR_EXPECTS(tolerance_bits > 0.0);
  if (station < 0 || station >= config_.ring.num_stations) return std::nullopt;
  const bool occupied = std::any_of(
      admitted_.streams().begin(), admitted_.streams().end(),
      [&](const msg::SyncStream& s) { return s.station == station; });
  if (occupied) return std::nullopt;

  const auto fits = [&](Bits payload) {
    msg::MessageSet candidate = admitted_;
    candidate.add(msg::SyncStream{period, payload, station});
    return feasible(candidate);
  };
  if (!fits(0.0)) return std::nullopt;

  // Exponential bracket, then bisection (the criteria are monotone in the
  // new stream's payload).
  Bits lo = 0.0;
  Bits hi = 1'000.0;
  while (fits(hi)) {
    lo = hi;
    hi *= 2.0;
    if (hi > 1e15) return lo;  // practically unbounded
  }
  while (hi - lo > tolerance_bits) {
    const Bits mid = 0.5 * (lo + hi);
    (fits(mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace tokenring::planner
