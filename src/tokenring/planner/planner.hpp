// Online admission control for real-time token rings.
//
// This is the "network designer / runtime manager" face of the paper's
// schedulability criteria: an AdmissionController holds the currently
// guaranteed stream set for one ring and answers, in microseconds (see
// bench/micro_schedulability), whether one more synchronous stream can be
// admitted without endangering existing guarantees. Rejected streams leave
// the accepted set untouched.

#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/msg/message_set.hpp"

namespace tokenring::planner {

/// The three protocol implementations the paper compares.
enum class Protocol {
  kIeee8025,
  kModified8025,
  kFddi,
};

/// Display name, e.g. "FDDI timed token".
const char* to_string(Protocol protocol);

/// Name on the command line and the wire: "ieee8025", "modified8025" or
/// "fddi".
const char* protocol_name(Protocol protocol);

/// The three protocol names for usage and refusal messages.
inline constexpr const char* kProtocolNames = "ieee8025|modified8025|fddi";

/// The protocol `name` names (see protocol_name); nullopt for any other
/// text.
std::optional<Protocol> protocol_from_name(std::string_view name);

/// Static ring description for a controller. `ring`/`frame` defaults follow
/// the protocol family's standard constants when constructed via
/// `default_config`.
struct PlannerConfig {
  Protocol protocol = Protocol::kFddi;
  BitsPerSecond bandwidth = mbps(100);
  net::RingParams ring;
  net::FrameFormat frame;
  /// Asynchronous frame geometry (TTP overrun term only).
  net::FrameFormat async_frame;

  void validate() const;

  /// Theorem 4.1 parameters: ring, frame and the 802.5 variant of
  /// `protocol` (an 802.5 protocol).
  analysis::PdpParams pdp_params() const;
  /// Theorem 5.1 parameters: ring, frame and asynchronous frame.
  analysis::TtpParams ttp_params() const;
};

/// Standard-conformant config for a protocol at a bandwidth.
PlannerConfig default_config(Protocol protocol, BitsPerSecond bandwidth,
                             int num_stations = 100);

/// Outcome of an admission attempt.
struct AdmissionDecision {
  bool admitted = false;
  /// Synchronous utilization of the accepted set after the decision.
  double utilization = 0.0;
  /// Human-readable grounds ("schedulable", "station occupied", ...).
  std::string reason;
};

/// Maintains the guaranteed stream set for one ring.
class AdmissionController {
 public:
  explicit AdmissionController(PlannerConfig config);

  const PlannerConfig& config() const { return config_; }
  const msg::MessageSet& admitted() const { return admitted_; }
  /// Synchronous utilization of the accepted set.
  double utilization() const;

  /// Admit `stream` iff the resulting set stays schedulable under the
  /// configured protocol. One stream per station (the paper's model).
  AdmissionDecision try_admit(const msg::SyncStream& stream);

  /// Withdraw the stream at `station`. Returns false if none is admitted
  /// there.
  bool remove(int station);

  /// Is an arbitrary set schedulable under this controller's protocol?
  bool feasible(const msg::MessageSet& set) const;

  /// Largest payload [bits] a new stream with the given period could carry
  /// at `station` while keeping the set schedulable; nullopt if the station
  /// is occupied or even a zero-payload stream does not fit. Binary search
  /// over the (monotone) criterion, `tolerance_bits` wide.
  std::optional<Bits> headroom_bits(Seconds period, int station,
                                    Bits tolerance_bits = 1.0) const;

 private:
  PlannerConfig config_;
  msg::MessageSet admitted_;
};

}  // namespace tokenring::planner
