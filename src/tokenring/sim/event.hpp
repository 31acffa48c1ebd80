// Typed simulation events.
//
// The event engine used to schedule `std::function<void()>` closures: every
// push heap-allocated a capture block and the scheduler knew nothing about
// what it was firing. Events are now a flat tagged struct: the scheduler
// stores them by value (no per-event allocation), validation errors can
// name the event kind, and the protocol simulators dispatch on the tag in
// one switch instead of re-capturing their state per event.

#pragma once

#include <cstdint>

#include "tokenring/common/units.hpp"

namespace tokenring::sim {

/// What an Event means to its handler. The k{Pdp,Ttp} kinds are dispatched
/// by the respective simulation's on_event; kUser is free for engine tests
/// and ad-hoc schedules.
enum class EventKind : std::uint8_t {
  /// Generic event; `index`/`value` carry whatever the test wants.
  kUser,
  /// Initial medium/token kickoff at t=0 (`station` = kickoff station).
  kKickoff,
  /// Apply fault plan entry `index` (both protocols).
  kFault,
  /// Ring recovery completed; re-issue the token / re-arbitrate
  /// (generation-guarded, both protocols).
  kRecovery,
  /// Corrupted frame's wasted slot elapsed; retransmit from where the
  /// medium/token stood (generation-guarded, both protocols).
  kCorruptionRetry,
  /// TTP token arrives at `station`: the token walk's staged next hop
  /// (generation-guarded).
  kTtpTokenHop,
  /// PDP synchronous release of stream `index` at `station`.
  kPdpArrival,
  /// PDP Poisson async frame arrival at `station`.
  kPdpAsyncArrival,
  /// PDP idle-token capture completes at `station` (generation-guarded).
  kPdpIdleCapture,
  /// PDP token walk reached winner `station`; `index` != 0 means the
  /// winner transmits an async frame (generation-guarded).
  kPdpWalkDone,
  /// PDP sync frame's last bit sent: `station`, stream slot `index`,
  /// `value` = chunk bits (generation-guarded).
  kPdpSyncFrameDone,
  /// PDP async frame's last bit sent: `station`, `value` = effective
  /// medium occupancy [s] (generation-guarded).
  kPdpAsyncFrameDone,
};

/// Display name for an event kind (used by SIM_CHECK messages).
const char* to_string(EventKind kind);

/// One scheduled event. Flat POD: the queue stores these by value, so an
/// event costs no allocation and carries no destructor. `at`/`seq` are
/// assigned by the queue at push (`at` also by stage_at); the remaining
/// fields are the payload the handler switches on (unused fields keep
/// their defaults).
struct Event {
  Seconds at = 0.0;       ///< absolute firing time, set at submission
  std::uint64_t seq = 0;  ///< FIFO tie-break within equal `at`, set by the queue
  EventKind kind = EventKind::kUser;
  std::int32_t station = -1;  ///< primary station operand
  std::int32_t index = -1;    ///< stream slot / fault-plan index
  std::uint64_t gen = 0;      ///< token generation the event belongs to
  double value = 0.0;         ///< kind-specific scalar (bits or seconds)
};

}  // namespace tokenring::sim
