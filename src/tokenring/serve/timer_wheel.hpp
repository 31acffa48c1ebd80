// Hashed timing wheel for per-reactor connection deadlines.
//
// A reactor multiplexes thousands of connections on one epoll_wait, so
// their idle/write deadlines cannot be per-connection poll() budgets; they
// live in a wheel instead: arming, re-arming, and cancelling a timer are
// O(1) map/vector operations, and one sweep per tick fires whatever came
// due, independent of how many idle connections are parked.
//
// Entries carry their absolute deadline, so the wheel is lap-safe: a
// deadline several laps out sits in its slot and is simply skipped (and
// kept) by earlier sweeps that visit the slot. Cancellation is tombstone
// based — cancel() drops the id from the live set and the entry is
// discarded whenever its slot is next swept — so re-arming a connection's
// idle timer on every received byte never compacts a vector.
//
// Single-threaded by design: each reactor owns one wheel and touches it
// only from its event loop.

#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace tokenring::serve {

class TimerWheel {
 public:
  using Id = std::uint64_t;

  struct Expired {
    Id id = 0;
    std::uint64_t payload = 0;
  };

  /// `tick_ns` is the firing granularity (deadlines are exact in the
  /// entry, approximate only in *when* the sweep notices them);
  /// `slots` spreads entries so one sweep touches ~armed/slots entries.
  explicit TimerWheel(std::uint64_t tick_ns = 10'000'000,
                      std::size_t slots = 512);

  /// Arm a timer for absolute `deadline_ns`; `payload` is returned
  /// verbatim on expiry (the reactor packs a connection handle into it).
  Id arm(std::uint64_t deadline_ns, std::uint64_t payload);

  /// Forget a timer. Safe on already-fired or unknown ids.
  void cancel(Id id);

  /// Sweep every slot between the last sweep and `now_ns`, appending
  /// entries whose deadline has passed to `fired` (cancelled entries are
  /// discarded silently, future-lap entries stay armed).
  void expire(std::uint64_t now_ns, std::vector<Expired>& fired);

  /// Timers currently armed (cancel() tombstones count as disarmed).
  std::size_t armed() const { return live_.size(); }

  /// Suggested wait bound for the owning event loop: one tick while
  /// anything is armed, "forever" (-1 for epoll) otherwise.
  int poll_timeout_ms() const;

  std::uint64_t tick_ns() const { return tick_ns_; }

 private:
  struct Entry {
    Id id;
    std::uint64_t deadline_ns;
    std::uint64_t payload;
  };

  std::uint64_t tick_ns_;
  std::vector<std::vector<Entry>> slots_;
  /// Live timer ids -> deadline; the wheel entries are weak references.
  std::unordered_map<Id, std::uint64_t> live_;
  Id next_id_ = 1;
  std::uint64_t last_sweep_ns_ = 0;
};

}  // namespace tokenring::serve
