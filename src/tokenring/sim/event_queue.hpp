// Time-ordered event queue for the discrete-event simulator.
//
// A binary min-heap of typed Event values keyed by (time, sequence): ties in
// time fire in insertion order, which keeps simulations deterministic for a
// fixed seed. (time, seq) is a strict total order, so the pop sequence is
// fixed by the pushes alone. The simulators keep few events pending (about
// one per stream, fault-plan entry and Poisson async source, plus the
// medium's next event), so a plain heap is all the structure the queue
// needs.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tokenring/common/checks.hpp"
#include "tokenring/sim/event.hpp"

namespace tokenring::sim {

/// Binary min-heap of (time, seq, Event) with exact FIFO tie-breaking.
class EventQueue {
 public:
  /// Enqueue `ev` to fire at absolute time `at`. SIM_CHECK: `at` must be
  /// finite and >= 0, else a PreconditionError naming the event kind is
  /// thrown (a NaN key would silently corrupt the heap order; an infinite
  /// or negative one is a model bug). Fills in ev.at and ev.seq.
  void push(Seconds at, Event ev);

  /// True iff no events remain.
  bool empty() const { return heap_.empty(); }
  /// Number of pending events.
  std::size_t size() const { return heap_.size(); }
  /// Firing time of the earliest event. Requires non-empty.
  Seconds next_time() const {
    TR_EXPECTS(!heap_.empty());
    return heap_.front().at;
  }

  /// Remove and return the earliest event. Requires non-empty.
  Event pop();

 private:
  std::vector<Event> heap_;  // heap order: the earliest (at, seq) in front
  std::uint64_t next_seq_ = 0;
};

}  // namespace tokenring::sim
