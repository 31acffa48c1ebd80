// Discrete-event simulation engine.
//
// A thin deterministic scheduler over two sources of work:
//  * the heap of typed events (see event_queue.hpp), delivered to the
//    installed EventHandler in exact (time, seq) order; and
//  * an optional FrontierSource — a lazily advanced "next predictable
//    action" time (the TTP token walk). The engine interleaves the frontier
//    with the queue by time; at equal times queued events fire first, so a
//    fault scheduled at the same instant as a token arrival destroys the
//    token before the visit runs.
//
// Time never goes backwards; scheduling in the past is a contract
// violation, and a NaN or infinite time is refused by the queue's key check.

#pragma once

#include <cstddef>
#include <stdexcept>

#include "tokenring/sim/event_queue.hpp"

namespace tokenring::sim {

/// Thrown by run_until when the max-event guard trips: some model bug (or
/// a pathological fault scenario) is scheduling an event storm and the run
/// would otherwise spin forever. The message carries the simulated time
/// and event count at abort for diagnosis.
class EventStormError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Receives queued events in (time, seq) order. now() equals the event's
/// firing time during on_event.
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  virtual void on_event(const Event& ev) = 0;
};

/// A lazily advanced work source the engine merges with the event queue.
/// frontier_time() is the absolute time of the next predictable action
/// (+infinity when idle); advance_frontier() performs it. The engine sets
/// now() to frontier_time() before each advance. One advance counts as one
/// executed event for the storm guard.
class FrontierSource {
 public:
  virtual ~FrontierSource() = default;
  virtual Seconds frontier_time() const = 0;
  virtual void advance_frontier() = 0;
};

/// The simulation clock + event loop.
class Simulator {
 public:
  /// Current simulation time [s].
  Seconds now() const { return now_; }

  /// Schedule `ev` to fire `delay` seconds from now (delay >= 0).
  void schedule_in(Seconds delay, Event ev);

  /// Schedule `ev` at absolute time `at` (at >= now()).
  void schedule_at(Seconds at, Event ev);

  /// Install the handler queued events are delivered to. Must be set
  /// before run_until executes any event.
  void set_handler(EventHandler* handler) { handler_ = handler; }

  /// Install (or clear, with nullptr) the frontier work source.
  void set_frontier(FrontierSource* frontier) { frontier_ = frontier; }

  /// Abort (with EventStormError) any run_until that executes more than
  /// `cap` events in total; 0 (the default) disables the guard.
  void set_max_events(std::size_t cap) { max_events_ = cap; }

  /// Run events (queued and frontier) until both sources are past
  /// `horizon`; work exactly at the horizon still fires. Returns the
  /// number of events executed. Throws EventStormError if the max-event
  /// guard is set and trips.
  std::size_t run_until(Seconds horizon);

  /// Total events executed so far.
  std::size_t events_executed() const { return executed_; }

 private:
  EventQueue queue_;
  EventHandler* handler_ = nullptr;
  FrontierSource* frontier_ = nullptr;
  Seconds now_ = 0.0;
  std::size_t executed_ = 0;
  std::size_t max_events_ = 0;
};

}  // namespace tokenring::sim
