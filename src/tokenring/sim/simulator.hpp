// Discrete-event simulation engine.
//
// A thin deterministic scheduler over three sources of work:
//  * the heap of typed events (see event_queue.hpp), delivered to the
//    installed EventHandler in exact (time, seq) order;
//  * an optional FrontierSource — a lazily advanced "next predictable
//    action" time (the TTP token walk). The engine interleaves the frontier
//    with the queue by time; at equal times queued events fire first, so a
//    fault scheduled at the same instant as a token arrival destroys the
//    token before the visit runs; and
//  * train steps: a handler that knows its next step (the PDP medium's
//    next walk or frame) runs it inline through try_advance(at), which
//    allows it only where a queued event at `at` would have fired next.
//
// Every executed event, train steps included, counts toward the storm
// guard, counted before it is dispatched. stop() ends a run early.
//
// Time never goes backwards; scheduling in the past is a contract
// violation, and a NaN or infinite time is refused by the queue's key check.

#pragma once

#include <cstddef>
#include <limits>
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

  /// Run events (queued, frontier and train steps) until both sources are
  /// past `horizon` or the run is stopped; work exactly at the horizon
  /// still fires. Returns the number of events executed. Throws
  /// EventStormError if the max-event guard is set and trips. now() ends
  /// at `horizon`, or at the last executed event's time after stop().
  std::size_t run_until(Seconds horizon);

  /// Train step: move now() to `at` and count one executed event, with
  /// nothing queued. Allowed only while run_until runs, and only if `at`
  /// lies in [now(), horizon] strictly before the queue head and the
  /// frontier, the run is not stopped and the storm guard has room; then
  /// the step fires exactly where a queued event at `at` would have.
  /// Otherwise returns false and changes nothing: the caller schedules the
  /// step with schedule_at(at).
  bool try_advance(Seconds at) {
    if (stopped_ || !(at >= now_ && at <= horizon_)) return false;
    if (!queue_.empty() && !(at < queue_.next_time())) return false;
    if (frontier_ != nullptr && !(at < frontier_->frontier_time())) {
      return false;
    }
    if (max_events_ != 0 && executed_ >= max_events_) return false;
    now_ = at;
    ++executed_;
    return true;
  }

  /// End the run: run_until returns before executing another event and
  /// try_advance refuses. Pending events stay queued; a stopped simulator
  /// stays stopped.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  /// Total events executed so far.
  std::size_t events_executed() const { return executed_; }

 private:
  EventQueue queue_;
  EventHandler* handler_ = nullptr;
  FrontierSource* frontier_ = nullptr;
  Seconds now_ = 0.0;
  /// Horizon of the run_until in progress; -inf between runs.
  Seconds horizon_ = -std::numeric_limits<Seconds>::infinity();
  std::size_t executed_ = 0;
  std::size_t max_events_ = 0;
  bool stopped_ = false;
};

}  // namespace tokenring::sim
