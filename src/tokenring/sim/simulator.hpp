// Discrete-event simulation engine.
//
// A thin deterministic scheduler: typed events wait in a heap (see
// event_queue.hpp) and reach the installed EventHandler in exact
// (time, seq) order. A handler that knows its own next step (the TTP
// token's next hop, the PDP medium's next walk or frame) stages it with
// stage_at() instead of pushing it. When the handler returns, run_until
// runs the staged step inline if it would fire next: strictly before the
// queue head, within the horizon, with the run not stopped and the storm
// guard not full; otherwise it pushes the step. Any schedule_at/
// schedule_in, or a second stage, made while a step is staged pushes that
// step first. So a staged step fires exactly where the same event pushed
// at stage time would have: the event order, the event count and the
// guard message are those of the plain queue, and a tie goes to the older
// queued event (a fault landing on a token arrival destroys the token
// first).
//
// take_inline() applies the same rule, through the same predicate, to a
// step the handler is about to stage as its last act: if the step would
// fire next, the clock moves to it and the handler runs it in place, with
// nothing staged and no dispatch. A handler whose steps form a chain
// (frames and walks, token visits) loops over them this way and stages
// the first one the rule refuses. The chain is a push-free tail of the
// staged path, so the order and the count stay those of the plain queue.
//
// Every executed event, inline and in-place steps included, counts toward
// the storm guard, counted before it runs. stop() ends a run early.
//
// Time never goes backwards; scheduling in the past is a contract
// violation, and a NaN or infinite time is refused by the queue's key check.

#pragma once

#include <cstddef>
#include <limits>
#include <stdexcept>

#include "tokenring/common/checks.hpp"
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

/// Receives events in (time, seq) order, staged steps included. now()
/// equals the event's firing time (ev.at) during on_event. A staged step
/// that runs inline never enters the queue, so it takes no seq; a step
/// taken in place (Simulator::take_inline) is never delivered at all.
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  virtual void on_event(const Event& ev) = 0;
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

  /// Stage `ev` as the handler's next step at absolute time `at`
  /// (at >= now()); see the file comment for when it runs inline.
  void stage_at(Seconds at, const Event& ev) {
    TR_EXPECTS_MSG(!(at < now_), "cannot schedule into the past");
    flush_staged();
    Event& slot = slots_[slot_];
    slot = ev;
    slot.at = at;
    staged_ = true;
  }

  /// Run-in-place rule for a step the handler is about to stage as its
  /// last act, at absolute time `at` (at >= now()). If nothing is staged
  /// and a step staged now would fire next (run_until's rule: the run is
  /// live and not stopped, `at` is within the horizon and strictly before
  /// the queue head, and the storm guard has room), moves now() to `at`,
  /// counts one executed event and returns true: the handler then runs
  /// the step itself. Otherwise returns false and changes nothing; the
  /// handler stages the step as usual. A NaN `at` is refused here and
  /// meets the queue's key check when the staged step is pushed.
  bool take_inline(Seconds at) {
    TR_EXPECTS_MSG(!(at < now_), "cannot schedule into the past");
    if (staged_ || !fires_next(at)) return false;
    now_ = at;
    ++executed_;
    return true;
  }

  /// Install the handler events are delivered to. Must be set before
  /// run_until executes any event.
  void set_handler(EventHandler* handler) { handler_ = handler; }

  /// Abort (with EventStormError) any run_until that executes more than
  /// `cap` events in total; 0 (the default) disables the guard.
  void set_max_events(std::size_t cap) { max_events_ = cap; }

  /// Run events (queued and staged) until the next one is past `horizon`
  /// or the run is stopped; work exactly at the horizon still fires.
  /// Returns the number of events executed. Throws EventStormError if the
  /// max-event guard is set and trips. now() ends at `horizon`, or at the
  /// last executed event's time after stop(). A staged step past the
  /// horizon is queued, so it survives to the next run_until.
  std::size_t run_until(Seconds horizon);

  /// End the run: run_until returns before executing another event, even
  /// a staged one. Pending events, the staged step included, stay
  /// pending; a stopped simulator stays stopped.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  /// Total events executed so far.
  std::size_t events_executed() const { return executed_; }

 private:
  /// Whether a step submitted now at `at`, after everything queued, fires
  /// next: the one rule behind run_until's staged step and take_inline.
  /// Everything queued was pushed before such a step, so it fires next
  /// only strictly before the queue head.
  bool fires_next(Seconds at) const {
    return !stopped_ && at <= horizon_ &&
           (queue_.empty() || at < queue_.next_time()) &&
           (max_events_ == 0 || executed_ < max_events_);
  }

  /// Push the staged step, if any, into the queue.
  void flush_staged() {
    if (!staged_) return;
    staged_ = false;
    queue_.push(slots_[slot_].at, slots_[slot_]);
  }

  EventQueue queue_;
  EventHandler* handler_ = nullptr;
  /// The staged step lives in slots_[slot_]. An inline step is dispatched
  /// in place from its slot, so a stage made while it runs writes the
  /// other slot.
  Event slots_[2];
  int slot_ = 0;
  bool staged_ = false;
  Seconds now_ = 0.0;
  /// The horizon of the run_until in progress; -inf outside one, so no
  /// step fires next between runs.
  Seconds horizon_ = -std::numeric_limits<Seconds>::infinity();
  std::size_t executed_ = 0;
  std::size_t max_events_ = 0;
  bool stopped_ = false;
};

}  // namespace tokenring::sim
