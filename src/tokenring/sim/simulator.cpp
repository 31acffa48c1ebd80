#include "tokenring/sim/simulator.hpp"

#include <limits>
#include <sstream>

#include "tokenring/common/checks.hpp"

namespace tokenring::sim {

// Every entry point refuses only what is provably in the past; a NaN or
// infinite time falls through to the queue's key check, which names the
// event kind (a staged step meets it when it is pushed).
void Simulator::schedule_in(Seconds delay, Event ev) {
  TR_EXPECTS(!(delay < 0.0));
  flush_staged();
  queue_.push(now_ + delay, ev);
}

void Simulator::schedule_at(Seconds at, Event ev) {
  TR_EXPECTS_MSG(!(at < now_), "cannot schedule into the past");
  flush_staged();
  queue_.push(at, ev);
}

std::size_t Simulator::run_until(Seconds horizon) {
  const std::size_t start = executed_;
  // The horizon bounds take_inline only while this run is live, however
  // the run ends.
  horizon_ = horizon;
  struct EndOfRun {
    Seconds& horizon;
    ~EndOfRun() { horizon = -std::numeric_limits<Seconds>::infinity(); }
  } end_of_run{horizon_};
  Event popped;
  while (!stopped_) {
    const Event* next = &slots_[slot_];
    if (staged_ && fires_next(next->at)) {
      staged_ = false;
      slot_ ^= 1;
    } else {
      flush_staged();
      if (queue_.empty() || !(queue_.next_time() <= horizon)) break;
      if (max_events_ != 0 && executed_ >= max_events_) {
        std::ostringstream os;
        os << "simulation exceeded the max-event guard (" << max_events_
           << " events) at t=" << now_ << " s with " << queue_.size()
           << " events still queued; a model bug or fault scenario is "
              "scheduling an event storm";
        throw EventStormError(os.str());
      }
      popped = queue_.pop();
      next = &popped;
    }
    // Count before dispatch, so the guard admits exactly max_events_.
    now_ = next->at;
    ++executed_;
    TR_EXPECTS_MSG(handler_ != nullptr, "no event handler installed");
    handler_->on_event(*next);
  }
  if (!stopped_ && now_ < horizon) now_ = horizon;
  return executed_ - start;
}

}  // namespace tokenring::sim
