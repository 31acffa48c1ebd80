#include "tokenring/sim/simulator.hpp"

#include <limits>
#include <sstream>

#include "tokenring/common/checks.hpp"

namespace tokenring::sim {

// Both entry points refuse only what is provably in the past; a NaN or
// infinite time falls through to the queue's key check, which names the
// event kind.
void Simulator::schedule_in(Seconds delay, Event ev) {
  TR_EXPECTS(!(delay < 0.0));
  queue_.push(now_ + delay, ev);
}

void Simulator::schedule_at(Seconds at, Event ev) {
  TR_EXPECTS_MSG(!(at < now_), "cannot schedule into the past");
  queue_.push(at, ev);
}

std::size_t Simulator::run_until(Seconds horizon) {
  constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();
  const std::size_t start = executed_;
  horizon_ = horizon;
  while (!stopped_) {
    const Seconds qt = queue_.empty() ? kInf : queue_.next_time();
    const Seconds ft = frontier_ ? frontier_->frontier_time() : kInf;
    // Queue events win ties: a fault landing at the same instant as the
    // frontier's token arrival must destroy the token first.
    const bool from_queue = qt <= ft;
    const Seconds t = from_queue ? qt : ft;
    if (!(t <= horizon)) break;  // also exits on both-infinite
    if (max_events_ != 0 && executed_ >= max_events_) {
      std::ostringstream os;
      os << "simulation exceeded the max-event guard (" << max_events_
         << " events) at t=" << now_ << " s with " << queue_.size()
         << " events still queued; a model bug or fault scenario is "
            "scheduling an event storm";
      throw EventStormError(os.str());
    }
    // Count before dispatch, so a train the handler runs inline sees this
    // event already counted and the guard admits exactly max_events_.
    now_ = t;
    ++executed_;
    if (from_queue) {
      const Event ev = queue_.pop();
      TR_EXPECTS_MSG(handler_ != nullptr, "no event handler installed");
      handler_->on_event(ev);
    } else {
      frontier_->advance_frontier();
    }
  }
  horizon_ = -kInf;
  if (!stopped_ && now_ < horizon) now_ = horizon;
  return executed_ - start;
}

}  // namespace tokenring::sim
