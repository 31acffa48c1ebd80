#include "tokenring/sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "tokenring/common/checks.hpp"

namespace tokenring::sim {

namespace {
// The std heap algorithms keep the greatest element in front, so "greater"
// means "fires later".
bool fires_later(const Event& a, const Event& b) {
  if (a.at != b.at) return a.at > b.at;
  return a.seq > b.seq;
}
}  // namespace

void EventQueue::push(Seconds at, Event ev) {
  // SIM_CHECK: a NaN key would silently corrupt the heap order; reject it,
  // and an infinite or negative one, with a message naming the event kind.
  if (!(std::isfinite(at) && at >= 0.0)) {
    std::ostringstream os;
    os << "event time must be finite and >= 0, got " << at
       << " for event kind '" << to_string(ev.kind) << "'";
    detail::precondition_failed("std::isfinite(at) && at >= 0.0", __FILE__,
                                __LINE__, os.str());
  }
  ev.at = at;
  ev.seq = next_seq_++;
  heap_.push_back(ev);
  std::push_heap(heap_.begin(), heap_.end(), fires_later);
}

Event EventQueue::pop() {
  TR_EXPECTS(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), fires_later);
  const Event out = heap_.back();
  heap_.pop_back();
  return out;
}

}  // namespace tokenring::sim
