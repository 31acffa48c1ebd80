#include "tokenring/msg/stream.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "tokenring/common/checks.hpp"

namespace tokenring::msg {

void SyncStream::validate() const {
  // Finiteness first: an inf period would sail through the positivity
  // check and then silently wedge horizon sizing and utilization sums.
  TR_EXPECTS_MSG(std::isfinite(period), "stream period must be finite");
  TR_EXPECTS_MSG(std::isfinite(payload_bits), "payload must be finite");
  TR_EXPECTS_MSG(std::isfinite(relative_deadline),
                 "relative deadline must be finite");
  TR_EXPECTS_MSG(period > 0.0, "stream period must be positive");
  TR_EXPECTS_MSG(payload_bits >= 0.0, "payload cannot be negative");
  TR_EXPECTS_MSG(station >= 0, "station index cannot be negative");
  // The ring holds station + 1 stations, which must fit in an int.
  TR_EXPECTS_MSG(station < std::numeric_limits<int>::max(),
                 "station index must leave room for the ring size");
  TR_EXPECTS_MSG(relative_deadline >= 0.0,
                 "relative deadline cannot be negative");
  TR_EXPECTS_MSG(relative_deadline <= period,
                 "constrained deadlines must satisfy D <= P");
}

std::string SyncStream::describe(BitsPerSecond bw) const {
  std::ostringstream os;
  os << "S(station=" << station << ", P=" << to_milliseconds(period)
     << "ms, C=" << payload_bits << "b, U=" << utilization(bw) << ")";
  return os.str();
}

}  // namespace tokenring::msg
