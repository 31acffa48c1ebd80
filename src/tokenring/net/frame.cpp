#include "tokenring/net/frame.hpp"

#include <cmath>

#include "tokenring/common/checks.hpp"

namespace tokenring::net {

double FrameFormat::full_frames(double payload_bits) const {
  TR_EXPECTS(payload_bits >= 0.0);
  return std::floor(payload_bits / info_bits);
}

double FrameFormat::frames_for_payload(double payload_bits) const {
  TR_EXPECTS(payload_bits >= 0.0);
  return std::ceil(payload_bits / info_bits);
}

double FrameFormat::last_frame_payload_bits(double payload_bits) const {
  TR_EXPECTS(payload_bits >= 0.0);
  if (payload_bits == 0.0) return 0.0;
  const double rem = std::fmod(payload_bits, info_bits);
  return rem == 0.0 ? info_bits : rem;
}

void FrameFormat::validate() const {
  TR_EXPECTS(info_bits > 0.0);
  TR_EXPECTS(overhead_bits >= 0.0);
}

}  // namespace tokenring::net
