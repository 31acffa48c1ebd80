// MAC frame format: information payload vs. per-frame overhead.
//
// Paper notation (Section 4.2): F_info^b and F_ovhd^b are the information
// and overhead parts of a frame in bits; F^b the total; F = F^b / BW the
// frame transmission time. A message of C_i^b payload bits is split into
//   L_i = floor(C_i^b / F_info^b)   full frames, and
//   K_i = ceil (C_i^b / F_info^b)   frames in total
// (K_i = L_i + 1 iff the last frame is short).

#pragma once

#include "tokenring/common/units.hpp"

namespace tokenring::net {

/// Frame geometry shared by the synchronous and asynchronous traffic in the
/// paper's experiments (64-byte payload, 112-bit overhead by default).
struct FrameFormat {
  /// Information (payload) bits per full frame, F_info^b.
  double info_bits = 512.0;  // 64 bytes
  /// Per-frame overhead bits, F_ovhd^b (headers, trailers, FCS...).
  double overhead_bits = 112.0;

  /// Total bits per full frame, F^b.
  double total_bits() const { return info_bits + overhead_bits; }

  /// Transmission time of the payload part at `bw`.
  Seconds info_time(BitsPerSecond bw) const { return info_bits / bw; }
  /// Transmission time of the overhead part at `bw`.
  Seconds overhead_time(BitsPerSecond bw) const { return overhead_bits / bw; }
  /// Transmission time F of one full frame at `bw`.
  Seconds frame_time(BitsPerSecond bw) const { return total_bits() / bw; }

  /// L_i: number of *full* frames for a payload of `payload_bits`. Counts
  /// are integers held in double: exact below 2^53, and never wrapped for
  /// a larger payload.
  double full_frames(double payload_bits) const;
  /// K_i: total number of frames (ceil). Requires payload_bits >= 0.
  double frames_for_payload(double payload_bits) const;
  /// Payload bits carried by the (possibly short) last frame; equals
  /// info_bits when the payload is an exact multiple.
  double last_frame_payload_bits(double payload_bits) const;

  /// Throws PreconditionError if bits are out of domain.
  void validate() const;
};

}  // namespace tokenring::net
