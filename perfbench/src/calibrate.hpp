// Host-speed calibration for the wall-time metrics.
//
// The hosts this benchmark runs on are shared virtual machines whose speed
// drifts by up to 50% over minutes: the same jobs=1 sweep read 1.6 s and
// 2.5 s ten minutes apart, with CPU time tracking wall time, so the guest
// cannot see the loss. A fixed reference loop, written here and calling no
// library code, is timed around every measurement on as many threads as
// the measurement uses. The run's median measurement is rescaled by
// (nominal reference time / the run's median reference time), so it reads
// in seconds at the nominal host speed, and no library change can move
// the reference. Per-pass noise is not carried into the result: only the
// median over the run's passes is used.

#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Median duration of one reference pass on an unloaded 4-core Xeon guest
/// of the baseline host [ns] (README.md).
inline constexpr double kReferenceNominalNs = 90e6;

/// Wall time [ns] of one reference pass run on `threads` threads at once
/// (each thread runs the whole loop; the slowest one sets the time).
double reference_pass_ns(std::size_t threads);

class HostSpeed {
 public:
  /// Run `body` between two reference passes on `threads` threads and
  /// return its raw wall time [s].
  double time(std::size_t threads, const std::function<void()>& body);

  /// `seconds` measured on `threads` threads, rescaled to the nominal
  /// host speed by the median of this run's passes on that many threads.
  /// Requires at least one time() call with the same thread count.
  double rescale(double seconds, std::size_t threads) const;

  /// "reference pass median [ms]: ..." for the run's notes.
  std::string describe() const;

 private:
  std::map<std::size_t, std::vector<double>> passes_ns_;
};

}  // namespace perfbench
