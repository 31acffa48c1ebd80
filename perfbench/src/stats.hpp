// Order statistics and the rate-ladder search used by every workload.
//
// Percentiles use the nearest-rank definition: with n samples sorted
// ascending, the q-quantile is the sample of 1-based rank ceil(q * n). A
// tail percentile is only reported when at least `kMinBeyond` samples lie
// above that rank (the "ten beyond" rule), so a p99 needs n >= 1000.

#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank q-quantile (q in (0, 1]) of `samples`; sorts a copy.
/// Requires at least one sample.
double percentile(std::vector<double> samples, double q);

/// Median (the mean of the two middle samples for even counts). Requires
/// at least one sample.
double median(std::vector<double> samples);

/// Samples strictly above the nearest-rank q-quantile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// True iff the q-quantile of n samples has >= kMinBeyond samples beyond.
bool tail_resolved(std::size_t n, double q);

/// Geometric ladder of request rates from `lo` up to at least `hi`, each
/// rung `ratio` times the previous (ratio in (1, 1.05]).
std::vector<double> rate_ladder(double lo, double hi, double ratio);

/// Highest rung index whose rate `passes`, assuming pass/fail is monotone
/// along the ladder (every rung below a passing rung passes). Binary
/// search: O(log n) probes. Returns -1 when even the lowest rung fails.
int highest_passing_rung(const std::vector<double>& rungs,
                         const std::function<bool(double)>& passes);

/// One repetition's named measurements.
using Sample = std::map<std::string, double>;

/// Per-key median over repetitions (keys missing from a repetition are
/// taken over the repetitions that have them).
Sample median_by_key(const std::vector<Sample>& reps);

}  // namespace perfbench
