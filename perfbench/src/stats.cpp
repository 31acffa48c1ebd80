#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile needs samples and q in (0, 1]");
  }
  const std::size_t k = nearest_rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

bool tail_resolved(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinBeyond;
}

std::vector<double> rate_ladder(double lo, double hi, double ratio) {
  if (!(lo > 0.0 && hi >= lo && ratio > 1.0 && ratio <= 1.05)) {
    throw std::invalid_argument(
        "rate_ladder needs 0 < lo <= hi and ratio in (1, 1.05]");
  }
  std::vector<double> rungs{lo};
  while (rungs.back() < hi) rungs.push_back(rungs.back() * ratio);
  return rungs;
}

int highest_passing_rung(const std::vector<double>& rungs,
                         const std::function<bool(double)>& passes) {
  int lo = -1;  // highest index known to pass
  int hi = static_cast<int>(rungs.size());  // lowest index known to fail
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(rungs[static_cast<std::size_t>(mid)])) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Sample median_by_key(const std::vector<Sample>& reps) {
  std::map<std::string, std::vector<double>> by_key;
  for (const Sample& rep : reps) {
    for (const auto& [key, value] : rep) by_key[key].push_back(value);
  }
  Sample out;
  for (auto& [key, values] : by_key) out[key] = median(std::move(values));
  return out;
}

}  // namespace perfbench
