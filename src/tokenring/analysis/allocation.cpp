#include "tokenring/analysis/allocation.hpp"

#include <algorithm>

#include "tokenring/common/checks.hpp"

namespace tokenring::analysis {

const char* to_string(AllocationScheme scheme) {
  switch (scheme) {
    case AllocationScheme::kLocal:
      return "local";
    case AllocationScheme::kFullLength:
      return "full-length";
    case AllocationScheme::kProportional:
      return "proportional";
    case AllocationScheme::kNormalizedProportional:
      return "norm-proportional";
    case AllocationScheme::kEqualPartition:
      return "equal-partition";
  }
  return "?";
}

std::vector<AllocationScheme> all_allocation_schemes() {
  return {AllocationScheme::kLocal, AllocationScheme::kFullLength,
          AllocationScheme::kProportional,
          AllocationScheme::kNormalizedProportional,
          AllocationScheme::kEqualPartition};
}

AllocationResult allocate(const msg::MessageSet& set, const TtpParams& params,
                          BitsPerSecond bw, Seconds ttrt,
                          AllocationScheme scheme) {
  params.validate();
  set.validate();
  TR_EXPECTS(bw > 0.0);
  TR_EXPECTS(ttrt > 0.0);

  AllocationResult res;
  res.scheme = scheme;
  res.ttrt = ttrt;
  res.lambda = ttp_lambda(params, bw);
  res.h.resize(set.size(), 0.0);

  const Seconds available = ttrt - res.lambda;
  const Seconds f_ovhd = params.frame.overhead_time(bw);
  const double total_util = set.utilization(bw);
  const auto n = static_cast<double>(set.size());

  for (std::size_t i = 0; i < set.size(); ++i) {
    const auto& s = set[i];
    const double q = ttp_visits(s.deadline(), ttrt);
    switch (scheme) {
      case AllocationScheme::kLocal:
        res.h[i] = q >= 2.0 ? s.payload_time(bw) / (q - 1.0) + f_ovhd : 0.0;
        break;
      case AllocationScheme::kFullLength:
        res.h[i] = s.payload_time(bw) + f_ovhd;
        break;
      case AllocationScheme::kProportional:
        res.h[i] = s.utilization(bw) * available;
        break;
      case AllocationScheme::kNormalizedProportional:
        res.h[i] = total_util > 0.0
                       ? s.utilization(bw) / total_util * available
                       : 0.0;
        break;
      case AllocationScheme::kEqualPartition:
        res.h[i] = available > 0.0 ? available / n : 0.0;
        break;
    }
  }

  // Evaluate the two constraints under the shared availability model. The
  // local scheme satisfies its deadline constraint with exact equality by
  // construction, so both comparisons carry a small relative tolerance to
  // keep floating-point noise from flipping boundary verdicts.
  constexpr double kRelTol = 1e-9;
  res.deadline_ok = true;
  Seconds sum_h = 0.0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const auto& s = set[i];
    const double q = ttp_visits(s.deadline(), ttrt);
    sum_h += res.h[i];
    if (q < 2.0) {
      res.deadline_ok = false;
      continue;
    }
    const Seconds usable = (q - 1.0) * std::max(0.0, res.h[i] - f_ovhd);
    const Seconds need = s.payload_time(bw);
    if (usable < need * (1.0 - kRelTol)) res.deadline_ok = false;
  }
  res.protocol_ok = sum_h <= available + kRelTol * ttrt;
  return res;
}

}  // namespace tokenring::analysis
