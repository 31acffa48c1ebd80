#include "tokenring/breakdown/saturation.hpp"

#include <algorithm>
#include <cmath>

#include "tokenring/common/checks.hpp"
#include "tokenring/obs/registry.hpp"

namespace tokenring::breakdown {

namespace {

/// Utilization of base scaled by `factor`, bit-identical to
/// base.scaled(factor).utilization(bw): same multiply, same divides, same
/// accumulation order — without materializing the scaled set.
double scaled_utilization(const msg::MessageSet& base, double factor,
                          BitsPerSecond bw) {
  double u = 0.0;
  for (const auto& s : base.streams()) {
    const double payload = s.payload_bits * factor;
    u += (payload / bw) / s.period;
  }
  return u;
}

void count_evals(std::int64_t evals) {
  static const obs::Counter probes("breakdown.predicate_evals");
  probes.add(static_cast<std::uint64_t>(evals));
}

}  // namespace

SaturationResult find_saturation(const msg::MessageSet& base,
                                 const SchedulablePredicate& predicate,
                                 BitsPerSecond bw,
                                 const SaturationOptions& options) {
  TR_EXPECTS(!base.empty());
  TR_EXPECTS(bw > 0.0);
  TR_EXPECTS(options.relative_tolerance > 0.0);
  TR_EXPECTS(options.initial_scale > 0.0);
  bool has_payload = false;
  for (const auto& s : base.streams()) has_payload |= s.payload_bits > 0.0;
  TR_EXPECTS_MSG(has_payload, "saturation needs a nonzero payload direction");

  SaturationResult res;
  msg::MessageSet scaled;  // one buffer per search: no probe allocates
  const auto probe = [&](double factor) {
    ++res.predicate_evals;
    base.scaled_into(factor, scaled);
    return predicate(scaled);
  };

  // Degenerate check: if even (near-)zero payloads are unschedulable, the
  // breakdown utilization is 0 (fixed per-stream overheads exceed
  // capacity). Scale 0 keeps the overhead terms that depend on stream
  // existence (e.g. n * F_ovhd in Theorem 5.1) in place.
  if (!probe(0.0)) {
    res.degenerate_zero = true;
    res.found = false;
    count_evals(res.predicate_evals);
    return res;
  }

  // Exponential bracketing: grow/shrink until lo passes and hi fails.
  double lo;
  double hi;
  if (probe(options.initial_scale)) {
    lo = options.initial_scale;
    hi = lo * 2.0;
    while (probe(hi)) {
      lo = hi;
      hi *= 2.0;
      if (hi > options.max_scale) {
        // Predicate never fails within bounds: report the bracket edge.
        res.found = false;
        res.critical_scale = lo;
        res.breakdown_utilization = scaled_utilization(base, lo, bw);
        count_evals(res.predicate_evals);
        return res;
      }
    }
  } else {
    hi = options.initial_scale;
    lo = hi / 2.0;
    while (!probe(lo)) {
      hi = lo;
      lo /= 2.0;
      if (lo < options.initial_scale * 1e-18) {
        // Should have been caught by the zero check; be safe anyway.
        res.degenerate_zero = true;
        res.found = false;
        count_evals(res.predicate_evals);
        return res;
      }
    }
  }

  // Bisection: invariant predicate(lo) && !predicate(hi).
  while ((hi - lo) > options.relative_tolerance * hi) {
    const double mid = 0.5 * (lo + hi);
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }

  res.found = true;
  res.critical_scale = lo;
  res.breakdown_utilization = scaled_utilization(base, lo, bw);
  count_evals(res.predicate_evals);
  return res;
}

BatchBisector::BatchBisector(std::size_t lanes, const SaturationOptions& options)
    : options_(options), lanes_(lanes), live_(lanes) {
  TR_EXPECTS(lanes >= 1);
  TR_EXPECTS(options.relative_tolerance > 0.0);
  TR_EXPECTS(options.initial_scale > 0.0);
  // Every lane starts by probing scale 0 (the degenerate check).
  for (Lane& lane : lanes_) lane.probe = 0.0;
}

void BatchBisector::prepare(std::span<double> scales,
                            std::span<std::uint8_t> active) const {
  TR_EXPECTS(scales.size() == lanes_.size());
  TR_EXPECTS(active.size() == lanes_.size());
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    scales[l] = lanes_[l].probe;
    active[l] = lanes_[l].state != State::kDone ? 1 : 0;
  }
}

void BatchBisector::finish(Lane& lane) {
  lane.state = State::kDone;
  --live_;
}

/// Bisection step shared by every entry path: either emit the next mid
/// probe or declare the bracket converged — the same check-before-probe
/// order as the scalar loop.
void BatchBisector::enter_bisection(Lane& lane) {
  if ((lane.hi - lane.lo) > options_.relative_tolerance * lane.hi) {
    lane.probe = 0.5 * (lane.lo + lane.hi);
    lane.state = State::kBisect;
  } else {
    lane.res.found = true;
    lane.res.critical_scale = lane.lo;
    finish(lane);
  }
}

void BatchBisector::absorb(std::span<const std::uint8_t> verdicts) {
  TR_EXPECTS(verdicts.size() == lanes_.size());
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    Lane& lane = lanes_[l];
    if (lane.state == State::kDone) continue;
    const bool ok = verdicts[l] != 0;
    ++lane.res.predicate_evals;
    switch (lane.state) {
      case State::kZeroCheck:
        if (!ok) {
          lane.res.degenerate_zero = true;
          lane.res.found = false;
          finish(lane);
        } else {
          lane.probe = options_.initial_scale;
          lane.state = State::kInitialProbe;
        }
        break;
      case State::kInitialProbe:
        if (ok) {
          lane.lo = options_.initial_scale;
          lane.hi = lane.lo * 2.0;
          lane.probe = lane.hi;
          lane.state = State::kBracketUp;
        } else {
          lane.hi = options_.initial_scale;
          lane.lo = lane.hi / 2.0;
          lane.probe = lane.lo;
          lane.state = State::kBracketDown;
        }
        break;
      case State::kBracketUp:  // verdict is probe(hi)
        if (ok) {
          lane.lo = lane.hi;
          lane.hi *= 2.0;
          if (lane.hi > options_.max_scale) {
            // Predicate never fails within bounds: report the bracket edge.
            lane.res.found = false;
            lane.res.critical_scale = lane.lo;
            finish(lane);
          } else {
            lane.probe = lane.hi;
          }
        } else {
          enter_bisection(lane);
        }
        break;
      case State::kBracketDown:  // verdict is probe(lo)
        if (!ok) {
          lane.hi = lane.lo;
          lane.lo /= 2.0;
          if (lane.lo < options_.initial_scale * 1e-18) {
            // Should have been caught by the zero check; be safe anyway.
            lane.res.degenerate_zero = true;
            lane.res.found = false;
            finish(lane);
          } else {
            lane.probe = lane.lo;
          }
        } else {
          enter_bisection(lane);
        }
        break;
      case State::kBisect:  // verdict is probe(mid)
        if (ok) {
          lane.lo = lane.probe;
        } else {
          lane.hi = lane.probe;
        }
        enter_bisection(lane);
        break;
      case State::kDone:
        break;
    }
  }
}

const SaturationResult& BatchBisector::result(std::size_t lane) const {
  TR_EXPECTS(lane < lanes_.size());
  TR_EXPECTS_MSG(lanes_[lane].state == State::kDone,
                 "lane result requested before the search finished");
  return lanes_[lane].res;
}

std::vector<SaturationResult> find_saturation_batch(
    std::span<const msg::MessageSet> bases, const BatchScaleKernel& kernel,
    BitsPerSecond bw, const SaturationOptions& options) {
  TR_EXPECTS(!bases.empty());
  TR_EXPECTS(bw > 0.0);
  for (const auto& base : bases) {
    TR_EXPECTS(!base.empty());
    bool has_payload = false;
    for (const auto& s : base.streams()) has_payload |= s.payload_bits > 0.0;
    TR_EXPECTS_MSG(has_payload,
                   "saturation needs a nonzero payload direction");
  }

  const std::size_t lanes = bases.size();
  BatchBisector bisector(lanes, options);
  std::vector<double> scales(lanes, 0.0);
  std::vector<std::uint8_t> active(lanes, 0);
  std::vector<std::uint8_t> verdicts(lanes, 0);
  while (!bisector.done()) {
    bisector.prepare(scales, active);
    kernel(scales, active, verdicts);
    bisector.absorb(verdicts);
  }

  std::vector<SaturationResult> results;
  results.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    SaturationResult res = bisector.result(l);
    // The bisector owns the trajectory; the utilization report needs the
    // base set. Same cases as the scalar path: found and unbounded report
    // the utilization at the bracket edge, degenerate stays 0.
    if (!res.degenerate_zero && (res.found || res.critical_scale > 0.0)) {
      res.breakdown_utilization =
          scaled_utilization(bases[l], res.critical_scale, bw);
    }
    count_evals(res.predicate_evals);
    results.push_back(res);
  }
  return results;
}

std::vector<SaturationResult> find_saturation_chunked(
    std::span<const msg::MessageSet> bases,
    const BatchScaleKernelFactory& factory, BitsPerSecond bw,
    std::size_t batch, const SaturationOptions& options) {
  TR_EXPECTS(batch >= 1);
  std::vector<SaturationResult> results;
  results.reserve(bases.size());
  for (std::size_t lo = 0; lo < bases.size(); lo += batch) {
    const auto chunk = bases.subspan(lo, std::min(batch, bases.size() - lo));
    const BatchScaleKernel kernel = factory(chunk);
    const auto part = find_saturation_batch(chunk, kernel, bw, options);
    results.insert(results.end(), part.begin(), part.end());
  }
  return results;
}

}  // namespace tokenring::breakdown
