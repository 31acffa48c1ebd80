// Saturation scaling: find the schedulability boundary along a payload
// direction (paper Section 6.1, "saturated schedulable class").
//
// Given a base message set M and a monotone schedulability predicate
// (schedulable at scale a implies schedulable at every a' < a), the
// critical scale a* = sup { a : predicate(a * M) } is located by
// exponential bracketing plus bisection. The saturated set a* * M lies on
// the boundary; its utilization is one breakdown-utilization sample.
//
// Two entry points:
//  * `find_saturation` runs one search against a `SchedulablePredicate`
//    over materialized sets, the paper's criteria as written. It scales
//    the base into one reusable buffer, so a search allocates once, not
//    once per probe. It is the reference the tests hold the kernels to.
//  * `find_saturation_batch` runs B searches in lockstep against one
//    `BatchScaleKernel` (analysis/kernels.hpp), which hoists everything
//    scale-invariant — priority order, TTRT selection, per-station visit
//    counts, blocking — out of the probe loop. Every Monte Carlo study
//    saturates through it. A kernel must return, lane for lane and scale
//    for scale, the predicate's verdict; each lane's bisection trajectory
//    (and hence every output bit) is then the reference search's.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "tokenring/msg/message_set.hpp"

namespace tokenring::breakdown {

/// A schedulability predicate over message sets (captures protocol params
/// and bandwidth). Must be monotone non-increasing in uniform payload
/// scaling.
using SchedulablePredicate = std::function<bool(const msg::MessageSet&)>;

/// Options for the boundary search.
struct SaturationOptions {
  /// Relative tolerance on the critical scale.
  double relative_tolerance = 1e-6;
  /// Initial scale guess for bracketing.
  double initial_scale = 1.0;
  /// Abort bracketing above this scale (guards against predicates that
  /// never fail, e.g. zero-payload sets).
  double max_scale = 1e12;
};

/// Result of a saturation search.
struct SaturationResult {
  /// True iff a boundary exists: predicate holds somewhere in (0, max_scale]
  /// and fails at larger scales. False means either the set is
  /// unschedulable even as payloads vanish (degenerate_zero) or never
  /// becomes unschedulable below max_scale.
  bool found = false;
  /// Predicate fails even for the unscaled-to-zero set (fixed overheads
  /// alone exceed capacity): breakdown utilization is 0.
  bool degenerate_zero = false;
  /// The critical scale a* (lower bracket end; predicate holds here).
  double critical_scale = 0.0;
  /// Utilization of the saturated set at the given bandwidth.
  double breakdown_utilization = 0.0;
  /// How many times the predicate/kernel was evaluated (zero check +
  /// bracketing + bisection). Deterministic for a given base set and
  /// options — the probe sequence depends only on the verdicts — so the
  /// aggregate obs counter "breakdown.predicate_evals" is identical for
  /// every --jobs count.
  std::int64_t predicate_evals = 0;
};

/// Locate the critical scale for `base` under `predicate`. `bw` is used
/// only to report utilization. Requires a non-empty base set with at least
/// one positive payload.
SaturationResult find_saturation(const msg::MessageSet& base,
                                 const SchedulablePredicate& predicate,
                                 BitsPerSecond bw,
                                 const SaturationOptions& options = {});

/// A batch of independent scale kernels evaluated in lockstep: for every
/// lane l with active[l] != 0, set verdicts[l] to lane l's verdict at
/// scales[l] (entries of inactive lanes are left untouched). All spans
/// have one length, the lane count the kernel was built for. The concrete
/// SoA kernels live in analysis/kernels.hpp (PdpBatchKernel /
/// TtpBatchKernel); each lane must agree verdict-for-verdict with its
/// predicate on the scaled base set.
using BatchScaleKernel =
    std::function<void(std::span<const double> scales,
                       std::span<const std::uint8_t> active,
                       std::span<std::uint8_t> verdicts)>;

/// Builds a BatchScaleKernel over one batch of base sets (one lane per
/// set). Shared across Monte Carlo worker threads — each call builds an
/// independent kernel, so the factory itself must be const-callable and
/// thread-safe.
using BatchScaleKernelFactory =
    std::function<BatchScaleKernel(std::span<const msg::MessageSet> bases)>;

/// Advances the exponential-bracket + bisection state of B independent
/// saturation searches in lockstep. Each pass the caller asks `prepare`
/// for one probe scale per still-searching lane, evaluates them all with
/// one BatchScaleKernel call, and feeds the verdicts back through
/// `absorb`. Per lane the probe sequence — zero check, bracketing walk,
/// bisection — replays `find_saturation` exactly (the sequence depends
/// only on the verdicts), so critical scales and per-lane
/// `predicate_evals` are bit-identical to B scalar searches; lanes that
/// converge early are masked out and simply stop consuming verdicts.
class BatchBisector {
 public:
  explicit BatchBisector(std::size_t lanes,
                         const SaturationOptions& options = {});

  std::size_t lanes() const { return lanes_.size(); }
  bool done() const { return live_ == 0; }
  std::size_t live_lanes() const { return live_; }

  /// Fill the next lockstep probe request: active[l] = 1 and scales[l] =
  /// the wanted probe for searching lanes; finished lanes get active[l] =
  /// 0 and keep their last probe scale (full-width kernels need a finite
  /// value). Spans must have size lanes().
  void prepare(std::span<double> scales, std::span<std::uint8_t> active) const;

  /// Consume the verdicts of the probes requested by the last prepare().
  /// Verdict entries of inactive lanes are ignored.
  void absorb(std::span<const std::uint8_t> verdicts);

  /// Result of one finished lane. `breakdown_utilization` is left 0 — the
  /// bisector never sees the base sets; find_saturation_batch fills it.
  /// Requires done().
  const SaturationResult& result(std::size_t lane) const;

 private:
  enum class State : std::uint8_t {
    kZeroCheck,     // awaiting the probe at scale 0
    kInitialProbe,  // awaiting the probe at options.initial_scale
    kBracketUp,     // awaiting probe(hi) while growing the bracket
    kBracketDown,   // awaiting probe(lo) while shrinking the bracket
    kBisect,        // awaiting probe(mid)
    kDone,
  };
  struct Lane {
    State state = State::kZeroCheck;
    double lo = 0.0;
    double hi = 0.0;
    double probe = 0.0;
    SaturationResult res;
  };

  void enter_bisection(Lane& lane);
  void finish(Lane& lane);

  SaturationOptions options_;
  std::vector<Lane> lanes_;
  std::size_t live_ = 0;
};

/// Locate the critical scale of every base set in one lockstep batch:
/// result[l] is bit-identical — every field, including predicate_evals —
/// to find_saturation(bases[l], <lane l's predicate>, bw, options).
/// Requires one lane per base set, each non-empty with at least one
/// positive payload.
std::vector<SaturationResult> find_saturation_batch(
    std::span<const msg::MessageSet> bases, const BatchScaleKernel& kernel,
    BitsPerSecond bw, const SaturationOptions& options = {});

/// find_saturation_batch over consecutive chunks of at most `batch` base
/// sets, one kernel per chunk from `factory`, run one after another.
/// result[i] belongs to bases[i] and, by the batch-kernel contract, is the
/// same for every `batch` >= 1.
std::vector<SaturationResult> find_saturation_chunked(
    std::span<const msg::MessageSet> bases,
    const BatchScaleKernelFactory& factory, BitsPerSecond bw,
    std::size_t batch, const SaturationOptions& options = {});

}  // namespace tokenring::breakdown
