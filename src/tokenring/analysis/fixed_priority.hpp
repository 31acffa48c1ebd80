// Generic fixed-priority (rate-monotonic) schedulability machinery.
//
// The PDP analysis (paper Theorem 4.1) is the Lehoczky-Sha-Ding exact
// characterization [RTSS'89] applied to augmented message lengths C'_i with
// a blocking term B. This file implements that test in two equivalent
// forms:
//
//  * `lsd_point_test`         — the scheduling-point formulation exactly as
//                               printed in the paper (minimize workload
//                               ratio over R_i = {l*P_k}), and
//  * `response_time_analysis` — the fixpoint-iteration formulation
//                               (Joseph/Pandya/Audsley), which runs orders
//                               of magnitude faster inside Monte Carlo
//                               loops.
//
// In exact arithmetic the two give the same verdict. In floating point they
// count arrivals differently (RTA takes ceil(r/P); the point test snaps
// fl(l*P)/P back to l), so they can split when a response lands within an
// ulp of a period multiple; the randomized property test pins agreement on
// its corpus, and ROADMAP.md keeps two reproducers of the split. The Monte
// Carlo probes use RTA, through `rta_feasible_fast` (exact screens around
// the per-task fixpoint); the scheduling-point test keeps only its literal
// form, as the paper-faithful reference.
//
// Inputs are plain vectors sorted by non-decreasing effective deadline,
// index 0 = highest priority. With implicit deadlines (D = P, the paper's
// model) that is rate-monotonic order; constrained deadlines (D <= P) are
// supported in deadline-monotonic order.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "tokenring/common/units.hpp"

namespace tokenring::analysis {

/// One task/stream as seen by the generic tests.
struct FpTask {
  /// Period [s].
  Seconds period = 0.0;
  /// Worst-case transmission demand per period (the augmented C'_i) [s].
  Seconds cost = 0.0;
  /// Relative deadline [s]; 0 means deadline = period (the paper's model).
  /// Constrained deadlines require tasks sorted deadline-monotonically.
  Seconds deadline = 0.0;

  /// Effective relative deadline.
  Seconds effective_deadline() const {
    return deadline > 0.0 ? deadline : period;
  }
};

/// Result for one task.
struct FpTaskVerdict {
  bool schedulable = false;
  /// Worst-case response time if the RTA converged within the period;
  /// unset when the task is unschedulable (RTA diverged past the deadline).
  std::optional<Seconds> response_time;
};

/// Whole-set verdict.
struct FpSetVerdict {
  bool schedulable = false;
  /// Index of the first (highest-priority) task that failed, if any.
  std::optional<std::size_t> first_failure;
  /// Per-task verdicts, same order as the input.
  std::vector<FpTaskVerdict> tasks;
  /// How many tasks hit the RTA iteration cap (kMaxRtaIterations) instead
  /// of converging or provably missing their deadline. Non-zero means the
  /// "unschedulable" verdicts for those tasks are conservative, not exact;
  /// tools surface this as a warning.
  std::size_t iteration_cap_hits = 0;
};

/// Upper bound on RTA fixpoint iterations. The iteration is monotone
/// non-decreasing and bounded by the deadline when schedulable, so in
/// exact arithmetic it always terminates; the cap only guards against
/// floating-point stalls (e.g. `next` creeping by sub-ulp amounts near the
/// deadline). 10'000 is orders of magnitude above the iteration counts
/// seen in practice (tens at most), so hitting it signals numerical
/// trouble, not a hard problem instance.
inline constexpr int kMaxRtaIterations = 10'000;

/// Why `response_time` returned what it did.
enum class RtaStatus {
  /// Fixpoint reached within the deadline: the returned response time is
  /// exact.
  kConverged,
  /// The iteration crossed the deadline: the task provably misses it.
  kDeadlineExceeded,
  /// kMaxRtaIterations reached without a fixpoint: the task is *treated*
  /// as unschedulable (conservative). Also tallied in the obs counter
  /// "analysis.rta_cap_hits".
  kIterationCapReached,
};

/// Paper Theorem 4.1 / Lehoczky-Sha-Ding scheduling-point test for task `i`
/// (0-based) in a set sorted by increasing effective deadline: is there a
/// scheduling point t in { l*P_k : k <= i, l*P_k <= D_i } union { D_i } with
///   B + C'_i + sum_{j<i} C'_j * ceil(t/P_j)  <=  t ?
/// (With implicit deadlines this is exactly the paper's R_i.)
/// `blocking` is the B term (2*max(F, Theta) for PDP).
/// Points are sorted and deduplicated before testing, so harmonic periods
/// (where l*P_k collides across k) evaluate each distinct t once; the
/// verdict is unchanged because the workload at a given t is the same
/// however the point was generated. `workload_evals`, when non-null, is
/// set to the number of workload evaluations performed (early exit on the
/// first passing point included).
/// Preconditions: tasks sorted by effective deadline; costs/periods
/// positive or zero cost; i < tasks.size().
bool lsd_point_test(const std::vector<FpTask>& tasks, std::size_t i,
                    Seconds blocking, std::size_t* workload_evals = nullptr);

/// Scheduling-point test over the whole set (every task must pass).
FpSetVerdict lsd_point_test_all(const std::vector<FpTask>& tasks,
                                Seconds blocking);

/// Response-time analysis for task `i`:
///   r^{m+1} = B + C'_i + sum_{j<i} ceil(r^m / P_j) * C'_j
/// starting from the cold value r^0 = B + C'_i, until fixpoint or r > D_i.
/// Returns the response time if schedulable: the least r >= B + C'_i with
/// r^{m+1}(r) = r. `status`, when non-null, distinguishes deadline misses
/// from iteration-cap bailouts.
std::optional<Seconds> response_time(const std::vector<FpTask>& tasks,
                                     std::size_t i, Seconds blocking,
                                     RtaStatus* status = nullptr);

/// RTA over the whole set; the cold oracle of `rta_feasible_fast`. Its
/// verdict equals `lsd_point_test_all`'s except when a response lands
/// within an ulp of a period multiple, where the two arrival counts differ
/// (either way round; see the file comment).
FpSetVerdict response_time_analysis(const std::vector<FpTask>& tasks,
                                    Seconds blocking);

/// Theorem 4.1's scheduling point t = D_i (k = i, l = 1 under implicit
/// deadlines), evaluated in RTA's own arithmetic: true when the fixpoint's
/// right-hand side at r = D_i is at most D_i and the arrival counts
/// sum_{j<i} ceil(D_i/P_j) + 2 stay below kMaxRtaIterations. The
/// right-hand side is monotone in r, so every iterate from B + C'_i stays
/// at or below D_i; each iterate that does not end the run raises some
/// count, so the guard keeps the iteration cap out of reach. A true result
/// therefore means `response_time(tasks, i, blocking)` converges; false
/// decides nothing.
bool deadline_certifies(const std::vector<FpTask>& tasks, std::size_t i,
                        Seconds blocking);

/// Work counted by `rta_feasible_fast` with a search state: fixpoint runs
/// started, iterations (evaluations of r^{m+1}) done, and what each screen
/// decided without a fixpoint.
struct RtaWork {
  std::uint64_t fixpoint_runs = 0;
  std::uint64_t iterations = 0;
  /// Tasks the deadline point certified (`deadline_certifies`).
  std::uint64_t deadline_accepts = 0;
  /// Probes the utilization screen rejected.
  std::uint64_t quick_rejects = 0;
  /// Tasks the hyperbolic screen accepted.
  std::uint64_t hyperbolic_accepts = 0;
  /// Probes that failed again at the hinted task, first thing.
  std::uint64_t hint_hits = 0;

  RtaWork& operator+=(const RtaWork& other) {
    fixpoint_runs += other.fixpoint_runs;
    iterations += other.iterations;
    deadline_accepts += other.deadline_accepts;
    quick_rejects += other.quick_rejects;
    hyperbolic_accepts += other.hyperbolic_accepts;
    hint_hits += other.hint_hits;
    return *this;
  }
};

/// Adds `work` to the obs counters "analysis.rta.{fixpoint_runs,
/// iterations,deadline_accepts,quick_rejects,hyperbolic_accepts,
/// hint_hits}". The kernels call it once per probe, never inside the
/// fixpoint loop.
void record_rta_work(const RtaWork& work);

/// What one search carries from probe to probe of `rta_feasible_fast`: a
/// search probes one task set whose periods and deadlines stay fixed while
/// its costs and blocking move (a saturation search moves the costs, a
/// fault-margin search the blocking).
struct RtaSearchState {
  static constexpr std::size_t kNoTask = static_cast<std::size_t>(-1);

  /// The task that failed last time; it is tested first.
  std::size_t failed_hint = kNoTask;
  /// The task array (costs included) of the last schedulable probe. Empty
  /// or of another size, it is reset to the probe's tasks.
  std::vector<FpTask> committed;
  /// The blocking term of the last schedulable probe.
  Seconds blocking = 0.0;
  /// response[i] is task i's exact response time under `committed`, or 0
  /// where none is known (a screen or the deadline point accepted the
  /// task).
  std::vector<Seconds> response;
  /// Work since the owner last took it (see `record_rta_work`).
  RtaWork work;
};

/// Boolean RTA verdict with cheap screens around the exact per-task test:
///  * quick-reject: sum(cost/period) + blocking/P_last > 1 means the
///    lowest-priority task cannot fit (necessary condition, margin-guarded
///    against rounding), so the whole set fails without any iteration;
///  * per-task hyperbolic quick-accept (Bini-Buttazzo with the blocking
///    term folded into the task under test): while every deadline so far
///    is implicit, prod_{j<i}(1+U_j) * (1 + (C_i+B)/P_i) <= 2 proves task
///    i schedulable without running its fixpoint;
///  * deadline point: a task the hyperbolic screen leaves open passes
///    when `deadline_certifies` does, with no fixpoint. It is skipped for a
///    task whose fixpoint would start warm from a held response (see the
///    warm start): that task failed it at the committed probe, and its
///    costs and blocking have only risen since;
///  * failed-task-first: `state->failed_hint` names the task that failed
///    last time; re-testing it first lets the unschedulable side of a
///    bisection exit after one fixpoint run;
///  * warm start: task i's fixpoint starts from max(B + C'_i,
///    state->response[i]) when B is at least the committed blocking, every
///    C'_j (j <= i) is at least its committed value and the task is the
///    committed one, and from B + C'_i otherwise. Blocking and costs only
///    raise r^{m+1}, so the committed response is then at or below the
///    least fixpoint, and the iteration reaches the same value in no more
///    steps (so it can hit kMaxRtaIterations only where a cold run would).
///    A schedulable verdict commits the tasks, the blocking and the
///    responses; an unschedulable one commits nothing and moves only the
///    hint.
/// Tasks that no screen decides get the exact fixpoint, so the verdict and
/// every committed response match the cold `response_time_analysis`
/// (screens are margin-guarded sufficient/necessary conditions, the
/// deadline point is exact in the fixpoint's own arithmetic; the
/// differential property tests pin the agreement). `state` is optional:
/// without it there is no hint, no warm start and no work count.
bool rta_feasible_fast(const std::vector<FpTask>& tasks, Seconds blocking,
                       RtaSearchState* state = nullptr);

/// Liu-Layland utilization bound n*(2^{1/n} - 1): a *sufficient* condition
/// on sum(cost/period) for schedulability with zero blocking. Provided for
/// context in examples/benches. Requires n >= 1.
double liu_layland_bound(std::size_t n);

/// Hyperbolic bound (Bini-Buttazzo): prod(U_i + 1) <= 2 is sufficient with
/// zero blocking. Returns the product for the given tasks.
double hyperbolic_product(const std::vector<FpTask>& tasks);

/// Throws PreconditionError unless the tasks are sorted by non-decreasing
/// effective deadline, with positive periods, non-negative costs, and
/// deadlines within periods.
void validate_sorted_tasks(const std::vector<FpTask>& tasks);

}  // namespace tokenring::analysis
