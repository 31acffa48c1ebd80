#include "tokenring/analysis/fixed_priority.hpp"

#include <algorithm>
#include <cmath>

#include "tokenring/common/checks.hpp"
#include "tokenring/obs/registry.hpp"

namespace tokenring::analysis {

namespace {

// Activations of a period-P stream interfering in [0, t]: the mathematical
// ceil(t/P), which excludes an arrival landing exactly at t. The scheduling
// points are generated as fl(l * P), and that product divided back by P can
// round one ulp *above* l — a plain ceil would then count the arrival at t
// as interference and wrongly reject the point. Snap back whenever the
// previous multiple already reaches t.
double activations(Seconds t, Seconds period) {
  double c = std::ceil(t / period);
  if ((c - 1.0) * period >= t) c -= 1.0;
  return c;
}

// Workload of task i and all higher-priority tasks released in [0, t],
// plus blocking: W_i(t) = B + C'_i + sum_{j<i} C'_j * ceil(t / P_j).
Seconds workload(const std::vector<FpTask>& tasks, std::size_t i,
                 Seconds blocking, Seconds t) {
  Seconds w = blocking + tasks[i].cost;
  for (std::size_t j = 0; j < i; ++j) {
    w += tasks[j].cost * activations(t, tasks[j].period);
  }
  return w;
}

// Safety margin for the pre-filter screens: the mathematical conditions
// are evaluated in floating point, so a raw comparison could fire inside
// the rounding noise of the exact test it short-circuits. 1e-9 relative is
// ~1e5 times the accumulated rounding of a 100-task sum, and far below any
// slack a real workload exhibits.
constexpr double kFilterMargin = 1e-9;

// Necessary condition (quick-reject): feasibility of the lowest-priority
// task requires r = B + C_n + r * U_{<n} <= D_n <= P_n at some r, which
// rearranges to sum_j U_j + B/P_n <= 1. Utilization beyond that (with
// margin) proves the set infeasible without any fixpoint iteration. Valid
// for constrained deadlines too, since D_n <= P_n only strengthens it.
bool utilization_quick_reject(const std::vector<FpTask>& tasks,
                              Seconds blocking) {
  double u = 0.0;
  for (const auto& t : tasks) u += t.cost / t.period;
  return u + blocking / tasks.back().period > 1.0 + kFilterMargin;
}

// Incremental prefix state for the per-task hyperbolic quick-accept
// (Bini-Buttazzo, extended with the blocking term folded into the task
// under test): while every deadline seen so far is implicit (so deadline
// order == period order == RM order), task i is schedulable if
//   prod_{j<i} (1 + U_j) * (1 + (C_i + B)/P_i) <= 2.
struct HyperbolicScreen {
  double prefix_product = 1.0;  // prod (1 + U_j) over tasks before i
  bool all_implicit = true;

  // Must be called for tasks in order; returns true if task i is proven
  // schedulable. Call advance() afterwards whether or not it fired.
  bool accepts(const FpTask& task, Seconds blocking) const {
    return all_implicit &&
           task.effective_deadline() == task.period &&
           prefix_product * (1.0 + (task.cost + blocking) / task.period) <=
               2.0 * (1.0 - kFilterMargin);
  }

  void advance(const FpTask& task) {
    all_implicit = all_implicit && task.effective_deadline() == task.period;
    prefix_product *= 1.0 + task.cost / task.period;
  }
};

}  // namespace

void validate_sorted_tasks(const std::vector<FpTask>& tasks) {
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    TR_EXPECTS_MSG(tasks[i].period > 0.0, "task period must be positive");
    TR_EXPECTS_MSG(tasks[i].cost >= 0.0, "task cost cannot be negative");
    TR_EXPECTS_MSG(tasks[i].deadline >= 0.0 &&
                       tasks[i].deadline <= tasks[i].period,
                   "constrained deadlines must satisfy 0 < D <= P");
    if (i > 0) {
      TR_EXPECTS_MSG(tasks[i - 1].effective_deadline() <=
                         tasks[i].effective_deadline(),
                     "tasks must be sorted by non-decreasing deadline");
    }
  }
}

bool lsd_point_test(const std::vector<FpTask>& tasks, std::size_t i,
                    Seconds blocking, std::size_t* workload_evals) {
  TR_EXPECTS(i < tasks.size());
  const Seconds d = tasks[i].effective_deadline();
  // Scheduling points { l * P_k : k <= i, l*P_k <= D_i } union { D_i }.
  // (With D_i = P_i the union adds t = P_i via k = i, l = 1 and this is
  // exactly the paper's R_i.) Harmonic periods generate the same t through
  // several (k, l) pairs; sorting and deduplicating evaluates each
  // distinct point once — the workload at a given t does not depend on how
  // the point was generated, so the existential verdict is unchanged.
  std::vector<Seconds> points;
  for (std::size_t k = 0; k <= i; ++k) {
    const auto lmax =
        static_cast<std::int64_t>(std::floor(d / tasks[k].period));
    for (std::int64_t l = 1; l <= lmax; ++l) {
      points.push_back(static_cast<double>(l) * tasks[k].period);
    }
  }
  points.push_back(d);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  std::size_t evals = 0;
  bool ok = false;
  for (const Seconds t : points) {
    ++evals;
    if (workload(tasks, i, blocking, t) <= t) {
      ok = true;
      break;
    }
  }
  if (workload_evals) *workload_evals = evals;
  return ok;
}

FpSetVerdict lsd_point_test_all(const std::vector<FpTask>& tasks,
                                Seconds blocking) {
  validate_sorted_tasks(tasks);
  TR_EXPECTS(blocking >= 0.0);
  FpSetVerdict v;
  v.schedulable = true;
  v.tasks.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const bool ok = lsd_point_test(tasks, i, blocking);
    v.tasks[i].schedulable = ok;
    if (!ok && v.schedulable) {
      v.schedulable = false;
      v.first_failure = i;
    }
  }
  return v;
}

namespace {

// The right-hand side f(r) = B + C'_i + sum_{j<i} C'_j * ceil(r / P_j) of
// task i's fixpoint, in the one operation order both the fixpoint and the
// deadline point use. With kCountArrivals it also adds sum_{j<i}
// ceil(r / P_j) to `*arrivals`.
template <bool kCountArrivals>
inline Seconds rta_rhs(const std::vector<FpTask>& tasks, std::size_t i,
                       Seconds blocking, Seconds r,
                       [[maybe_unused]] double* arrivals = nullptr) {
  Seconds next = blocking + tasks[i].cost;
  for (std::size_t j = 0; j < i; ++j) {
    const double count = std::ceil(r / tasks[j].period);
    if constexpr (kCountArrivals) *arrivals += count;
    next += tasks[j].cost * count;
  }
  return next;
}

// The RTA fixpoint r <- f(r) for task i, started at `start`; adds the
// iterations it runs to `iterations`.
//
// Every step of the right-hand side f is monotone in r (fl division, ceil,
// products with non-negative costs and fl sums all preserve order), and
// f(r) >= B + C'_i. So from the cold start B + C'_i the iterates rise to the
// least r >= B + C'_i with f(r) <= r, where f(r) = r, and stop there or
// past the deadline. Any start between B + C'_i and that least fixpoint
// keeps f(r) >= r, stays at or below the fixpoint, and dominates the cold
// iterate step for step: it returns the same value in no more iterations,
// and crosses the deadline iff the cold run does.
std::optional<Seconds> fixpoint(const std::vector<FpTask>& tasks,
                                std::size_t i, Seconds blocking,
                                Seconds start, RtaStatus* status,
                                std::uint64_t& iterations) {
  const Seconds deadline = tasks[i].effective_deadline();
  Seconds r = start;
  if (r > deadline) {
    if (status) *status = RtaStatus::kDeadlineExceeded;
    return std::nullopt;
  }
  for (int iter = 0; iter < kMaxRtaIterations; ++iter) {
    const Seconds next = rta_rhs<false>(tasks, i, blocking, r);
    if (next > deadline) {
      iterations += static_cast<std::uint64_t>(iter) + 1;
      if (status) *status = RtaStatus::kDeadlineExceeded;
      return std::nullopt;
    }
    if (next <= r) {  // fixpoint (next == r up to fp noise)
      iterations += static_cast<std::uint64_t>(iter) + 1;
      if (status) *status = RtaStatus::kConverged;
      return next;
    }
    r = next;
  }
  iterations += kMaxRtaIterations;
  // Iteration cap: treat as unschedulable (conservative) but tell the
  // caller — and the run manifest — that this was a bailout, not a proof.
  static const obs::Counter cap_hits("analysis.rta_cap_hits");
  cap_hits.add();
  if (status) *status = RtaStatus::kIterationCapReached;
  return std::nullopt;
}

// A committed response bounds task i's least fixpoint from below only while
// the task is the same and its cost has not fallen (nor the blocking, which
// the caller checks once per probe): the right-hand side of the fixpoint
// grows with every cost and with the blocking, so the least fixpoint does
// too. Costs are compared, not scales: an augmented length is not bitwise
// monotone in the scale across an exact frame multiple.
bool dominates(const FpTask& now, const FpTask& committed) {
  return now.cost >= committed.cost && now.period == committed.period &&
         now.deadline == committed.deadline;
}

// Responses found by the current call, committed to its search state only
// after a schedulable verdict. One buffer per thread, so a search state
// holds one response per task; it allocates only when a thread first meets
// a larger task set.
std::vector<Seconds>& pending_responses(std::size_t n) {
  thread_local std::vector<Seconds> pending;
  if (pending.size() < n) pending.resize(n);
  return pending;
}

}  // namespace

std::optional<Seconds> response_time(const std::vector<FpTask>& tasks,
                                     std::size_t i, Seconds blocking,
                                     RtaStatus* status) {
  TR_EXPECTS(i < tasks.size());
  std::uint64_t iterations = 0;
  return fixpoint(tasks, i, blocking, blocking + tasks[i].cost, status,
                  iterations);
}

FpSetVerdict response_time_analysis(const std::vector<FpTask>& tasks,
                                    Seconds blocking) {
  validate_sorted_tasks(tasks);
  TR_EXPECTS(blocking >= 0.0);
  FpSetVerdict v;
  v.schedulable = true;
  v.tasks.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    RtaStatus status = RtaStatus::kConverged;
    auto r = response_time(tasks, i, blocking, &status);
    v.tasks[i].schedulable = r.has_value();
    v.tasks[i].response_time = r;
    if (status == RtaStatus::kIterationCapReached) ++v.iteration_cap_hits;
    if (!r && v.schedulable) {
      v.schedulable = false;
      v.first_failure = i;
      // Keep filling per-task verdicts: callers report all failures.
    }
  }
  return v;
}

bool deadline_certifies(const std::vector<FpTask>& tasks, std::size_t i,
                        Seconds blocking) {
  TR_EXPECTS(i < tasks.size());
  // From the cold start B + C'_i <= f(D_i), monotonicity keeps every
  // iterate at or below f(D_i) <= D_i, so the run cannot cross the
  // deadline. An iterate that does not end the run must raise some
  // ceil(r/P_j) (equal counts give an equal f, which ends it), and no count
  // passes ceil(D_i/P_j): at most sum + 2 iterations, below the cap.
  const Seconds d = tasks[i].effective_deadline();
  double arrivals = 0.0;
  return rta_rhs<true>(tasks, i, blocking, d, &arrivals) <= d &&
         arrivals + 2.0 < kMaxRtaIterations;
}

void record_rta_work(const RtaWork& work) {
  static const obs::Counter runs("analysis.rta.fixpoint_runs");
  static const obs::Counter iterations("analysis.rta.iterations");
  static const obs::Counter deadline_accepts("analysis.rta.deadline_accepts");
  static const obs::Counter quick_rejects("analysis.rta.quick_rejects");
  static const obs::Counter hyperbolic_accepts(
      "analysis.rta.hyperbolic_accepts");
  static const obs::Counter hint_hits("analysis.rta.hint_hits");
  runs.add(work.fixpoint_runs);
  iterations.add(work.iterations);
  deadline_accepts.add(work.deadline_accepts);
  quick_rejects.add(work.quick_rejects);
  hyperbolic_accepts.add(work.hyperbolic_accepts);
  hint_hits.add(work.hint_hits);
}

bool rta_feasible_fast(const std::vector<FpTask>& tasks, Seconds blocking,
                       RtaSearchState* state) {
  if (tasks.empty()) return true;
  const std::size_t n = tasks.size();
  if (state && state->committed.size() != n) {
    state->committed = tasks;
    state->response.assign(n, 0.0);
  }
  Seconds* pending = state ? pending_responses(n).data() : nullptr;
  RtaWork uncounted;
  RtaWork& work = state ? state->work : uncounted;
  const auto passes = [&](std::size_t i, bool warm) {
    // A held response means the task failed the deadline point at the
    // committed probe; warm, its costs and blocking have only risen since.
    const Seconds held = warm ? state->response[i] : 0.0;
    if (held == 0.0 && deadline_certifies(tasks, i, blocking)) {
      ++work.deadline_accepts;
      if (pending) pending[i] = 0.0;  // certified: no response known
      return true;
    }
    ++work.fixpoint_runs;
    const auto r = fixpoint(tasks, i, blocking,
                            std::max(blocking + tasks[i].cost, held), nullptr,
                            work.iterations);
    if (r && pending) pending[i] = *r;
    return r.has_value();
  };

  // Committed responses can start this probe's fixpoints only while the
  // blocking has not fallen below the committed one (see `dominates`).
  const bool warm_blocking = state && blocking >= state->blocking;

  // Failed-task-first: inside a saturation bisection, the unschedulable
  // side usually fails at the same task as the previous probe; testing it
  // first turns most "false" evaluations into a single fixpoint run.
  const std::size_t hint =
      state ? state->failed_hint : RtaSearchState::kNoTask;
  if (hint < n) {
    bool warm = warm_blocking;
    for (std::size_t j = 0; j <= hint && warm; ++j) {
      warm = dominates(tasks[j], state->committed[j]);
    }
    if (!passes(hint, warm)) {
      ++work.hint_hits;
      return false;
    }
  }
  if (utilization_quick_reject(tasks, blocking)) {
    ++work.quick_rejects;
    // The proof names the lowest-priority task as the infeasible one.
    if (state) state->failed_hint = n - 1;
    return false;
  }
  HyperbolicScreen screen;
  bool warm = warm_blocking;  // ... and every cost so far dominates
  for (std::size_t i = 0; i < n; ++i) {
    warm = warm && dominates(tasks[i], state->committed[i]);
    if (i == hint) {
      // Passed above.
    } else if (screen.accepts(tasks[i], blocking)) {
      ++work.hyperbolic_accepts;
      if (pending) pending[i] = 0.0;  // screened: no response known
    } else if (!passes(i, warm)) {
      if (state) state->failed_hint = i;
      return false;
    }
    screen.advance(tasks[i]);
  }
  if (state) {
    state->committed = tasks;
    state->blocking = blocking;
    std::copy(pending, pending + n, state->response.begin());
  }
  return true;
}

double liu_layland_bound(std::size_t n) {
  TR_EXPECTS(n >= 1);
  const double nn = static_cast<double>(n);
  return nn * (std::pow(2.0, 1.0 / nn) - 1.0);
}

double hyperbolic_product(const std::vector<FpTask>& tasks) {
  double prod = 1.0;
  for (const auto& t : tasks) {
    TR_EXPECTS(t.period > 0.0);
    prod *= (t.cost / t.period + 1.0);
  }
  return prod;
}

}  // namespace tokenring::analysis
