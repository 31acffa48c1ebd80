// Timed-token protocol (FDDI) schedulability analysis — paper Section 5.
//
// The local synchronous-bandwidth allocation scheme (Agrawal-Chen-Zhao)
// assigns station i
//
//     q_i  = floor(P_i / TTRT)              (token visits usable: q_i - 1)
//     C'_i = C_i + (q_i - 1) * F_ovhd       (one frame per usable visit)
//     h_i  = C_i / (q_i - 1) + F_ovhd
//
// and the message set is schedulable (Theorem 5.1) iff
//
//     sum_i C_i / (q_i - 1)  +  n * F_ovhd   <=   TTRT - Lambda
//
// where Lambda = Theta + F_async accounts for the token walk plus one
// asynchronous-overrun frame per rotation. The deadline constraint is
// implied: the local allocation gives each station exactly its minimum need
// per usable visit, and Johnson's bound guarantees q_i - 1 usable visits in
// any window of length P_i when the protocol constraint holds.
// q_i >= 2 (i.e. TTRT <= P_i / 2) is required for any guarantee at all.

#pragma once

#include <optional>
#include <vector>

#include "tokenring/common/units.hpp"
#include "tokenring/msg/message_set.hpp"
#include "tokenring/net/frame.hpp"
#include "tokenring/net/ring.hpp"

namespace tokenring::analysis {

/// Static configuration of a TTP analysis.
struct TtpParams {
  net::RingParams ring;
  /// Frame overhead geometry for synchronous traffic (only overhead_bits is
  /// used: synchronous frame *length* is the allocated h_i).
  net::FrameFormat frame;
  /// Asynchronous frame geometry; its full transmission time is the
  /// asynchronous-overrun term in Lambda. Defaults to the paper's 64-byte
  /// payload + 112-bit overhead.
  net::FrameFormat async_frame;

  void validate() const;
};

/// Per-station allocation and feasibility detail.
struct TtpStreamReport {
  msg::SyncStream stream;
  /// q_i = floor(P_i / TTRT) (`ttp_visits`).
  double q = 0.0;
  /// Allocated synchronous bandwidth h_i [s]; 0 if q_i < 2.
  Seconds h = 0.0;
  /// Augmented length C'_i = C_i + (q_i - 1) * F_ovhd [s].
  Seconds augmented_length = 0.0;
  /// False iff q_i < 2 (period too short for the chosen TTRT).
  bool deadline_feasible = false;
};

/// Whole-set TTP verdict.
struct TtpVerdict {
  bool schedulable = false;
  Seconds ttrt = 0.0;
  /// Protocol overhead Lambda = Theta + F_async [s].
  Seconds lambda = 0.0;
  /// Left-hand side of Theorem 5.1 (total allocated bandwidth sum h_i).
  Seconds allocated = 0.0;
  /// Right-hand side TTRT - Lambda [s].
  Seconds available = 0.0;
  std::vector<TtpStreamReport> reports;
};

/// Lambda = Theta + one asynchronous-overrun frame time.
Seconds ttp_lambda(const TtpParams& params, BitsPerSecond bw);

/// q_i = floor(window / TTRT): the token visits a station can count on in
/// a window (its deadline, or what a fault budget leaves of it). The count
/// is an integer held in double, exact below 2^53 and never wrapped above,
/// so callers test q_i < 2 (no guarantee) and take q_i - 1 on it directly.
double ttp_visits(Seconds window, Seconds ttrt);

/// Local-scheme synchronous bandwidth h_i for one stream at the given TTRT.
/// Returns nullopt when q_i < 2 (no guarantee possible).
std::optional<Seconds> ttp_local_bandwidth(const msg::SyncStream& stream,
                                           const TtpParams& params,
                                           BitsPerSecond bw, Seconds ttrt);

/// Theorem 5.1 schedulability test at an explicit TTRT.
TtpVerdict ttp_schedulable_at(const msg::MessageSet& set,
                              const TtpParams& params, BitsPerSecond bw,
                              Seconds ttrt);

/// Theorem 5.1 test with the paper's TTRT selection rule
/// (TTRT = min_i sqrt(Theta * P_i), clamped to P_min / 2).
TtpVerdict ttp_schedulable(const msg::MessageSet& set, const TtpParams& params,
                           BitsPerSecond bw);

/// Lean boolean form of `ttp_schedulable_at` (fast path for Monte Carlo).
bool ttp_feasible_at(const msg::MessageSet& set, const TtpParams& params,
                     BitsPerSecond bw, Seconds ttrt);

/// Lean boolean form of `ttp_schedulable` (selects TTRT by the paper rule).
bool ttp_feasible(const msg::MessageSet& set, const TtpParams& params,
                  BitsPerSecond bw);

/// Closed-form critical payload scale for Theorem 5.1. Because the
/// criterion is linear in the payloads (q_i depends only on periods and
/// TTRT, which payload scaling leaves untouched), the saturation boundary
/// is exactly
///     alpha* = (TTRT - Lambda - n*F_ovhd) / sum_i(C_i / (q_i - 1))
/// Returns 0 when the overhead terms alone are infeasible (or any q_i < 2),
/// and +infinity for an all-zero-payload set that stays feasible at any
/// scale. Cross-checked against the generic bisection in tests; the Monte
/// Carlo drivers use the bisection path so one exercises the other.
double ttp_critical_scale(const msg::MessageSet& set, const TtpParams& params,
                          BitsPerSecond bw, Seconds ttrt);

/// Worst-case achievable utilization of the local scheme,
/// (1 - Lambda/TTRT) / 3 — approaches the paper's "up to 33%" guarantee as
/// overheads vanish. Provided for the Section 2/5 claim benches.
double ttp_worst_case_utilization_bound(const TtpParams& params,
                                        BitsPerSecond bw, Seconds ttrt);

}  // namespace tokenring::analysis
