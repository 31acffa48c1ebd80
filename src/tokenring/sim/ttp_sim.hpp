// Discrete-event simulation of the timed-token protocol (FDDI MAC) — paper
// Section 5.1.
//
// Faithful to the Grow/Johnson timer rules:
//  * Every station runs a token-rotation timer TRT initialized to TTRT.
//  * Token arrives early (TRT not yet expired): the earliness becomes the
//    asynchronous budget (THT); TRT restarts at TTRT.
//  * Token arrives late (TRT expired; Late_Ct was set): Late_Ct clears, TRT
//    keeps running, no asynchronous transmission this visit.
//  * Synchronous transmission is always allowed; each stream hosted by the
//    station may use at most its own synchronous bandwidth h_i per visit,
//    and every distinct message chunk sent in a visit is one frame paying
//    the frame overhead.
//  * Asynchronous frames may start while THT budget remains; a started
//    frame always completes (asynchronous overrun).
//  * Passing the token to the downstream neighbour costs one hop latency;
//    one token transmission is charged per lap, so an idle rotation sums
//    to Theta, matching the analysis.
//
// The token walk is a loop of visits: each visit ends by handing the token
// on, and the next visit runs in place (Simulator::take_inline) while it
// would fire next, strictly before every queued event. The first hop the
// rule refuses is staged as a kTtpTokenHop (Simulator::stage_at), so a hop
// costs no queue traffic and no dispatch unless a queued fault or
// recovery comes first or the run ends. With rotation statistics disabled
// (collect_rotation_stats = false, async kNone, no trace sink) the walk
// also fast-forwards whole idle laps in O(1) whenever no message is queued
// anywhere, by moving that hop's time: the huge-ring / long-horizon mode.
//
// The paper's model hosts exactly one stream per station; this simulator
// generalizes to any number (including zero) of streams per station — the
// schedulability analyses never depended on the restriction.
//
// Validation role: sets accepted by Theorem 5.1 with the local allocation
// must meet every deadline here, under adversarial phasing (each message
// arrives just after the token left its station) and saturating
// asynchronous load; and Johnson's bound (inter-visit time <= 2*TTRT) must
// hold station-wise.

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "tokenring/common/rng.hpp"
#include "tokenring/fault/plan.hpp"
#include "tokenring/msg/message_set.hpp"
#include "tokenring/sim/config.hpp"
#include "tokenring/sim/simulator.hpp"

namespace tokenring::sim {

/// One FDDI timed-token simulation run. Built via make_simulator
/// (config.hpp), which fills unset ttrt/sync_bandwidth_per_stream; uses
/// config.ttp, ignores config.pdp.
class TtpSimulation final : public Simulation, private EventHandler {
 public:
  /// Requires ttrt > 0 and sync_bandwidth_per_stream aligned with the
  /// set's streams (make_simulator guarantees both).
  TtpSimulation(msg::MessageSet set, SimConfig config);

  /// Execute the run and return aggregate metrics. `token_rotation` holds
  /// station-0 inter-visit times; `max_intervisit()` is tracked across all
  /// stations for the Johnson-bound check.
  SimMetrics run() override { return simulate(/*stop_at_miss=*/false); }
  /// The same run, stopped at the first recorded miss.
  bool misses_a_deadline() override {
    return simulate(/*stop_at_miss=*/true).deadline_misses > 0;
  }

  /// Largest token inter-visit time observed at any station (valid after
  /// run(); requires collect_rotation_stats, which is the default).
  Seconds max_intervisit() const override { return max_intervisit_; }

 private:
  struct PendingMessage {
    Seconds arrival = 0.0;
    Bits remaining = 0.0;
  };
  struct LocalStream {
    msg::SyncStream spec;
    Seconds h = 0.0;            // synchronous bandwidth per visit
    Seconds phase = 0.0;        // first release time
    Seconds next_release = 0.0; // lazily materialized arrivals
    std::deque<PendingMessage> queue;
  };
  struct Station {
    std::vector<LocalStream> streams;
    Seconds trt_expiry = 0.0;   // absolute time the rotation timer expires
    Seconds last_visit = -1.0;
    std::int64_t async_pending = 0;   // queued async frames (Poisson)
    Seconds next_async_arrival = 0.0; // next Poisson arrival time
    bool alive = true;                // false while crashed (bypassed)
  };

  /// The one run body behind run() and misses_a_deadline().
  const SimMetrics& simulate(bool stop_at_miss);
  /// Typed-event dispatch (token hops, faults, kickoff, recovery).
  void on_event(const Event& ev) override;

  /// The token of `generation` reaches `station`: run the visit and, as
  /// the walk's push-free tail, every following visit that would fire next
  /// (Simulator::take_inline); stage the first hop refused.
  void on_token_arrival(int station, std::uint64_t generation);
  /// One visit of the current token at `station`; returns the hop that
  /// hands the token on.
  Event visit(int station);
  /// The token's hop to `next`, `delay` seconds from now, possibly whole
  /// idle laps later (see hibernate_ok_).
  Event pass_token(int next, Seconds delay);
  /// Apply one fault from the plan with the FDDI recovery model.
  void on_fault(const fault::FaultEvent& event);
  /// Kill the ring for `outage`, then re-initialize: every TRT restarts and
  /// the first alive station issues a fresh token (any in-flight token
  /// event aborts via the generation bump).
  void ring_outage(fault::FaultKind kind, Seconds outage);
  void crash_station(int station);
  void rejoin_station(int station);
  /// Recompute the hop latency from the alive-station count (bypassed
  /// stations contribute no bit delay).
  void update_ring_timing();
  /// First alive station (claim winner / recovery token issuer); -1 when
  /// none remain.
  int first_alive() const;
  /// Release every message due at or before `now` at this station (and,
  /// under the Poisson model, every async frame arrival up to `now`). With
  /// `enqueue` false the release cadence (and its RNG draws) advances but
  /// nothing is queued — used to discard a crashed station's arrivals at
  /// rejoin without disturbing determinism.
  void materialize_arrivals(int station, Station& st, Seconds now,
                            bool enqueue);
  /// Serve one stream's queue for at most its per-visit bandwidth, starting
  /// `offset` seconds into the visit; returns time consumed.
  Seconds serve_stream(int station, LocalStream& stream, Seconds offset);

  msg::MessageSet set_;
  SimConfig cfg_;
  Simulator sim_;
  SimMetrics metrics_;
  Rng rng_;
  std::vector<Station> stations_;
  /// Fault plan expanded once; kFault events carry an index into this.
  std::vector<fault::FaultEvent> fault_events_;
  int active_count_ = 0;
  Seconds hop_ = 0.0;
  Seconds token_time_ = 0.0;
  Seconds f_ovhd_ = 0.0;
  Seconds f_async_ = 0.0;
  Seconds max_intervisit_ = 0.0;
  /// Station the token is (or was) heading to; a corrupted frame's visit is
  /// re-run by re-issuing the token here after the wasted slot.
  int next_station_ = 0;
  /// Ring-dead-until time of the recovery in progress; faults landing
  /// inside it are absorbed (the ring is already down).
  Seconds recovering_until_ = 0.0;
  /// Incremented whenever a fault destroys the circulating token; stale
  /// in-flight token hops compare their captured generation and abort.
  std::uint64_t token_generation_ = 0;
  /// Idle-lap fast-forward is legal for this run (async kNone, no trace
  /// sink, rotation stats off).
  bool hibernate_ok_ = false;
  /// Synchronous messages queued anywhere on the ring (hibernation gate).
  std::size_t total_queued_ = 0;
  /// Verdict-only run: stop the simulator at the first recorded miss.
  bool stop_at_miss_ = false;
};

}  // namespace tokenring::sim
