// Discrete-event simulation of the priority-driven protocol (IEEE 802.5
// with rate-monotonic priorities) — paper Section 4.1/4.2.
//
// Model:
//  * One frame occupies the medium at a time. A frame's effective medium
//    occupancy is max(frame time, Theta): when the frame is shorter than
//    the ring latency the sender must wait for its header (carrying the
//    reservation field) to return before arbitration can conclude.
//  * Arbitration: when the medium frees, the token goes to the station with
//    the highest-priority pending frame. Reservation collection is modelled
//    as instantaneous at release time (the returned header has circulated
//    the whole ring, so every station has bid); the token then physically
//    walks hop-by-hop from the releasing station to the winner. A winner
//    identical to the releaser costs a full ring rotation, so the average
//    token-circulation cost matches the analysis' Theta/2.
//  * Standard variant: a free token is issued after every frame. Modified
//    variant: the sender keeps transmitting back-to-back frames while it is
//    still the highest-priority active station.
//  * Asynchronous traffic (optional, saturating or Poisson): lowest
//    priority; an async frame wins the token only when no synchronous
//    frame is pending, and once started it blocks later sync arrivals
//    until it completes — the priority-inversion blocking the analysis
//    bounds with B = 2*max(F, Theta).
//  * Deadline-monotonic priorities per *stream* (tighter effective
//    deadline = higher priority; identical to rate-monotonic in the
//    paper's implicit-deadline model). The paper hosts one
//    stream per station; this simulator accepts any number per station —
//    a station always contends with the highest priority among its pending
//    messages, exactly as the reservation field does.
//
// Medium motion is lazy in this model. An idle ring schedules no events at
// all: the circulating free token's position is computed arithmetically
// when traffic appears (see maybe_capture_idle). A busy medium's one
// pending step (walk done, sync frame done or async frame done) is staged
// with Simulator::stage_at, which runs it inline while it fires strictly
// before every queued event. The frame-done handlers end in a run, a
// push-free tail of steps taken in place through Simulator::take_inline
// while each would fire next:
//  * sync run: after a sync frame, while its station is still the sync
//    winner, the next frames of the message it serves (modified: back to
//    back; standard: each after a full-lap walk), up to but not including
//    the message's last frame, which is staged so its done step records
//    the completion;
//  * async rotation: while no sync frame is pending, the walk to the next
//    async-ready station and that station's frame, again and again.
// A run step replays the step's own arithmetic (now() + effective per
// frame, now() + hops_time per walk), trace records and medium state; the
// first step the rule refuses is staged. Between queued events the
// arbitration winner cannot change, so it is cached. The event order,
// every metric and every trace record are those of one queued event per
// step (traced runs, faults, Poisson async, jitter and random phasing
// included).
//
// The simulator is a validation substrate: message sets accepted by
// Theorem 4.1 must complete every message by its deadline here under
// worst-case phasing and saturating async load.

#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "tokenring/common/rng.hpp"
#include "tokenring/fault/plan.hpp"
#include "tokenring/msg/message_set.hpp"
#include "tokenring/sim/config.hpp"
#include "tokenring/sim/simulator.hpp"

namespace tokenring::sim {

/// One PDP token-ring simulation run over a message set. Built via
/// make_simulator (config.hpp); uses config.pdp, ignores config.ttp/ttrt/
/// sync_bandwidth_per_stream/collect_rotation_stats.
class PdpSimulation final : public Simulation, private EventHandler {
 public:
  PdpSimulation(msg::MessageSet set, SimConfig config);

  /// Execute the run and return aggregate metrics.
  SimMetrics run() override { return simulate(/*stop_at_miss=*/false); }
  /// The same run, stopped at the first recorded miss.
  bool misses_a_deadline() override {
    return simulate(/*stop_at_miss=*/true).deadline_misses > 0;
  }

 private:
  struct PendingMessage {
    Seconds arrival = 0.0;
    Bits remaining = 0.0;
  };
  struct LocalStream {
    msg::SyncStream spec;
    int priority = 0;  // global DM rank; smaller = more urgent
    Seconds phase = 0.0;
    std::deque<PendingMessage> queue;
  };
  struct Station {
    std::vector<LocalStream> streams;
    std::int64_t async_pending = 0;  // queued async frames (Poisson model)
    bool alive = true;               // false while crashed (bypassed)
  };

  /// The one run body behind run() and misses_a_deadline().
  const SimMetrics& simulate(bool stop_at_miss);
  /// Typed-event dispatch (one switch over the PDP event kinds).
  void on_event(const Event& ev) override;

  void schedule_arrival(int station, std::size_t stream_idx, Seconds at);
  void on_arrival(int station, std::size_t stream_idx);
  /// Apply one fault from the plan with the 802.5 recovery model.
  void on_fault(const fault::FaultEvent& event);
  /// Kill the ring for `outage`, then re-arbitrate from the first alive
  /// station (destroys any in-flight frame/token via the generation bump).
  void ring_outage(fault::FaultKind kind, Seconds outage);
  void crash_station(int station);
  void rejoin_station(int station);
  /// Recompute Theta and the hop latency from the alive-station count
  /// (bypassed stations contribute no bit delay).
  void update_ring_timing();
  /// First alive station (recovery token holder); -1 when none remain.
  int first_alive() const;
  void schedule_async_arrival(int station);
  /// A station gained traffic while the ring may be idle: arrange capture.
  void maybe_capture_idle(int station);
  /// Index of the highest-priority (lowest-rank) stream with a pending
  /// message at `st`; st.streams.size() if none.
  std::size_t serving_stream(const Station& st) const;
  /// Recompute sync_winner_ from every station's pending streams.
  void refresh_sync_winner();
  /// Pick the station whose head frame should transmit next; sync first by
  /// priority (cached, see sync_winner_), else (per the async model) an
  /// async-ready station after `after`.
  std::optional<int> pick_winner(int after, bool& is_async);
  /// Medium became free at `station`: arbitrate and hand the token to the
  /// winner, or leave the medium idle. Runs the async rotation in place.
  void release_medium(int station);
  /// After a sync frame of `station` (its message's completion recorded):
  /// the sync run while `station` is still the sync winner, else
  /// release_medium. The one place that decides who keeps the medium.
  void send_message(int station);
  /// An async frame's last bit left `station`.
  void async_frame_sent(int station, Seconds effective);
  /// The token's walk from `from` to `winner`; returns its done step.
  Event token_walk(int from, int winner, bool is_async);
  /// Put `station`'s next frame (sync: of its highest-priority pending
  /// stream) on the medium and stage its done step.
  void start_frame(int station, bool is_async);
  /// Put the next frame of `station`'s stream `serve` on the medium;
  /// returns the frame's done step.
  Event sync_frame(int station, std::size_t serve);
  /// Put an async frame of `station` on the medium; returns its done step.
  Event async_frame(int station);
  Seconds hops_time(int from, int to) const;

  msg::MessageSet set_;
  SimConfig cfg_;
  Simulator sim_;
  SimMetrics metrics_;
  Rng rng_;
  std::vector<Station> stations_;
  /// Fault plan expanded once; kFault events carry an index into this.
  std::vector<fault::FaultEvent> fault_events_;
  int active_count_ = 0;
  Seconds theta_ = 0.0;
  Seconds hop_ = 0.0;
  Seconds token_time_ = 0.0;
  bool medium_busy_ = false;
  /// Station that last started a frame; arbitration restarts from here
  /// after a corrupted frame's wasted slot.
  int medium_station_ = 0;
  /// Ring-dead-until time of the recovery in progress; faults landing
  /// inside it are absorbed (the ring is already down).
  Seconds recovering_until_ = 0.0;
  // Idle-token bookkeeping (only reachable when async is not saturating).
  bool capture_pending_ = false;
  int idle_position_ = 0;
  Seconds idle_since_ = 0.0;
  /// Incremented whenever a fault destroys the in-flight token or frame;
  /// stale medium events (walks, frame completions, idle captures) compare
  /// their generation and abort.
  std::uint64_t token_generation_ = 0;
  /// Station holding the highest-priority pending sync frame (-1: none).
  /// Only a stream queue gaining or losing a message, or a station's alive
  /// flag flipping, can change it; those set winner_stale_.
  int sync_winner_ = -1;
  bool winner_stale_ = true;
  /// Verdict-only run: stop the simulator at the first recorded miss.
  bool stop_at_miss_ = false;
};

}  // namespace tokenring::sim
