#include "tokenring/sim/pdp_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tokenring/common/checks.hpp"
#include "tokenring/fault/recovery.hpp"

namespace tokenring::sim {

namespace {
// Completion within this slack of the deadline still counts as met; guards
// against accumulated floating-point noise in long runs.
constexpr Seconds kDeadlineSlack = 1e-12;

// Whether a frame of `chunk` bits is the last of a message with
// `remaining` bits left. The slack absorbs the floating-point residue of
// the per-frame subtraction. The one last-frame test of the sync run and
// the frame-done step.
bool completes(Bits remaining, Bits chunk) {
  return remaining - chunk <= 1e-9;
}
}  // namespace

PdpSimulation::PdpSimulation(msg::MessageSet set, SimConfig config)
    : set_(std::move(set)), cfg_(std::move(config)), rng_(cfg_.seed) {
  cfg_.pdp.validate();
  set_.validate();
  TR_EXPECTS(cfg_.bandwidth > 0.0);
  TR_EXPECTS(cfg_.horizon > 0.0);
  if (cfg_.async_model == AsyncModel::kPoisson) {
    TR_EXPECTS_MSG(cfg_.async_frames_per_second > 0.0,
                   "Poisson async model needs a positive rate");
  }
  TR_EXPECTS(cfg_.arrival_jitter >= 0.0);

  const int n = cfg_.pdp.ring.num_stations;
  cfg_.faults.validate(n);
  stations_.resize(static_cast<std::size_t>(n));
  active_count_ = n;

  // Deadline-monotonic priorities across all streams (= rate-monotonic
  // under the paper's implicit deadlines): tighter deadline = higher
  // priority (smaller rank); ties broken by set order, matching the
  // analysis' stable-sort convention.
  std::vector<std::size_t> order(set_.size());
  for (std::size_t i = 0; i < set_.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return set_[a].deadline() < set_[b].deadline();
                   });
  std::vector<int> rank(set_.size());
  for (std::size_t r = 0; r < order.size(); ++r) {
    rank[order[r]] = static_cast<int>(r);
  }

  for (std::size_t i = 0; i < set_.size(); ++i) {
    const auto& s = set_[i];
    TR_EXPECTS_MSG(s.station >= 0 && s.station < n,
                   "stream station out of ring range");
    LocalStream local;
    local.spec = s;
    local.priority = rank[i];
    stations_[static_cast<std::size_t>(s.station)].streams.push_back(local);
  }

  token_time_ = cfg_.pdp.ring.token_time(cfg_.bandwidth);
  update_ring_timing();
  sim_.set_handler(this);
}

void PdpSimulation::update_ring_timing() {
  // Bypassed (crashed) stations contribute no ring/buffer bit delay; the
  // cable and the hop positions remain, so the walk shortens only by the
  // dead stations' latencies.
  const auto& ring = cfg_.pdp.ring;
  const Seconds walk =
      ring.propagation_delay() + static_cast<double>(active_count_) *
                                     ring.per_station_bit_delay /
                                     cfg_.bandwidth;
  theta_ = walk + token_time_;
  hop_ = walk / static_cast<double>(ring.num_stations);
}

int PdpSimulation::first_alive() const {
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (stations_[i].alive) return static_cast<int>(i);
  }
  return -1;
}

Seconds PdpSimulation::hops_time(int from, int to) const {
  int hops = to - from;  // 1..n downstream (self = a full lap, n)
  if (hops <= 0) hops += cfg_.pdp.ring.num_stations;
  return static_cast<double>(hops) * hop_ + token_time_;
}

void PdpSimulation::on_event(const Event& ev) {
  switch (ev.kind) {
    case EventKind::kPdpArrival:
      on_arrival(ev.station, static_cast<std::size_t>(ev.index));
      return;
    case EventKind::kPdpAsyncArrival: {
      auto& st = stations_[static_cast<std::size_t>(ev.station)];
      if (st.alive) ++st.async_pending;
      schedule_async_arrival(ev.station);
      if (st.alive) maybe_capture_idle(ev.station);
      return;
    }
    case EventKind::kPdpIdleCapture: {
      if (ev.gen != token_generation_) return;  // token destroyed mid-walk
      capture_pending_ = false;
      // Arbitrate among everything pending now (the walk collected bids).
      bool is_async = false;
      const auto winner = pick_winner(ev.station, is_async);
      if (winner) {
        start_frame(*winner, is_async);
      } else {
        medium_busy_ = false;
        idle_position_ = ev.station;
        idle_since_ = sim_.now();
      }
      return;
    }
    case EventKind::kRecovery: {
      if (ev.gen != token_generation_) return;  // superseded by newer fault
      const int resume = first_alive();
      if (resume < 0) return;  // every station crashed: the ring stays dark
      release_medium(resume);
      return;
    }
    case EventKind::kCorruptionRetry:
      if (ev.gen != token_generation_) return;
      release_medium(medium_station_);
      return;
    case EventKind::kPdpWalkDone:
      if (ev.gen != token_generation_) return;
      start_frame(ev.station, ev.index != 0);
      return;
    case EventKind::kPdpAsyncFrameDone:
      if (ev.gen != token_generation_) return;  // frame destroyed in flight
      async_frame_sent(ev.station, ev.value);
      release_medium(ev.station);
      return;
    case EventKind::kPdpSyncFrameDone: {
      if (ev.gen != token_generation_) return;  // frame destroyed in flight
      const int station = ev.station;
      auto& local = stations_[static_cast<std::size_t>(station)]
                        .streams[static_cast<std::size_t>(ev.index)];
      auto& msg = local.queue.front();
      if (completes(msg.remaining, ev.value)) {
        const Seconds response = sim_.now() - msg.arrival;
        const Seconds deadline = local.spec.deadline();
        metrics_.on_completion(station, msg.arrival, response,
                               local.spec.period, deadline, kDeadlineSlack);
        emit(cfg_.trace, sim_.now(), TraceEventKind::kMessageComplete,
             station, response);
        if (response > deadline + kDeadlineSlack) {
          emit(cfg_.trace, sim_.now(), TraceEventKind::kDeadlineMiss, station,
               response);
          if (stop_at_miss_) sim_.stop();
        }
        local.queue.pop_front();
        winner_stale_ = true;
      } else {
        msg.remaining -= ev.value;  // the frame's chunk [bits]
      }
      send_message(station);
      return;
    }
    case EventKind::kFault:
      on_fault(fault_events_[static_cast<std::size_t>(ev.index)]);
      return;
    case EventKind::kKickoff:
      if (ev.gen != token_generation_) return;  // a fault at t=0 beat us
      if (cfg_.async_model == AsyncModel::kSaturating) {
        start_frame(ev.station, /*is_async=*/true);
      } else {
        release_medium(ev.station);
      }
      return;
    case EventKind::kUser:
    case EventKind::kTtpTokenHop:
      TR_EXPECTS_MSG(false, "event kind not handled by the PDP simulator");
      return;
  }
}

void PdpSimulation::schedule_arrival(int station, std::size_t stream_idx,
                                     Seconds at) {
  if (at > cfg_.horizon) return;
  Event ev;
  ev.kind = EventKind::kPdpArrival;
  ev.station = station;
  ev.index = static_cast<std::int32_t>(stream_idx);
  sim_.schedule_at(at, ev);
}

void PdpSimulation::schedule_async_arrival(int station) {
  const Seconds at =
      sim_.now() + rng_.exponential(1.0 / cfg_.async_frames_per_second);
  if (at > cfg_.horizon) return;
  Event ev;
  ev.kind = EventKind::kPdpAsyncArrival;
  ev.station = station;
  sim_.schedule_at(at, ev);
}

void PdpSimulation::on_arrival(int station, std::size_t stream_idx) {
  auto& st = stations_[static_cast<std::size_t>(station)];
  auto& local = st.streams[stream_idx];
  // A crashed station's host generates nothing; the release cadence keeps
  // ticking (and keeps consuming jitter draws) so the stream resumes on
  // its own phase after a rejoin.
  if (st.alive) {
    local.queue.push_back(
        PendingMessage{sim_.now(), local.spec.payload_bits});
    winner_stale_ = true;
    metrics_.on_release(station);
    metrics_.on_queue_depth(local.queue.size());
    emit(cfg_.trace, sim_.now(), TraceEventKind::kMessageArrival, station,
         local.spec.payload_bits);
  }
  Seconds gap = local.spec.period;
  if (cfg_.arrival_jitter > 0.0) {
    gap += rng_.uniform(0.0, cfg_.arrival_jitter) * local.spec.period;
  }
  schedule_arrival(station, stream_idx, sim_.now() + gap);
  if (st.alive) maybe_capture_idle(station);
}

void PdpSimulation::maybe_capture_idle(int station) {
  // If the medium is idle, the free token is circulating at one hop per
  // hop-latency (idle stations just repeat it): capture it when it next
  // passes here, paying one token transmission for the capture/release.
  // No events circulate on an idle ring: the token position is pure
  // arithmetic.
  if (medium_busy_ || capture_pending_) return;
  const int n = cfg_.pdp.ring.num_stations;
  const Seconds lap = static_cast<double>(n) * hop_;
  const Seconds elapsed = sim_.now() - idle_since_;
  const auto hops_done = static_cast<std::int64_t>(std::floor(elapsed / hop_));
  const int pos = static_cast<int>(
      (static_cast<std::int64_t>(idle_position_) + hops_done) %
      static_cast<std::int64_t>(n));
  const Seconds pos_time = idle_since_ + static_cast<double>(hops_done) * hop_;
  const int dist = ((station - pos) % n + n) % n;
  Seconds capture = pos_time + static_cast<double>(dist) * hop_ + token_time_;
  if (capture < sim_.now()) capture += lap;  // just missed this pass
  medium_busy_ = true;
  capture_pending_ = true;
  Event ev;
  ev.kind = EventKind::kPdpIdleCapture;
  ev.station = station;
  ev.gen = token_generation_;
  sim_.schedule_at(capture, ev);
}

void PdpSimulation::ring_outage(fault::FaultKind kind, Seconds outage) {
  ++token_generation_;
  medium_busy_ = true;  // the ring is dead until recovery completes
  capture_pending_ = false;
  const Seconds now = sim_.now();
  recovering_until_ = std::max(recovering_until_, now + outage);
  metrics_.on_fault(kind, now, now + outage);
  Event ev;
  ev.kind = EventKind::kRecovery;
  ev.gen = token_generation_;
  sim_.schedule_in(outage, ev);
}

void PdpSimulation::crash_station(int station) {
  auto& st = stations_[static_cast<std::size_t>(station)];
  if (!st.alive) {  // already down: nothing further to break
    metrics_.on_fault(fault::FaultKind::kStationCrash, sim_.now(), sim_.now());
    return;
  }
  st.alive = false;
  st.async_pending = 0;
  winner_stale_ = true;
  --active_count_;
  update_ring_timing();
  // The break is detected by the downstream neighbour's beacon; the fault
  // domain is bypassed and the monitor purges. Record the outage before
  // abandoning the station's queue so those misses attribute to the crash.
  ring_outage(fault::FaultKind::kStationCrash,
              fault::pdp_beacon_outage(cfg_.pdp, cfg_.bandwidth));
  for (auto& local : st.streams) {
    for (const auto& m : local.queue) {
      if (m.arrival + local.spec.deadline() <= cfg_.horizon) {
        metrics_.on_abandoned_miss(station, m.arrival, local.spec.deadline());
        if (stop_at_miss_) sim_.stop();
      }
    }
    local.queue.clear();
  }
}

void PdpSimulation::rejoin_station(int station) {
  auto& st = stations_[static_cast<std::size_t>(station)];
  if (st.alive) {  // never crashed (or already back): nothing to insert
    metrics_.on_fault(fault::FaultKind::kStationRejoin, sim_.now(),
                      sim_.now());
    return;
  }
  st.alive = true;
  winner_stale_ = true;
  ++active_count_;
  update_ring_timing();
  // Ring insertion disrupts the ring like a break: beacon + purge again.
  ring_outage(fault::FaultKind::kStationRejoin,
              fault::pdp_beacon_outage(cfg_.pdp, cfg_.bandwidth));
}

void PdpSimulation::on_fault(const fault::FaultEvent& event) {
  const Seconds now = sim_.now();
  switch (event.kind) {
    case fault::FaultKind::kTokenLoss:
      ring_outage(event.kind,
                  fault::pdp_monitor_outage(cfg_.pdp, cfg_.bandwidth));
      return;
    case fault::FaultKind::kNoiseBurst:
      // The noise destroys whatever was in flight and jams the medium for
      // its duration; the monitor can only start recovering once it clears.
      ring_outage(event.kind,
                  event.duration +
                      fault::pdp_monitor_outage(cfg_.pdp, cfg_.bandwidth));
      return;
    case fault::FaultKind::kDuplicateToken:
      ring_outage(event.kind,
                  fault::pdp_duplicate_outage(cfg_.pdp, cfg_.bandwidth));
      return;
    case fault::FaultKind::kFrameCorruption: {
      if (now < recovering_until_ || !medium_busy_) {
        // Nothing valid in flight to corrupt (idle medium, or the ring is
        // already down recovering): the fault is absorbed.
        metrics_.on_fault(event.kind, now, now);
        return;
      }
      // The frame in flight fails its FCS; its slot is wasted, the sender
      // retransmits (the chunk stays queued because the generation bump
      // aborts the in-flight completion event).
      ++token_generation_;
      capture_pending_ = false;
      medium_busy_ = true;
      const Seconds outage =
          fault::pdp_corruption_outage(cfg_.pdp, cfg_.bandwidth);
      recovering_until_ = std::max(recovering_until_, now + outage);
      metrics_.on_fault(event.kind, now, now + outage);
      Event ev;
      ev.kind = EventKind::kCorruptionRetry;
      ev.gen = token_generation_;
      sim_.schedule_in(outage, ev);
      return;
    }
    case fault::FaultKind::kStationCrash:
      crash_station(event.station);
      return;
    case fault::FaultKind::kStationRejoin:
      rejoin_station(event.station);
      return;
  }
}

std::size_t PdpSimulation::serving_stream(const Station& st) const {
  std::size_t best = st.streams.size();
  for (std::size_t i = 0; i < st.streams.size(); ++i) {
    if (!st.streams[i].queue.empty() &&
        (best == st.streams.size() ||
         st.streams[i].priority < st.streams[best].priority)) {
      best = i;
    }
  }
  return best;
}

void PdpSimulation::refresh_sync_winner() {
  sync_winner_ = -1;
  int best_priority = std::numeric_limits<int>::max();
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    const Station& st = stations_[i];
    if (!st.alive) continue;
    const std::size_t serve = serving_stream(st);
    if (serve < st.streams.size() &&
        st.streams[serve].priority < best_priority) {
      best_priority = st.streams[serve].priority;
      sync_winner_ = static_cast<int>(i);
    }
  }
  winner_stale_ = false;
}

std::optional<int> PdpSimulation::pick_winner(int after, bool& is_async) {
  // Highest-priority pending synchronous frame wins; the tie-break is
  // already encoded in the global priority ranks.
  if (winner_stale_) refresh_sync_winner();
  if (sync_winner_ >= 0) {
    is_async = false;
    return sync_winner_;
  }
  if (cfg_.async_model == AsyncModel::kNone) return std::nullopt;
  // First alive station downstream of `after` (itself last) with an async
  // frame ready: every one under the saturating model, one with a queued
  // frame under the Poisson model.
  const int n = cfg_.pdp.ring.num_stations;
  int candidate = after;
  for (int d = 0; d < n; ++d) {
    if (++candidate == n) candidate = 0;
    const auto& st = stations_[static_cast<std::size_t>(candidate)];
    if (st.alive && (cfg_.async_model == AsyncModel::kSaturating ||
                     st.async_pending > 0)) {
      is_async = true;
      return candidate;
    }
  }
  return std::nullopt;
}

void PdpSimulation::release_medium(int station) {
  for (;;) {
    bool is_async = false;
    const auto winner = pick_winner(station, is_async);
    if (!winner) {
      medium_busy_ = false;
      idle_position_ = station;
      idle_since_ = sim_.now();
      return;
    }
    // The async rotation: while no sync frame is pending, the walk to the
    // next async-ready station and that station's frame run in place.
    const Event walk = token_walk(station, *winner, is_async);
    if (!is_async || !sim_.take_inline(walk.at)) {
      sim_.stage_at(walk.at, walk);
      return;
    }
    const Event done = async_frame(*winner);
    if (!sim_.take_inline(done.at)) {
      sim_.stage_at(done.at, done);
      return;
    }
    async_frame_sent(*winner, done.value);
    station = *winner;
  }
}

void PdpSimulation::send_message(int station) {
  // `station` keeps the medium only while it is the sync winner (a
  // station with nothing pending may still be the async one).
  bool is_async = false;
  if (pick_winner(station, is_async) != station || is_async) {
    release_medium(station);
    return;
  }
  // The sync run: no queued event fires inside it, so `station` stays the
  // winner and serves one stream. Modified 802.5 keeps the token between
  // frames; standard 802.5 releases it and wins it back after a full lap.
  // The stream is picked here, not taken from the frame that just ended:
  // that message may be complete, and a higher-priority stream of
  // `station` may have released during the frame.
  auto& st = stations_[static_cast<std::size_t>(station)];
  const std::size_t serve = serving_stream(st);
  auto& msg = st.streams[serve].queue.front();
  const bool lap = cfg_.pdp.variant == analysis::PdpVariant::kStandard8025;
  for (;;) {
    if (lap) {
      const Event walk = token_walk(station, station, /*is_async=*/false);
      if (!sim_.take_inline(walk.at)) {
        sim_.stage_at(walk.at, walk);
        return;
      }
    }
    const Event done = sync_frame(station, serve);
    // The message's last frame is staged: its done step records the
    // completion.
    if (completes(msg.remaining, done.value) || !sim_.take_inline(done.at)) {
      sim_.stage_at(done.at, done);
      return;
    }
    msg.remaining -= done.value;
  }
}

void PdpSimulation::async_frame_sent(int station, Seconds effective) {
  ++metrics_.async_frames_sent;
  if (cfg_.async_model == AsyncModel::kPoisson) {
    --stations_[static_cast<std::size_t>(station)].async_pending;
  }
  emit(cfg_.trace, sim_.now(), TraceEventKind::kAsyncFrame, station,
       effective);
}

Event PdpSimulation::token_walk(int from, int winner, bool is_async) {
  medium_busy_ = true;
  Event walk;
  walk.at = sim_.now() + hops_time(from, winner);
  walk.kind = EventKind::kPdpWalkDone;
  walk.station = winner;
  walk.index = is_async ? 1 : 0;
  walk.gen = token_generation_;
  return walk;
}

void PdpSimulation::start_frame(int station, bool is_async) {
  Event done;
  if (is_async) {
    done = async_frame(station);
  } else {
    const Station& st = stations_[static_cast<std::size_t>(station)];
    const std::size_t serve = serving_stream(st);
    TR_EXPECTS_MSG(serve < st.streams.size(),
                   "start_frame on a station with nothing pending");
    done = sync_frame(station, serve);
  }
  sim_.stage_at(done.at, done);
}

Event PdpSimulation::sync_frame(int station, std::size_t serve) {
  medium_busy_ = true;
  medium_station_ = station;
  const auto& frame = cfg_.pdp.frame;
  const auto& head = stations_[static_cast<std::size_t>(station)]
                         .streams[serve]
                         .queue.front();
  const Bits chunk = std::min(head.remaining, frame.info_bits);
  const Seconds frame_time =
      transmission_time(chunk + frame.overhead_bits, cfg_.bandwidth);
  const Seconds effective = std::max(frame_time, theta_);
  emit(cfg_.trace, sim_.now(), TraceEventKind::kSyncFrameStart, station,
       effective);
  Event done;
  done.at = sim_.now() + effective;
  done.kind = EventKind::kPdpSyncFrameDone;
  done.station = station;
  done.index = static_cast<std::int32_t>(serve);
  done.gen = token_generation_;
  done.value = chunk;
  return done;
}

Event PdpSimulation::async_frame(int station) {
  medium_busy_ = true;
  medium_station_ = station;
  const Seconds effective =
      std::max(cfg_.pdp.frame.frame_time(cfg_.bandwidth), theta_);
  Event done;
  done.at = sim_.now() + effective;
  done.kind = EventKind::kPdpAsyncFrameDone;
  done.station = station;
  done.gen = token_generation_;
  done.value = effective;
  return done;
}

const SimMetrics& PdpSimulation::simulate(bool stop_at_miss) {
  start_run();
  stop_at_miss_ = stop_at_miss;
  sim_.set_max_events(cfg_.max_events != 0 ? cfg_.max_events
                                           : kDefaultMaxSimEvents);
  // Phasing: worst case releases everything at the critical instant t=0;
  // otherwise phases are uniform in [0, P_i).
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    auto& st = stations_[i];
    for (std::size_t k = 0; k < st.streams.size(); ++k) {
      auto& local = st.streams[k];
      local.phase = cfg_.worst_case_phasing
                        ? 0.0
                        : rng_.uniform(0.0, local.spec.period);
      schedule_arrival(static_cast<int>(i), k, local.phase);
    }
  }
  if (cfg_.async_model == AsyncModel::kPoisson) {
    for (std::size_t i = 0; i < stations_.size(); ++i) {
      schedule_async_arrival(static_cast<int>(i));
    }
  }

  fault_events_ = cfg_.faults.sorted_events();
  for (std::size_t i = 0; i < fault_events_.size(); ++i) {
    Event ev;
    ev.kind = EventKind::kFault;
    ev.index = static_cast<std::int32_t>(i);
    sim_.schedule_at(fault_events_[i].time, ev);
  }

  // Kick off the medium. With saturating async an async frame starts
  // immediately at the last station — under worst-case phasing this is the
  // priority-inversion blocking of Lemma 4.1 (sync frames queued at t=0
  // must wait for a lower-priority frame already committed).
  const int kickoff = cfg_.pdp.ring.num_stations - 1;
  medium_busy_ = true;
  Event ev;
  ev.kind = EventKind::kKickoff;
  ev.station = kickoff;
  ev.gen = token_generation_;
  sim_.schedule_at(0.0, ev);

  sim_.run_until(cfg_.horizon);

  // Messages whose deadline passed while still incomplete count as misses
  // (a verdict-only run that stopped early already has its verdict).
  for (std::size_t i = 0; i < stations_.size() && !sim_.stopped(); ++i) {
    for (const auto& local : stations_[i].streams) {
      for (const auto& m : local.queue) {
        if (m.arrival + local.spec.deadline() <= cfg_.horizon) {
          metrics_.on_abandoned_miss(static_cast<int>(i), m.arrival,
                                     local.spec.deadline());
        }
      }
    }
  }
  record_run_observability(metrics_, sim_.events_executed());
  return metrics_;
}

}  // namespace tokenring::sim
