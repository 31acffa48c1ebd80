#include "tokenring/sim/ttp_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tokenring/common/checks.hpp"
#include "tokenring/fault/recovery.hpp"

namespace tokenring::sim {

namespace {
constexpr Seconds kDeadlineSlack = 1e-12;
}  // namespace

TtpSimulation::TtpSimulation(msg::MessageSet set, SimConfig config)
    : set_(std::move(set)), cfg_(std::move(config)), rng_(cfg_.seed) {
  cfg_.ttp.validate();
  set_.validate();
  TR_EXPECTS(cfg_.bandwidth > 0.0);
  TR_EXPECTS(cfg_.ttrt > 0.0);
  TR_EXPECTS(cfg_.horizon > 0.0);
  if (cfg_.async_model == AsyncModel::kPoisson) {
    TR_EXPECTS_MSG(cfg_.async_frames_per_second > 0.0,
                   "Poisson async model needs a positive rate");
  }
  TR_EXPECTS(cfg_.arrival_jitter >= 0.0);

  const int n = cfg_.ttp.ring.num_stations;
  cfg_.faults.validate(n);
  TR_EXPECTS_MSG(
      cfg_.sync_bandwidth_per_stream.size() == set_.size(),
      "sync_bandwidth_per_stream must align with the message set's streams");

  stations_.resize(static_cast<std::size_t>(n));
  active_count_ = n;
  for (std::size_t i = 0; i < set_.size(); ++i) {
    const auto& s = set_[i];
    TR_EXPECTS_MSG(s.station >= 0 && s.station < n,
                   "stream station out of ring range");
    TR_EXPECTS(cfg_.sync_bandwidth_per_stream[i] >= 0.0);
    LocalStream local;
    local.spec = s;
    local.h = cfg_.sync_bandwidth_per_stream[i];
    stations_[static_cast<std::size_t>(s.station)].streams.push_back(local);
  }

  token_time_ = cfg_.ttp.ring.token_time(cfg_.bandwidth);
  f_ovhd_ = cfg_.ttp.frame.overhead_time(cfg_.bandwidth);
  f_async_ = cfg_.ttp.async_frame.frame_time(cfg_.bandwidth);
  update_ring_timing();

  // Idle-lap fast-forward replaces a chain of per-visit adds with one
  // multiply, so it is reserved for runs that opted out of exact rotation
  // statistics and have nothing observable happening on an idle lap.
  hibernate_ok_ = !cfg_.collect_rotation_stats &&
                  cfg_.async_model == AsyncModel::kNone &&
                  cfg_.trace == nullptr;

  sim_.set_handler(this);
}

void TtpSimulation::update_ring_timing() {
  // Bypassed stations contribute no ring-interface bit delay; the cable
  // and hop positions remain.
  const auto& ring = cfg_.ttp.ring;
  const Seconds walk =
      ring.propagation_delay() + static_cast<double>(active_count_) *
                                     ring.per_station_bit_delay /
                                     cfg_.bandwidth;
  hop_ = walk / static_cast<double>(ring.num_stations);
}

int TtpSimulation::first_alive() const {
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (stations_[i].alive) return static_cast<int>(i);
  }
  return -1;
}

void TtpSimulation::on_event(const Event& ev) {
  switch (ev.kind) {
    case EventKind::kTtpTokenHop:
      on_token_arrival(ev.station, ev.gen);
      return;
    case EventKind::kFault:
      on_fault(fault_events_[static_cast<std::size_t>(ev.index)]);
      return;
    case EventKind::kRecovery: {
      if (ev.gen != token_generation_) return;  // superseded by newer fault
      const int resume = first_alive();
      if (resume < 0) return;  // every station crashed: the ring stays dark
      // Ring re-initialization: every rotation timer restarts and the
      // claim winner issues a fresh token.
      for (auto& st : stations_) st.trt_expiry = sim_.now() + cfg_.ttrt;
      next_station_ = resume;
      on_token_arrival(resume, token_generation_);
      return;
    }
    case EventKind::kCorruptionRetry:
      if (ev.gen != token_generation_) return;
      on_token_arrival(next_station_, token_generation_);
      return;
    case EventKind::kKickoff:
      on_token_arrival(0, ev.gen);
      return;
    case EventKind::kUser:
    case EventKind::kPdpArrival:
    case EventKind::kPdpAsyncArrival:
    case EventKind::kPdpIdleCapture:
    case EventKind::kPdpWalkDone:
    case EventKind::kPdpSyncFrameDone:
    case EventKind::kPdpAsyncFrameDone:
      TR_EXPECTS_MSG(false, "event kind not handled by the TTP simulator");
      return;
  }
}

Event TtpSimulation::pass_token(int next, Seconds delay) {
  next_station_ = next;
  Seconds at = sim_.now() + delay;

  // Idle-lap fast-forward: once per lap (at the wrap to station 0), if no
  // message is queued anywhere, skip whole laps until just before the next
  // release (or past the horizon). Pending fault events are unaffected:
  // they fire first, and their generation bump makes this hop stale.
  if (hibernate_ok_ && next == 0 && total_queued_ == 0) {
    Seconds next_wake = std::numeric_limits<Seconds>::infinity();
    for (const auto& st : stations_) {
      if (!st.alive) continue;
      for (const auto& local : st.streams) {
        next_wake = std::min(next_wake, local.next_release);
      }
    }
    const Seconds lap =
        static_cast<double>(cfg_.ttp.ring.num_stations) * hop_ + token_time_;
    if (lap > 0.0) {
      double laps;
      if (next_wake > cfg_.horizon) {
        // Nothing left to serve: jump past the horizon and end the run.
        laps = std::floor((cfg_.horizon - at) / lap) + 1.0;
      } else {
        laps = std::floor((next_wake - at) / lap);
      }
      if (laps > 0.0) at += laps * lap;
    }
  }

  Event hop;
  hop.at = at;
  hop.kind = EventKind::kTtpTokenHop;
  hop.station = next;
  hop.gen = token_generation_;
  return hop;
}

void TtpSimulation::materialize_arrivals(int station, Station& st,
                                         Seconds now, bool enqueue) {
  for (auto& local : st.streams) {
    while (local.next_release <= now && local.next_release <= cfg_.horizon) {
      if (enqueue) {
        local.queue.push_back(
            PendingMessage{local.next_release, local.spec.payload_bits});
        ++total_queued_;
        metrics_.on_release(station);
        metrics_.on_queue_depth(local.queue.size());
        emit(cfg_.trace, local.next_release, TraceEventKind::kMessageArrival,
             station, local.spec.payload_bits);
      }
      local.next_release += local.spec.period;
      if (cfg_.arrival_jitter > 0.0) {
        local.next_release +=
            rng_.uniform(0.0, cfg_.arrival_jitter) * local.spec.period;
      }
    }
  }
  if (cfg_.async_model == AsyncModel::kPoisson) {
    while (st.next_async_arrival <= now) {
      if (enqueue) ++st.async_pending;
      st.next_async_arrival +=
          rng_.exponential(1.0 / cfg_.async_frames_per_second);
    }
  }
}

Seconds TtpSimulation::serve_stream(int station, LocalStream& stream,
                                    Seconds offset) {
  const Seconds budget = stream.h;
  Seconds used = 0.0;
  // Each chunk of one message sent in this visit is one frame: it pays the
  // frame overhead and must fit in the stream's remaining budget.
  while (!stream.queue.empty() && budget - used > f_ovhd_) {
    auto& head = stream.queue.front();
    const Seconds payload_budget = budget - used - f_ovhd_;
    const Seconds payload_needed =
        transmission_time(head.remaining, cfg_.bandwidth);
    const Seconds sent = std::min(payload_needed, payload_budget);
    if (sent <= 0.0) break;
    used += sent + f_ovhd_;
    head.remaining -= sent * cfg_.bandwidth;
    // Completion threshold scales with the message: time<->bits round trips
    // accumulate relative rounding across hundreds of visits, and a
    // sub-bit residue must not cost a whole extra token rotation.
    const Bits completion_slack = 1e-9 + 1e-12 * stream.spec.payload_bits;
    if (head.remaining <= completion_slack) {
      const Seconds completion = sim_.now() + offset + used;
      const Seconds response = completion - head.arrival;
      const Seconds deadline = stream.spec.deadline();
      metrics_.on_completion(station, head.arrival, response,
                             stream.spec.period, deadline, kDeadlineSlack);
      emit(cfg_.trace, completion, TraceEventKind::kMessageComplete, station,
           response);
      if (response > deadline + kDeadlineSlack) {
        emit(cfg_.trace, completion, TraceEventKind::kDeadlineMiss, station,
             response);
        if (stop_at_miss_) sim_.stop();
      }
      stream.queue.pop_front();
      --total_queued_;
    } else {
      break;  // budget exhausted mid-message
    }
  }
  return used;
}

void TtpSimulation::ring_outage(fault::FaultKind kind, Seconds outage) {
  // Destroy the circulating token: stale token hops abort via generation.
  ++token_generation_;
  const Seconds now = sim_.now();
  recovering_until_ = std::max(recovering_until_, now + outage);
  metrics_.on_fault(kind, now, now + outage);
  Event ev;
  ev.kind = EventKind::kRecovery;
  ev.gen = token_generation_;
  sim_.schedule_in(outage, ev);
}

void TtpSimulation::crash_station(int station) {
  auto& st = stations_[static_cast<std::size_t>(station)];
  if (!st.alive) {  // already down: nothing further to break
    metrics_.on_fault(fault::FaultKind::kStationCrash, sim_.now(), sim_.now());
    return;
  }
  const Seconds now = sim_.now();
  // Messages already released (even if not yet lazily materialized) die
  // with the station's buffers.
  materialize_arrivals(station, st, now, /*enqueue=*/true);
  st.alive = false;
  st.async_pending = 0;
  --active_count_;
  update_ring_timing();
  // Record the outage before abandoning the queue so those misses
  // attribute to the crash.
  ring_outage(fault::FaultKind::kStationCrash,
              fault::ttp_reconfiguration_outage(cfg_.ttp, cfg_.bandwidth));
  for (auto& local : st.streams) {
    for (const auto& m : local.queue) {
      if (m.arrival + local.spec.deadline() <= cfg_.horizon) {
        metrics_.on_abandoned_miss(station, m.arrival, local.spec.deadline());
        if (stop_at_miss_) sim_.stop();
      }
    }
    total_queued_ -= local.queue.size();
    local.queue.clear();
  }
}

void TtpSimulation::rejoin_station(int station) {
  auto& st = stations_[static_cast<std::size_t>(station)];
  if (st.alive) {  // never crashed (or already back): nothing to insert
    metrics_.on_fault(fault::FaultKind::kStationRejoin, sim_.now(),
                      sim_.now());
    return;
  }
  // Releases that fell inside the downtime never happened for the dead
  // host; advance the cadence past them without queueing.
  materialize_arrivals(station, st, sim_.now(), /*enqueue=*/false);
  st.alive = true;
  ++active_count_;
  update_ring_timing();
  // Ring insertion disrupts the ring like a break: claim recovery again.
  ring_outage(fault::FaultKind::kStationRejoin,
              fault::ttp_reconfiguration_outage(cfg_.ttp, cfg_.bandwidth));
}

void TtpSimulation::on_fault(const fault::FaultEvent& event) {
  const Seconds now = sim_.now();
  switch (event.kind) {
    case fault::FaultKind::kTokenLoss:
      ring_outage(event.kind, fault::ttp_token_loss_outage(
                                  cfg_.ttp, cfg_.bandwidth, cfg_.ttrt));
      return;
    case fault::FaultKind::kNoiseBurst:
      // The noise destroys the token (or whatever frame carried it) and
      // jams the medium for its duration before detection can even start.
      ring_outage(event.kind,
                  event.duration + fault::ttp_token_loss_outage(
                                       cfg_.ttp, cfg_.bandwidth, cfg_.ttrt));
      return;
    case fault::FaultKind::kDuplicateToken:
      ring_outage(event.kind, fault::ttp_duplicate_outage(cfg_.ttp,
                                                          cfg_.bandwidth));
      return;
    case fault::FaultKind::kFrameCorruption: {
      if (now < recovering_until_) {
        // The ring is already down recovering: the fault is absorbed.
        metrics_.on_fault(event.kind, now, now);
        return;
      }
      // One frame's slot is wasted; the sender sees the bad FCS on the
      // returning frame and retransmits within the penalty. Modelled as the
      // visit in progress being re-run: the token re-appears where it was
      // heading after one max-size frame of wasted medium time. Payload
      // already marked delivered in that visit stays delivered — the
      // retransmission is exactly the wasted slot.
      ++token_generation_;
      const Seconds penalty =
          fault::ttp_corruption_outage(cfg_.ttp, cfg_.bandwidth);
      recovering_until_ = std::max(recovering_until_, now + penalty);
      metrics_.on_fault(event.kind, now, now + penalty);
      Event ev;
      ev.kind = EventKind::kCorruptionRetry;
      ev.gen = token_generation_;
      sim_.schedule_in(penalty, ev);
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

void TtpSimulation::on_token_arrival(int station, std::uint64_t generation) {
  if (generation != token_generation_) return;  // token was destroyed
  // The walk's push-free tail: each visit ends by handing the token on,
  // and the next visit runs in place while it would fire next.
  Event hop = visit(station);
  while (sim_.take_inline(hop.at)) hop = visit(hop.station);
  sim_.stage_at(hop.at, hop);
}

Event TtpSimulation::visit(int station) {
  auto& st = stations_[static_cast<std::size_t>(station)];
  const Seconds now = sim_.now();
  const int next = (station + 1) % cfg_.ttp.ring.num_stations;
  const Seconds wrap = next == 0 ? token_time_ : 0.0;

  // A crashed station is bypassed: the token repeats straight through (its
  // interface delay already left the hop latency via update_ring_timing).
  if (!st.alive) return pass_token(next, hop_ + wrap);

  // Rotation metrics. Skipping them (collect_rotation_stats = false) is
  // what licenses the idle-lap fast-forward: a skipped lap can no longer
  // perturb the recorded gap distribution.
  if (cfg_.collect_rotation_stats && st.last_visit >= 0.0) {
    const Seconds gap = now - st.last_visit;
    max_intervisit_ = std::max(max_intervisit_, gap);
    if (station == 0) metrics_.token_rotation.add(gap);
  }
  st.last_visit = now;

  materialize_arrivals(station, st, now, /*enqueue=*/true);

  // Timer rules (see file comment). Expiry is evaluated lazily at token
  // arrival: an arrival past trt_expiry is exactly the "Late_Ct was set at
  // expiry and clears now" case of the standard.
  Seconds async_budget = 0.0;
  if (now < st.trt_expiry) {
    // Early token: earliness funds async; TRT restarts.
    async_budget = st.trt_expiry - now;
    st.trt_expiry = now + cfg_.ttrt;
  } else {
    // Late token: no async this visit; TRT restarted at the expiry instant
    // (so the next visit's earliness is measured against expiry + TTRT).
    st.trt_expiry += cfg_.ttrt;
    // Token so late that a second expiry also passed: in real FDDI the
    // claim process would recover the ring; model recovery as a restart.
    if (now >= st.trt_expiry) st.trt_expiry = now + cfg_.ttrt;
  }
  emit(cfg_.trace, now, TraceEventKind::kTokenArrival, station, async_budget);

  // Synchronous service: every hosted stream may use its own h_i.
  Seconds sync_used = 0.0;
  for (auto& local : st.streams) {
    sync_used += serve_stream(station, local, sync_used);
  }

  // Asynchronous service: frames start while earliness budget remains; the
  // last started frame overruns to completion.
  Seconds async_used = 0.0;
  if (cfg_.async_model != AsyncModel::kNone && async_budget > 0.0 &&
      f_async_ > 0.0) {
    const auto full_frames =
        static_cast<std::int64_t>(std::floor(async_budget / f_async_));
    std::int64_t frames = full_frames;
    if (async_budget - static_cast<double>(full_frames) * f_async_ > 0.0) {
      ++frames;  // overrun frame
    }
    if (cfg_.async_model == AsyncModel::kPoisson) {
      frames = std::min(frames, st.async_pending);
      st.async_pending -= frames;
    }
    async_used = static_cast<double>(frames) * f_async_;
    metrics_.async_frames_sent += static_cast<std::size_t>(frames);
    if (frames > 0) {
      emit(cfg_.trace, now, TraceEventKind::kAsyncFrame, station, async_used);
    }
  }

  // Pass the token downstream. Idle stations just repeat the token (their
  // latency is part of the hop), so a full rotation costs WT plus one token
  // transmission: charge token_time once per lap, at the wrap-around hop.
  // This matches the paper's Theta = WT + token-transmission accounting.
  return pass_token(next, sync_used + async_used + hop_ + wrap);
}

const SimMetrics& TtpSimulation::simulate(bool stop_at_miss) {
  start_run();
  stop_at_miss_ = stop_at_miss;
  sim_.set_max_events(cfg_.max_events != 0 ? cfg_.max_events
                                           : kDefaultMaxSimEvents);
  // Phasing. Worst case: each message arrives just after the token's first
  // departure from its station (it always waits a full rotation).
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    auto& st = stations_[i];
    for (auto& local : st.streams) {
      if (cfg_.worst_case_phasing) {
        local.phase = static_cast<double>(i + 1) * (hop_ + token_time_) + 1e-9;
      } else {
        local.phase = rng_.uniform(0.0, local.spec.period);
      }
      local.next_release = local.phase;
    }
    if (cfg_.async_model == AsyncModel::kPoisson) {
      st.next_async_arrival =
          rng_.exponential(1.0 / cfg_.async_frames_per_second);
    }
  }
  // All rotation timers start fresh when the ring initializes.
  for (auto& st : stations_) st.trt_expiry = cfg_.ttrt;

  fault_events_ = cfg_.faults.sorted_events();
  for (std::size_t i = 0; i < fault_events_.size(); ++i) {
    Event ev;
    ev.kind = EventKind::kFault;
    ev.index = static_cast<std::int32_t>(i);
    sim_.schedule_at(fault_events_[i].time, ev);
  }

  // Initial token at station 0. Faults were scheduled first, so a fault at
  // t=0 fires before this and the generation guard makes recovery, not
  // this kickoff, issue the first token.
  Event kickoff;
  kickoff.kind = EventKind::kKickoff;
  kickoff.gen = token_generation_;
  sim_.schedule_at(0.0, kickoff);
  sim_.run_until(cfg_.horizon);

  // Account deadline misses of incomplete or never-served messages. A
  // station still down at the horizon generates nothing after its crash.
  // (A verdict-only run that stopped early already has its verdict.)
  for (std::size_t i = 0; i < stations_.size() && !sim_.stopped(); ++i) {
    auto& st = stations_[i];
    materialize_arrivals(static_cast<int>(i), st, cfg_.horizon, st.alive);
    for (const auto& local : st.streams) {
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
