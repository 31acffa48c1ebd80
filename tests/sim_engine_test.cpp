// Engine-layer tests: the event queue (exact (time, seq) order, SIM_CHECK
// key validation, randomized differential check against a linear-scan
// reference), the simulator loop (clock, horizon, storm guard, key checks
// through both scheduling entry points), train steps (try_advance) and
// stop(), the frontier work source, and frontier-vs-eager engine
// equivalence for the TTP simulator (bit-identical metrics, byte-identical
// JSONL traces).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "tokenring/common/checks.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/net/standards.hpp"
#include "tokenring/obs/trace_sinks.hpp"
#include "tokenring/sim/config.hpp"
#include "tokenring/sim/event_queue.hpp"
#include "tokenring/sim/simulator.hpp"
#include "tokenring/sim/workload.hpp"

namespace tokenring::sim {
namespace {

Event user_event(int index) {
  Event ev;
  ev.kind = EventKind::kUser;
  ev.index = index;
  return ev;
}

// ---- event queue ------------------------------------------------------------

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  q.push(3.0, user_event(3));
  q.push(1.0, user_event(1));
  q.push(2.0, user_event(2));
  std::vector<int> fired;
  while (!q.empty()) fired.push_back(q.pop().index);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInInsertionOrder) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.push(1.0, user_event(i));
  for (int i = 0; i < 10; ++i) {
    const Event ev = q.pop();
    EXPECT_EQ(ev.index, i);
    EXPECT_EQ(ev.seq, static_cast<std::uint64_t>(i));
  }
}

TEST(EventQueue, NextTimeAndSize) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.push(5.0, user_event(0));
  q.push(2.0, user_event(1));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, EmptyAccessThrows) {
  EventQueue q;
  EXPECT_THROW(q.next_time(), PreconditionError);
  EXPECT_THROW(q.pop(), PreconditionError);
}

TEST(EventQueue, NegativeTimeRejected) {
  EventQueue q;
  EXPECT_THROW(q.push(-1.0, user_event(0)), PreconditionError);
}

TEST(EventQueue, NonFiniteTimeRejectedNamingTheKind) {
  EventQueue q;
  Event hop;
  hop.kind = EventKind::kTtpTokenHop;
  try {
    q.push(std::numeric_limits<double>::quiet_NaN(), hop);
    FAIL() << "NaN key accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("ttp-token-hop"), std::string::npos)
        << e.what();
  }
  Event fault;
  fault.kind = EventKind::kFault;
  try {
    q.push(std::numeric_limits<double>::infinity(), fault);
    FAIL() << "inf key accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("fault"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(q.empty());  // nothing leaked into the queue
}

TEST(EventQueue, PushEarlierThanCurrentWindowStillPopsInOrder) {
  // Pop half the queue, then push an event earlier than every remaining
  // one: it must come out first.
  EventQueue q;
  for (int i = 0; i < 100; ++i) q.push(1e-3 * (i + 1), user_event(i));
  for (int i = 0; i < 50; ++i) q.pop();
  q.push(1e-6, user_event(999));
  EXPECT_EQ(q.pop().index, 999);
  EXPECT_EQ(q.pop().index, 50);
}

TEST(EventQueue, FarFutureEventsMergeExactly) {
  // Keys nine and more orders of magnitude apart; the pop order must still
  // be globally exact.
  EventQueue q;
  q.push(1e9, user_event(1));    // far future
  q.push(1e-6, user_event(0));   // near
  q.push(2e9, user_event(2));    // farther
  EXPECT_EQ(q.pop().index, 0);
  EXPECT_EQ(q.pop().index, 1);
  EXPECT_EQ(q.pop().index, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DifferentialAgainstReferenceHeap) {
  // 10k random operations (pushes over wildly mixed time scales, same-time
  // bursts, interleaved pops) against a trivially correct reference; the
  // pop streams must agree exactly, sequence numbers included.
  struct Ref {
    double at;
    std::uint64_t seq;
    int index;
  };
  const auto ref_less = [](const Ref& a, const Ref& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  };

  EventQueue q;
  std::vector<Ref> ref;
  Rng rng(2024);
  std::uint64_t next_seq = 0;
  double low_water = 0.0;  // pops only move forward; pushes stay >= this
  int pushes = 0;

  for (int op = 0; op < 10'000; ++op) {
    const double r = rng.uniform(0.0, 1.0);
    if (r < 0.55 || q.empty()) {
      // Push: mix of near, same-time bursts, and far-future keys.
      double at;
      const double kind = rng.uniform(0.0, 1.0);
      if (kind < 0.2 && !ref.empty()) {
        at = ref[static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(ref.size()) - 1))]
                 .at;  // exact duplicate time: exercises FIFO tie-break
      } else if (kind < 0.8) {
        at = low_water + rng.uniform(0.0, 1e-3);
      } else {
        at = low_water + rng.uniform(0.0, 1e6);  // far future
      }
      q.push(at, user_event(pushes));
      ref.push_back(Ref{at, next_seq++, pushes});
      ++pushes;
    } else {
      const auto it = std::min_element(ref.begin(), ref.end(), ref_less);
      const Event got = q.pop();
      EXPECT_EQ(got.index, it->index) << "op " << op;
      EXPECT_EQ(got.seq, it->seq) << "op " << op;
      EXPECT_EQ(got.at, it->at) << "op " << op;
      low_water = it->at;
      ref.erase(it);
    }
    if (!ref.empty()) {
      const auto it = std::min_element(ref.begin(), ref.end(), ref_less);
      EXPECT_EQ(q.next_time(), it->at) << "op " << op;
    }
  }
  // Drain: the tails must agree too.
  std::sort(ref.begin(), ref.end(), ref_less);
  for (const Ref& want : ref) {
    const Event got = q.pop();
    ASSERT_EQ(got.index, want.index);
    ASSERT_EQ(got.seq, want.seq);
  }
  EXPECT_TRUE(q.empty());
}

// ---- simulator --------------------------------------------------------------

/// Test handler: records (time, index) of every delivered event and can
/// schedule follow-ups.
class RecordingHandler final : public EventHandler {
 public:
  explicit RecordingHandler(Simulator& sim) : sim_(sim) {}
  void on_event(const Event& ev) override {
    times.push_back(sim_.now());
    indices.push_back(ev.index);
    if (on_event_hook) on_event_hook(ev);
  }
  Simulator& sim_;
  std::vector<double> times;
  std::vector<int> indices;
  std::function<void(const Event&)> on_event_hook;
};

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  sim.schedule_at(1.0, user_event(0));
  sim.schedule_at(0.5, user_event(1));
  sim.run_until(2.0);
  EXPECT_EQ(h.times, (std::vector<double>{0.5, 1.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);  // clock lands on the horizon
}

TEST(Simulator, RelativeScheduling) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  h.on_event_hook = [&](const Event& ev) {
    if (ev.index == 0) sim.schedule_in(0.25, user_event(1));
  };
  sim.schedule_at(1.0, user_event(0));
  sim.run_until(10.0);
  ASSERT_EQ(h.times.size(), 2u);
  EXPECT_DOUBLE_EQ(h.times[1], 1.25);
}

TEST(Simulator, HorizonIsInclusive) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  sim.schedule_at(2.0, user_event(0));
  sim.schedule_at(2.0 + 1e-9, user_event(1));
  sim.run_until(2.0);
  EXPECT_EQ(h.indices, (std::vector<int>{0}));
}

TEST(Simulator, EventsPastHorizonSurviveForNextRun) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  sim.schedule_at(5.0, user_event(0));
  sim.run_until(1.0);
  EXPECT_TRUE(h.indices.empty());
  sim.run_until(10.0);
  EXPECT_EQ(h.indices, (std::vector<int>{0}));
}

TEST(Simulator, SchedulingIntoPastThrows) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  h.on_event_hook = [&](const Event&) {
    EXPECT_THROW(sim.schedule_at(0.5, user_event(9)), PreconditionError);
    EXPECT_THROW(sim.schedule_in(-0.1, user_event(9)), PreconditionError);
  };
  sim.schedule_at(1.0, user_event(0));
  sim.run_until(2.0);
  ASSERT_EQ(h.indices.size(), 1u);
}

TEST(Simulator, NonFiniteTimesGetTheKeyCheckNamingTheKind) {
  // A NaN or infinite time is not "the past": through either entry point
  // it must reach the queue's key check, whose message names the kind.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto refusal = [](const std::function<void()>& schedule) {
    try {
      schedule();
    } catch (const PreconditionError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  Simulator sim;
  sim.run_until(1.0);  // now() = 1: the past is non-empty
  Event arrival;
  arrival.kind = EventKind::kPdpArrival;
  Event hop;
  hop.kind = EventKind::kTtpTokenHop;
  Event fault;
  fault.kind = EventKind::kFault;

  const std::string at_nan = refusal([&] { sim.schedule_at(nan, arrival); });
  EXPECT_NE(at_nan.find("pdp-arrival"), std::string::npos) << at_nan;
  const std::string in_nan = refusal([&] { sim.schedule_in(nan, hop); });
  EXPECT_NE(in_nan.find("ttp-token-hop"), std::string::npos) << in_nan;
  const std::string in_inf = refusal([&] { sim.schedule_in(inf, fault); });
  EXPECT_NE(in_inf.find("'fault'"), std::string::npos) << in_inf;
  EXPECT_EQ(sim.run_until(10.0), 0u);  // nothing leaked into the queue
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  for (int i = 0; i < 7; ++i) {
    sim.schedule_at(static_cast<double>(i), user_event(i));
  }
  const auto ran = sim.run_until(100.0);
  EXPECT_EQ(ran, 7u);
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, CascadedEventChainsRun) {
  // A self-perpetuating chain (like token passing) runs to the horizon.
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  h.on_event_hook = [&](const Event&) { sim.schedule_in(0.1, user_event(0)); };
  sim.schedule_at(0.0, user_event(0));
  sim.run_until(1.0);
  EXPECT_EQ(h.indices.size(), 11u);  // t = 0.0, 0.1, ..., 1.0 inclusive
}

// ---- train steps -------------------------------------------------------------

TEST(Simulator, TryAdvanceRunsOnlyStrictlyBeforeTheQueueHead) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  std::vector<double> steps;
  h.on_event_hook = [&](const Event& ev) {
    if (ev.index != 0) return;
    for (const double at : {0.5, 0.75}) {
      ASSERT_TRUE(sim.try_advance(at));
      steps.push_back(sim.now());
    }
    EXPECT_FALSE(sim.try_advance(0.5));  // the past
    // A tie with the queue head is refused: the queued event was pushed
    // first, so it must fire first; the step queues behind it.
    EXPECT_FALSE(sim.try_advance(1.0));
    EXPECT_EQ(sim.now(), 0.75);
    sim.schedule_at(1.0, user_event(2));
  };
  sim.schedule_at(0.25, user_event(0));
  sim.schedule_at(1.0, user_event(1));
  EXPECT_EQ(sim.run_until(2.0), 5u);  // three queued events, two steps
  EXPECT_EQ(sim.events_executed(), 5u);
  EXPECT_EQ(steps, (std::vector<double>{0.5, 0.75}));
  EXPECT_EQ(h.indices, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(h.times, (std::vector<double>{0.25, 1.0, 1.0}));
}

TEST(Simulator, StepRefusedPastTheHorizonSurvivesForNextRun) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  EXPECT_FALSE(sim.try_advance(0.5));  // no run in progress
  h.on_event_hook = [&](const Event& ev) {
    if (ev.index != 0) return;
    EXPECT_FALSE(sim.try_advance(1.5));  // past this run's horizon
    sim.schedule_at(1.5, user_event(1));
  };
  sim.schedule_at(0.5, user_event(0));
  EXPECT_EQ(sim.run_until(1.0), 1u);
  EXPECT_EQ(sim.now(), 1.0);
  EXPECT_EQ(sim.run_until(2.0), 1u);
  EXPECT_EQ(h.indices, (std::vector<int>{0, 1}));
  EXPECT_EQ(h.times, (std::vector<double>{0.5, 1.5}));
}

TEST(Simulator, StopEndsTheRunAndKeepsTheStopTime) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  h.on_event_hook = [&](const Event& ev) {
    if (ev.index != 1) return;
    ASSERT_TRUE(sim.try_advance(1.25));
    sim.stop();
    EXPECT_FALSE(sim.try_advance(1.5));
  };
  for (int i = 0; i < 4; ++i) {
    sim.schedule_at(static_cast<double>(i), user_event(i));
  }
  EXPECT_EQ(sim.run_until(10.0), 3u);  // events 0 and 1, then the step
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(sim.now(), 1.25);  // the stop time, not the horizon
  EXPECT_EQ(h.indices, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.run_until(20.0), 0u);  // stays stopped
  EXPECT_EQ(sim.now(), 1.25);
}

TEST(Simulator, TrainStepsCountTowardStormGuard) {
  // A handler that would train forever: the guard admits exactly
  // max_events events, inline steps included. The refused step is queued
  // and the next loop turn trips the guard at the last executed time.
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  h.on_event_hook = [&](const Event&) {
    Seconds at = sim.now();
    do {
      at += 0.001;
    } while (sim.try_advance(at));
    sim.schedule_at(at, user_event(1));
  };
  sim.set_max_events(10);
  sim.schedule_at(0.0, user_event(0));
  std::string message;
  try {
    sim.run_until(1.0);
  } catch (const EventStormError& e) {
    message = e.what();
  }
  EXPECT_EQ(sim.events_executed(), 10u);
  EXPECT_EQ(h.indices, (std::vector<int>{0}));  // nine steps ran inline
  EXPECT_NE(message.find("(10 events) at t=0.009 s with 1 events still queued"),
            std::string::npos)
      << message;
}

// ---- frontier source --------------------------------------------------------

/// A frontier ticking every `step` seconds that logs its firing times.
class TickingFrontier final : public FrontierSource {
 public:
  TickingFrontier(Simulator& sim, double step) : sim_(sim), step_(step) {}
  Seconds frontier_time() const override { return next_; }
  void advance_frontier() override {
    fired.push_back(sim_.now());
    next_ += step_;
  }
  Simulator& sim_;
  double step_;
  Seconds next_ = 0.0;
  std::vector<double> fired;
};

TEST(Simulator, FrontierInterleavesWithQueueByTime) {
  Simulator sim;
  RecordingHandler h(sim);
  TickingFrontier f(sim, 0.4);
  sim.set_handler(&h);
  sim.set_frontier(&f);
  sim.schedule_at(0.5, user_event(0));
  sim.run_until(1.0);
  // Frontier at 0.0, 0.4, 0.8; queue at 0.5.
  EXPECT_EQ(f.fired, (std::vector<double>{0.0, 0.4, 0.8}));
  EXPECT_EQ(h.times, (std::vector<double>{0.5}));
  EXPECT_EQ(sim.events_executed(), 4u);  // frontier advances count
}

TEST(Simulator, QueueWinsTiesAgainstFrontier) {
  // A queued event at exactly the frontier time fires first — a fault
  // destroying the token at a visit instant must beat the visit.
  Simulator sim;
  std::vector<int> order;
  RecordingHandler h(sim);
  TickingFrontier f(sim, 1.0);
  h.on_event_hook = [&](const Event&) { order.push_back(0); };
  class Spy final : public FrontierSource {
   public:
    Spy(TickingFrontier& inner, std::vector<int>& order)
        : inner_(inner), order_(order) {}
    Seconds frontier_time() const override { return inner_.frontier_time(); }
    void advance_frontier() override {
      order_.push_back(1);
      inner_.advance_frontier();
    }
    TickingFrontier& inner_;
    std::vector<int>& order_;
  } spy(f, order);
  sim.set_handler(&h);
  sim.set_frontier(&spy);
  sim.schedule_at(1.0, user_event(0));
  sim.run_until(1.0);
  // t=0 frontier, then at t=1 the queued event (0) before the frontier (1).
  EXPECT_EQ(order, (std::vector<int>{1, 0, 1}));
}

TEST(Simulator, TryAdvanceRunsOnlyStrictlyBeforeTheFrontier) {
  Simulator sim;
  RecordingHandler h(sim);
  TickingFrontier f(sim, 1.0);
  sim.set_handler(&h);
  sim.set_frontier(&f);
  h.on_event_hook = [&](const Event&) {
    EXPECT_FALSE(sim.try_advance(1.0));  // ties with the token arrival
    EXPECT_TRUE(sim.try_advance(0.75));
  };
  sim.schedule_at(0.5, user_event(0));
  EXPECT_EQ(sim.run_until(1.0), 4u);
  EXPECT_EQ(f.fired, (std::vector<double>{0.0, 1.0}));
}

TEST(Simulator, FrontierCountsTowardStormGuard) {
  Simulator sim;
  RecordingHandler h(sim);
  TickingFrontier f(sim, 1e-6);
  sim.set_handler(&h);
  sim.set_frontier(&f);
  sim.set_max_events(100);
  EXPECT_THROW(sim.run_until(1.0), EventStormError);
}

// ---- engine equivalence -----------------------------------------------------

msg::MessageSet engine_set() {
  msg::MessageSet set;
  set.add({.period = milliseconds(5), .payload_bits = 30'000.0, .station = 1});
  set.add({.period = milliseconds(8), .payload_bits = 50'000.0, .station = 4});
  set.add({.period = milliseconds(13), .payload_bits = 20'000.0, .station = 4});
  return set;
}

SimConfig engine_config(EngineMode mode) {
  analysis::TtpParams p;
  p.ring = net::fddi_ring(8);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  auto cfg = make_sim_config(engine_set(), p, mbps(100), 8.0);
  cfg.engine = mode;
  return cfg;
}

void expect_bit_identical(const SimMetrics& a, const SimMetrics& b) {
  EXPECT_EQ(a.messages_released, b.messages_released);
  EXPECT_EQ(a.messages_completed, b.messages_completed);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.async_frames_sent, b.async_frames_sent);
  // Bit-identical, not approximately equal: the frontier walk performs the
  // same arithmetic as the eager walk.
  EXPECT_EQ(a.response_time.mean(), b.response_time.mean());
  EXPECT_EQ(a.response_time.max(), b.response_time.max());
  EXPECT_EQ(a.token_rotation.mean(), b.token_rotation.mean());
  EXPECT_EQ(a.token_rotation.max(), b.token_rotation.max());
}

TEST(EngineEquivalence, FrontierMatchesEagerBitForBit) {
  const auto eager = run_simulation(engine_set(), engine_config(EngineMode::kEager));
  const auto front =
      run_simulation(engine_set(), engine_config(EngineMode::kFrontier));
  expect_bit_identical(front, eager);
}

TEST(EngineEquivalence, HoldsUnderPoissonAsyncAndJitter) {
  auto eager_cfg = engine_config(EngineMode::kEager);
  eager_cfg.async_model = AsyncModel::kPoisson;
  eager_cfg.async_frames_per_second = 300.0;
  eager_cfg.arrival_jitter = 0.3;
  eager_cfg.worst_case_phasing = false;
  eager_cfg.seed = 77;
  auto front_cfg = eager_cfg;
  front_cfg.engine = EngineMode::kFrontier;
  expect_bit_identical(run_simulation(engine_set(), front_cfg),
                       run_simulation(engine_set(), eager_cfg));
}

TEST(EngineEquivalence, GoldenJsonlTracesAreByteIdentical) {
  // The full JSONL trace stream — every record, every field, formatted —
  // must not differ by a single byte between engines.
  const auto trace_of = [&](EngineMode mode) {
    std::ostringstream os;
    obs::JsonlTraceSink sink(os);
    auto cfg = engine_config(mode);
    cfg.trace = &sink;
    run_simulation(engine_set(), cfg);
    sink.flush();
    return os.str();
  };
  const std::string eager = trace_of(EngineMode::kEager);
  const std::string front = trace_of(EngineMode::kFrontier);
  ASSERT_GT(eager.size(), 10'000u);  // a real trace, not an empty file
  EXPECT_TRUE(front == eager) << "traces diverge";
}

TEST(EngineEquivalence, EventCountsMatchWithoutFaults) {
  const auto e = make_simulator(engine_set(), engine_config(EngineMode::kEager));
  const auto f =
      make_simulator(engine_set(), engine_config(EngineMode::kFrontier));
  const auto em = e->run();
  const auto fm = f->run();
  EXPECT_EQ(em.messages_completed, fm.messages_completed);
}

TEST(EngineEquivalence, HibernationPreservesCompletionMetrics) {
  // collect_rotation_stats = false + async kNone + no trace licenses the
  // idle-lap fast-forward; completion counts and deadline verdicts must
  // survive it (response times may differ only by float re-association).
  auto slow = engine_config(EngineMode::kFrontier);
  slow.async_model = AsyncModel::kNone;
  auto fast = slow;
  fast.collect_rotation_stats = false;
  const auto sm = run_simulation(engine_set(), slow);
  const auto fm = run_simulation(engine_set(), fast);
  EXPECT_EQ(fm.messages_released, sm.messages_released);
  EXPECT_EQ(fm.messages_completed, sm.messages_completed);
  EXPECT_EQ(fm.deadline_misses, sm.deadline_misses);
  EXPECT_NEAR(fm.response_time.mean(), sm.response_time.mean(), 1e-9);
}

}  // namespace
}  // namespace tokenring::sim
