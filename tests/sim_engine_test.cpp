// Engine-layer tests: the event queue (exact (time, seq) order, SIM_CHECK
// key validation, randomized differential check against a linear-scan
// reference), the simulator loop (clock, horizon, storm guard, key checks
// through every scheduling entry point), staged steps, steps taken in
// place and stop() (with a randomized differential check against a plain
// queue), the one-run rule of a Simulation, the staged TTP walk against
// the retired eager walk's frozen output, and the walk's idle-lap
// fast-forward (completion metrics kept, work pinned on the sim_scaling
// scenario). The TTP and PDP simulators' own outputs are frozen in
// sim_{ttp,pdp}_golden_test.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tokenring/common/checks.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/experiments/setup.hpp"
#include "tokenring/net/standards.hpp"
#include "tokenring/obs/registry.hpp"
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

/// Test handler: records (time, index, seq) of every delivered event and
/// can schedule follow-ups.
class RecordingHandler final : public EventHandler {
 public:
  explicit RecordingHandler(Simulator& sim) : sim_(sim) {}
  void on_event(const Event& ev) override {
    EXPECT_EQ(ev.at, sim_.now());
    times.push_back(sim_.now());
    indices.push_back(ev.index);
    seqs.push_back(ev.seq);
    if (on_event_hook) on_event_hook(ev);
  }
  Simulator& sim_;
  std::vector<double> times;
  std::vector<int> indices;
  std::vector<std::uint64_t> seqs;
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
    EXPECT_THROW(sim.stage_at(0.5, user_event(9)), PreconditionError);
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
  // A staged step meets the key check when the loop queues it.
  sim.stage_at(nan, hop);
  const std::string staged_nan = refusal([&] { sim.run_until(20.0); });
  EXPECT_NE(staged_nan.find("ttp-token-hop"), std::string::npos)
      << staged_nan;
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

// ---- staged steps -----------------------------------------------------------

/// A seq no queue in these tests reaches. A step staged with it and
/// delivered with it ran inline: a queued step gets its seq from the queue.
constexpr std::uint64_t kInlineSeq = 1'000'000;

Event staged_event(int index) {
  Event ev = user_event(index);
  ev.seq = kInlineSeq;
  return ev;
}

TEST(Simulator, StagedStepRunsInlineOnlyStrictlyBeforeTheQueueHead) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  h.on_event_hook = [&](const Event& ev) {
    // 0 stages 10 at 0.5, 10 stages 11 at 0.75: both fire before the queue
    // head (1 at 1.0) and run inline. 11 stages 12 at 1.0, a tie with the
    // head: 1 was queued first, so 12 is queued behind it.
    if (ev.index == 0) sim.stage_at(0.5, staged_event(10));
    if (ev.index == 10) sim.stage_at(0.75, staged_event(11));
    if (ev.index == 11) sim.stage_at(1.0, staged_event(12));
  };
  sim.schedule_at(0.25, user_event(0));  // seq 0
  sim.schedule_at(1.0, user_event(1));   // seq 1
  EXPECT_EQ(sim.run_until(2.0), 5u);     // two queued events, three steps
  EXPECT_EQ(sim.events_executed(), 5u);
  EXPECT_EQ(h.indices, (std::vector<int>{0, 10, 11, 1, 12}));
  EXPECT_EQ(h.times, (std::vector<double>{0.25, 0.5, 0.75, 1.0, 1.0}));
  // The inline steps never entered the queue; the tied one took seq 2.
  EXPECT_EQ(h.seqs, (std::vector<std::uint64_t>{0, kInlineSeq, kInlineSeq, 1,
                                                2}));
}

/// A staged chain ticking every `step` seconds from t = 0, like the TTP
/// token walk; it logs its firing times in `ticks`.
void tick_every(Simulator& sim, RecordingHandler& h, double step,
                std::vector<double>& ticks) {
  h.on_event_hook = [&sim, &ticks, step](const Event& ev) {
    if (ev.index != 7) return;
    ticks.push_back(sim.now());
    sim.stage_at(sim.now() + step, staged_event(7));
  };
  sim.stage_at(0.0, staged_event(7));
}

TEST(Simulator, StagedChainInterleavesWithQueueByTime) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  std::vector<double> ticks;
  tick_every(sim, h, 0.4, ticks);
  sim.schedule_at(0.5, user_event(0));
  EXPECT_EQ(sim.run_until(1.0), 4u);  // every tick counts as an event
  EXPECT_EQ(ticks, (std::vector<double>{0.0, 0.4, 0.8}));
  EXPECT_EQ(h.indices, (std::vector<int>{7, 7, 0, 7}));
}

// The "frontier" tests below are named for the token walk's frontier, its
// next hop, which is now a staged chain like tick_every's.

TEST(Simulator, QueueWinsTiesAgainstFrontier) {
  // A queued event at exactly the staged step's time fires first: a fault
  // destroying the token at a visit instant must beat the visit.
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  std::vector<double> ticks;
  sim.schedule_at(1.0, user_event(0));
  tick_every(sim, h, 1.0, ticks);
  sim.run_until(1.0);
  EXPECT_EQ(h.indices, (std::vector<int>{7, 0, 7}));
  EXPECT_EQ(h.times, (std::vector<double>{0.0, 1.0, 1.0}));
}

TEST(Simulator, TryAdvanceRunsOnlyStrictlyBeforeTheFrontier) {
  // A step another handler stages while the walk's next hop waits in the
  // queue (a medium step beside the token walk; try_advance was the old
  // name of this check) runs inline only strictly before that hop. A step
  // tying with the token arrival queues behind it.
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  std::vector<double> ticks;
  tick_every(sim, h, 1.0, ticks);
  const auto tick = h.on_event_hook;
  h.on_event_hook = [&](const Event& ev) {
    tick(ev);
    if (ev.index == 0) sim.stage_at(0.75, staged_event(10));
    if (ev.index == 10) sim.stage_at(1.0, staged_event(11));
  };
  sim.schedule_at(0.5, user_event(0));
  EXPECT_EQ(sim.run_until(1.0), 5u);
  EXPECT_EQ(ticks, (std::vector<double>{0.0, 1.0}));
  EXPECT_EQ(h.indices, (std::vector<int>{7, 0, 10, 7, 11}));
  EXPECT_EQ(h.times, (std::vector<double>{0.0, 0.5, 0.75, 1.0, 1.0}));
  EXPECT_EQ(h.seqs[2], kInlineSeq);  // 10 ran inline
  EXPECT_NE(h.seqs[4], kInlineSeq);  // 11 was queued behind the hop
}

TEST(Simulator, ScheduleAfterAStageKeepsFifoOrder) {
  // Stage, then schedule at the same time in the same handler: the staged
  // step was submitted first, so it fires first. A second stage queues the
  // first one the same way.
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  h.on_event_hook = [&](const Event& ev) {
    if (ev.index != 0) return;
    sim.stage_at(0.5, staged_event(1));
    sim.schedule_at(0.5, user_event(2));
    sim.stage_at(0.75, staged_event(3));
    sim.stage_at(0.75, staged_event(4));
    sim.schedule_in(0.75, user_event(5));
  };
  sim.schedule_at(0.0, user_event(0));
  EXPECT_EQ(sim.run_until(1.0), 6u);
  EXPECT_EQ(h.indices, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(h.times, (std::vector<double>{0.0, 0.5, 0.5, 0.75, 0.75, 0.75}));
}

TEST(Simulator, StepRefusedPastTheHorizonSurvivesForNextRun) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  h.on_event_hook = [&](const Event& ev) {
    if (ev.index == 0) sim.stage_at(1.5, staged_event(1));
  };
  sim.schedule_at(0.5, user_event(0));
  EXPECT_EQ(sim.run_until(1.0), 1u);
  EXPECT_EQ(sim.now(), 1.0);
  EXPECT_EQ(sim.run_until(2.0), 1u);
  EXPECT_EQ(h.indices, (std::vector<int>{0, 1}));
  EXPECT_EQ(h.times, (std::vector<double>{0.5, 1.5}));
  EXPECT_NE(h.seqs[1], kInlineSeq);  // it waited in the queue
}

TEST(Simulator, StopEndsTheRunAndKeepsTheStopTime) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  h.on_event_hook = [&](const Event& ev) {
    if (ev.index == 1) sim.stage_at(1.25, staged_event(10));
    if (ev.index != 10) return;
    sim.stop();
    sim.stage_at(1.5, staged_event(11));  // stays pending, never runs
  };
  for (int i = 0; i < 4; ++i) {
    sim.schedule_at(static_cast<double>(i), user_event(i));
  }
  EXPECT_EQ(sim.run_until(10.0), 3u);  // events 0 and 1, then the step
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(sim.now(), 1.25);  // the stop time, not the horizon
  EXPECT_EQ(h.indices, (std::vector<int>{0, 1, 10}));
  EXPECT_EQ(sim.run_until(20.0), 0u);  // stays stopped
  EXPECT_EQ(sim.now(), 1.25);
}

TEST(Simulator, TrainStepsCountTowardStormGuard) {
  // A handler that would train forever: the guard admits exactly
  // max_events events, inline steps included. The refused step is queued,
  // so the guard's message counts it, and it trips at the last executed
  // time.
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  h.on_event_hook = [&](const Event&) {
    sim.stage_at(sim.now() + 0.001, staged_event(1));
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
  EXPECT_EQ(h.indices, (std::vector<int>{0, 1, 1, 1, 1, 1, 1, 1, 1, 1}));
  EXPECT_EQ(h.seqs.back(), kInlineSeq);  // nine steps ran inline
  EXPECT_NE(message.find("(10 events) at t=0.009 s with 1 events still queued"),
            std::string::npos)
      << message;
}

TEST(Simulator, FrontierCountsTowardStormGuard) {
  // A walk hopping every microsecond with nothing queued: every hop runs
  // inline, and the guard still admits exactly max_events of them.
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  std::vector<double> ticks;
  tick_every(sim, h, 1e-6, ticks);
  sim.set_max_events(100);
  EXPECT_THROW(sim.run_until(1.0), EventStormError);
  EXPECT_EQ(sim.events_executed(), 100u);
  EXPECT_EQ(ticks.size(), 100u);
  EXPECT_EQ(h.seqs.back(), kInlineSeq);
}

// ---- steps taken in place ----------------------------------------------------

TEST(Simulator, TakeInlineLosesATieWithTheQueueHeadAndTakesJustBefore) {
  // The queued event was submitted first, so it wins the tie; one ulp
  // earlier the step fires next and the clock moves to it.
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  const double before = std::nextafter(1.0, 0.0);
  std::vector<bool> taken;
  h.on_event_hook = [&](const Event& ev) {
    if (ev.index != 0) return;
    taken.push_back(sim.take_inline(1.0));
    EXPECT_EQ(sim.now(), 0.5);  // a refusal changes nothing
    taken.push_back(sim.take_inline(before));
    EXPECT_EQ(sim.now(), before);
  };
  sim.schedule_at(0.5, user_event(0));
  sim.schedule_at(1.0, user_event(1));
  EXPECT_EQ(sim.run_until(2.0), 3u);  // two queued events, one step in place
  EXPECT_EQ(taken, (std::vector<bool>{false, true}));
  EXPECT_EQ(h.indices, (std::vector<int>{0, 1}));
}

TEST(Simulator, TakeInlineAcceptsAtTheHorizonAndRefusesPastIt) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  std::vector<bool> taken;
  h.on_event_hook = [&](const Event& ev) {
    if (ev.index != 0) return;
    taken.push_back(sim.take_inline(std::nextafter(2.0, 3.0)));
    taken.push_back(sim.take_inline(2.0));
  };
  sim.schedule_at(0.5, user_event(0));
  EXPECT_EQ(sim.run_until(2.0), 2u);
  EXPECT_EQ(taken, (std::vector<bool>{false, true}));
  EXPECT_EQ(sim.now(), 2.0);
  // Between runs no step fires next.
  EXPECT_FALSE(sim.take_inline(2.0));
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, TakeInlineRefusesWhileAStepIsStagedAndOnceStopped) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  std::vector<bool> taken;
  h.on_event_hook = [&](const Event& ev) {
    if (ev.index == 0) {
      sim.stage_at(0.625, staged_event(10));
      taken.push_back(sim.take_inline(0.75));  // 10 must fire first
    }
    if (ev.index == 10) {  // the staged step ran inline
      sim.stop();
      taken.push_back(sim.take_inline(0.75));
    }
  };
  sim.schedule_at(0.5, user_event(0));
  sim.schedule_at(1.0, user_event(1));
  EXPECT_EQ(sim.run_until(2.0), 2u);
  EXPECT_EQ(taken, (std::vector<bool>{false, false}));
  EXPECT_EQ(h.indices, (std::vector<int>{0, 10}));
  EXPECT_EQ(sim.now(), 0.625);
}

TEST(Simulator, TakeInlineRefusesOnceTheGuardIsFull) {
  // A handler that takes steps in place until one is refused and stages
  // that one, like the simulators' runs. The guard admits exactly
  // max_events events, steps in place included; the refused step is
  // queued, so the guard's message counts it.
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  int in_place = 0;
  h.on_event_hook = [&](const Event&) {
    while (sim.take_inline(sim.now() + 0.001)) ++in_place;
    sim.stage_at(sim.now() + 0.001, staged_event(1));
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
  EXPECT_EQ(in_place, 9);
  EXPECT_EQ(h.indices, (std::vector<int>{0}));  // nothing else was delivered
  EXPECT_NE(message.find("(10 events) at t=0.009 s with 1 events still queued"),
            std::string::npos)
      << message;
}

TEST(Simulator, TakeInlineRefusesThePastAndNaN) {
  // The past is a contract violation, as for every entry point. A NaN
  // time never fires next; staged, it meets the queue's key check.
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  std::string past;
  bool nan_taken = true;
  h.on_event_hook = [&](const Event& ev) {
    if (ev.index != 0) return;
    try {
      sim.take_inline(0.25);
    } catch (const PreconditionError& e) {
      past = e.what();
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    nan_taken = sim.take_inline(nan);
    Event hop;
    hop.kind = EventKind::kTtpTokenHop;
    sim.stage_at(nan, hop);
  };
  sim.schedule_at(0.5, user_event(0));
  std::string staged_nan = "accepted";
  try {
    sim.run_until(1.0);
  } catch (const PreconditionError& e) {
    staged_nan = e.what();
  }
  EXPECT_NE(past.find("cannot schedule into the past"), std::string::npos)
      << past;
  EXPECT_FALSE(nan_taken);
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_NE(staged_nan.find("ttp-token-hop"), std::string::npos)
      << staged_nan;
}

/// Random work for the differential test below, in one of two mixes.
/// Decisions come from one RNG in delivery order, so equal delivery
/// streams make equal work. The delivered event is logged after its
/// submissions, so a stage that overwrote the event being dispatched
/// would show.
///  * Plain: each delivered event makes up to four submissions, each a
///    schedule or a stage at random, on a 1 ms grid (so exact ties are
///    common: zero delays, equal times from different handlers) with the
///    odd far-future event. Nothing limits the queue, so it grows into
///    the thousands, with many ties between queued events and staged
///    steps.
///  * Tails: a third kind of submission, a tail, ends the handler's
///    submissions, and react() returns it instead of submitting it: it is
///    a step the handler takes in place if Simulator::take_inline allows,
///    else stages, as its last act. A tail comes 0-6 quarter ticks later,
///    so it often fires before the next grid tick and is taken. With
///    about kCrowd events pending within reach an event makes at most one
///    submission, so the queue stays short and its head is often ahead of
///    now. Times are whole quarters, so equal quarters are equal times.
class RandomWork {
 public:
  struct Tail {
    Seconds at;
    Event ev;
  };

  /// `seeded` events (with negative indices) are pending at the start.
  RandomWork(std::uint64_t seed, int seeded, bool tails)
      : rng_(seed), tails_(tails), pending_(seeded) {}

  template <typename Submit>
  std::optional<Tail> react(Seconds now, const Event& ev, Submit&& submit) {
    std::optional<Tail> tail;
    if (tails_) {
      tail = react_with_tails(now, ev, submit);
    } else {
      react_plain(now, submit);
    }
    delivered.emplace_back(now, ev.index);
    return tail;
  }

  std::vector<std::pair<double, int>> delivered;

 private:
  template <typename Submit>
  void react_plain(Seconds now, Submit& submit) {
    const auto tick = static_cast<std::int64_t>(std::llround(now / kTick));
    const auto actions = rng_.uniform_int(0, 4);
    for (std::int64_t a = 0; a < actions && submitted_ < kBudget; ++a) {
      std::int64_t delay = rng_.uniform_int(0, 6);
      if (rng_.uniform(0.0, 1.0) < 0.05) delay += 1000;
      submit(static_cast<double>(tick + delay) * kTick,
             user_event(submitted_++),
             /*stage=*/rng_.uniform(0.0, 1.0) < 0.5);
    }
  }

  template <typename Submit>
  std::optional<Tail> react_with_tails(Seconds now, const Event& ev,
                                       Submit& submit) {
    --pending_;
    if (ev.index >= 0 && far_[static_cast<std::size_t>(ev.index)]) {
      --far_pending_;
    }
    const auto quarter =
        static_cast<std::int64_t>(std::llround(now / kQuarter));
    const auto actions =
        rng_.uniform_int(0, pending_ - far_pending_ < kCrowd ? 4 : 1);
    std::optional<Tail> tail;
    for (std::int64_t a = 0; a < actions && submitted_ < kBudget && !tail;
         ++a) {
      const double kind = rng_.uniform(0.0, 3.0);
      const bool far = kind < 2.0 && rng_.uniform(0.0, 1.0) < 0.05;
      const std::int64_t delay =
          kind < 2.0 ? 4 * rng_.uniform_int(0, 6) + (far ? 4000 : 0)
                     : rng_.uniform_int(0, 6);
      const double at = static_cast<double>(quarter + delay) * kQuarter;
      far_.push_back(far);
      far_pending_ += far ? 1 : 0;
      ++pending_;
      const Event e = user_event(submitted_++);
      if (kind < 2.0) {
        submit(at, e, /*stage=*/kind < 1.0);
      } else {
        tail = Tail{at, e};
      }
    }
    return tail;
  }

  static constexpr double kTick = 1e-3;
  static constexpr double kQuarter = kTick / 4.0;
  static constexpr int kBudget = 10'000;
  static constexpr int kCrowd = 8;
  Rng rng_;
  bool tails_;
  int submitted_ = 0;
  // Tails mix only: events pending, and those of them far ahead.
  int pending_;
  int far_pending_ = 0;
  std::vector<bool> far_;  // by submission index
};

/// How a simulator run of RandomWork went.
struct RandomWorkRun {
  int in_place = 0;      // tails taken in place
  int tails_staged = 0;  // tails the rule refused, staged
};

/// The reference pushes every event, staged, taken in place or not, into a
/// plain queue and pops in (time, seq) order; the simulator must deliver
/// the same stream, across several run_until calls.
RandomWorkRun expect_plain_queue_order(std::uint64_t seed, bool tails) {
  constexpr double kHorizons[] = {0.05, 0.2, 0.9, 4.0, 100.0};
  constexpr int kSeeded = 4;
  RandomWork sim_work(seed, kSeeded, tails);
  Simulator sim;
  class Handler final : public EventHandler {
   public:
    Handler(Simulator& sim, RandomWork& work) : sim_(sim), work_(work) {}
    void on_event(const Event& ev) override {
      const auto submit = [this](Seconds at, const Event& e, bool stage) {
        if (stage) {
          sim_.stage_at(at, e);
        } else {
          sim_.schedule_at(at, e);
        }
      };
      auto tail = work_.react(sim_.now(), ev, submit);
      while (tail && sim_.take_inline(tail->at)) {
        ++run.in_place;
        tail = work_.react(sim_.now(), tail->ev, submit);
      }
      if (tail) {
        ++run.tails_staged;
        sim_.stage_at(tail->at, tail->ev);
      }
    }
    Simulator& sim_;
    RandomWork& work_;
    RandomWorkRun run;
  } handler(sim, sim_work);
  sim.set_handler(&handler);

  RandomWork ref_work(seed, kSeeded, tails);
  EventQueue ref;
  std::size_t ref_events = 0;
  for (int i = 0; i < kSeeded; ++i) {
    sim.schedule_at(0.0, user_event(-1 - i));
    ref.push(0.0, user_event(-1 - i));
  }
  for (const double horizon : kHorizons) {
    sim.run_until(horizon);
    while (!ref.empty() && ref.next_time() <= horizon) {
      const Event ev = ref.pop();
      ++ref_events;
      const auto tail = ref_work.react(
          ev.at, ev, [&ref](Seconds at, const Event& e, bool) {
            ref.push(at, e);
          });
      if (tail) ref.push(tail->at, tail->ev);
    }
    EXPECT_EQ(sim.events_executed(), ref_events) << "horizon " << horizon;
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_GT(ref_work.delivered.size(), 9'000u);  // the budget was spent
  EXPECT_TRUE(sim_work.delivered == ref_work.delivered);
  return handler.run;
}

TEST(Simulator, StagedStepsMatchAPlainQueueOnRandomWork) {
  {
    SCOPED_TRACE("plain mix");
    const RandomWorkRun run = expect_plain_queue_order(77, /*tails=*/false);
    EXPECT_EQ(run.in_place + run.tails_staged, 0);
  }
  {
    SCOPED_TRACE("tails mix");
    const RandomWorkRun run = expect_plain_queue_order(77, /*tails=*/true);
    // Both fates of a tail were exercised (529 and 2,821 times).
    EXPECT_GT(run.in_place, 400);
    EXPECT_GT(run.tails_staged, 1'000);
  }
}

// ---- one run per Simulation -------------------------------------------------

TEST(Simulation, ASecondRunIsRefusedByName) {
  msg::MessageSet set;
  set.add({.period = milliseconds(10), .payload_bits = 20'000.0, .station = 1});
  for (const Protocol protocol : {Protocol::kPdp, Protocol::kTtp}) {
    for (const bool worst_case : {true, false}) {
      SimConfig cfg;
      cfg.protocol = protocol;
      cfg.pdp.ring = net::ieee8025_ring(4);
      cfg.pdp.frame = net::paper_frame_format();
      cfg.ttp.ring = net::fddi_ring(4);
      cfg.ttp.frame = net::paper_frame_format();
      cfg.ttp.async_frame = net::paper_frame_format();
      cfg.horizon = milliseconds(30);
      cfg.worst_case_phasing = worst_case;
      SCOPED_TRACE(std::string(protocol == Protocol::kPdp ? "pdp" : "ttp") +
                   (worst_case ? " worst-case" : " random"));
      const auto once = [&](bool verdict_first) {
        const auto sim = make_simulator(set, cfg);
        if (verdict_first) {
          sim->misses_a_deadline();
        } else {
          sim->run();
        }
        try {
          sim->run();
        } catch (const PreconditionError& e) {
          return std::string(e.what());
        }
        return std::string("second run accepted");
      };
      for (const bool verdict_first : {false, true}) {
        const std::string refusal = once(verdict_first);
        EXPECT_NE(refusal.find("a Simulation runs once"), std::string::npos)
            << refusal;
      }
    }
  }
}

// ---- engine equivalence (TTP) -----------------------------------------------
//
// The token walk used to run on two engines compared by these tests: an
// eager one that queued every hop and a frontier one that advanced the
// token outside the queue. The staged walk replaced both. It is held here
// to the eager walk's output on the same configurations, frozen bit for
// bit (hex floats) from the last build that had it; each hop the staged
// walk runs inline was one queued event there, so event counts agree too.

msg::MessageSet engine_set() {
  msg::MessageSet set;
  set.add({.period = milliseconds(5), .payload_bits = 30'000.0, .station = 1});
  set.add({.period = milliseconds(8), .payload_bits = 50'000.0, .station = 4});
  set.add({.period = milliseconds(13), .payload_bits = 20'000.0, .station = 4});
  return set;
}

SimConfig engine_config() {
  analysis::TtpParams p;
  p.ring = net::fddi_ring(8);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  return make_sim_config(engine_set(), p, mbps(100), 8.0);
}

SimConfig poisson_jitter_config() {
  auto cfg = engine_config();
  cfg.async_model = AsyncModel::kPoisson;
  cfg.async_frames_per_second = 300.0;
  cfg.arrival_jitter = 0.3;
  cfg.worst_case_phasing = false;
  cfg.seed = 77;
  return cfg;
}

std::uint64_t sim_events() {
  const auto snap = obs::Registry::global().snapshot();
  const auto it = snap.counters.find("sim.events");
  return it == snap.counters.end() ? std::uint64_t{0} : it->second;
}

/// The fields the engines were compared on, and the executed-event count.
struct WalkRun {
  std::size_t released = 0;
  std::size_t completed = 0;
  std::size_t misses = 0;
  std::size_t async_sent = 0;
  double response_mean = 0.0;
  double response_max = 0.0;
  double rotation_mean = 0.0;
  double rotation_max = 0.0;
  std::uint64_t events = 0;
};

WalkRun run_walk(const SimConfig& cfg) {
  const std::uint64_t before = sim_events();
  const SimMetrics m = run_simulation(engine_set(), cfg);
  return {m.messages_released,     m.messages_completed,
          m.deadline_misses,       m.async_frames_sent,
          m.response_time.mean(),  m.response_time.max(),
          m.token_rotation.mean(), m.token_rotation.max(),
          sim_events() - before};
}

// The eager walk's output on engine_config() and poisson_jitter_config().
constexpr WalkRun kFrozenDefault{42, 41, 0, 13311,
                                 0x1.ad3e161ae4a1ap-8, 0x1.7e6c8bac3948p-7,
                                 0x1.bce6ce76dde75p-13, 0x1.23867efee5a5cp-12,
                                 3921};
constexpr WalkRun kFrozenPoissonJitter{36, 36, 0, 251,
                                       0x1.8ebbb0fcce2a5p-11, 0x1.43f99ad5d18p-10,
                                       0x1.99d275b63087p-17, 0x1.97e3075f265p-15,
                                       68121};

void expect_bit_identical(const WalkRun& a, const WalkRun& b) {
  EXPECT_EQ(a.released, b.released);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.async_sent, b.async_sent);
  // Bit-identical, not approximately equal: the staged walk performs the
  // same arithmetic as the eager walk.
  EXPECT_EQ(a.response_mean, b.response_mean);
  EXPECT_EQ(a.response_max, b.response_max);
  EXPECT_EQ(a.rotation_mean, b.rotation_mean);
  EXPECT_EQ(a.rotation_max, b.rotation_max);
}

TEST(EngineEquivalence, FrontierMatchesEagerBitForBit) {
  expect_bit_identical(run_walk(engine_config()), kFrozenDefault);
}

TEST(EngineEquivalence, HoldsUnderPoissonAsyncAndJitter) {
  expect_bit_identical(run_walk(poisson_jitter_config()), kFrozenPoissonJitter);
}

TEST(EngineEquivalence, EventCountsMatchWithoutFaults) {
  const WalkRun runs[] = {run_walk(engine_config()),
                          run_walk(poisson_jitter_config())};
  const WalkRun* eager[] = {&kFrozenDefault, &kFrozenPoissonJitter};
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(i == 0 ? "saturating" : "poisson + jitter");
    EXPECT_EQ(runs[i].events, eager[i]->events);
    EXPECT_EQ(runs[i].completed, eager[i]->completed);
  }
}

// ---- idle-lap fast-forward (TTP) --------------------------------------------

TEST(EngineEquivalence, HibernationPreservesCompletionMetrics) {
  // collect_rotation_stats = false + async kNone + no trace licenses the
  // idle-lap fast-forward; completion counts and deadline verdicts must
  // survive it (response times may differ only by float re-association).
  auto slow = engine_config();
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

/// Events a run of bench/sim_scaling.cpp's scenario executes: 4 streams
/// with periods of hundreds of milliseconds on an `n`-station ring at
/// 100 Mbps, no async traffic.
std::uint64_t scaling_events(int n, Seconds horizon, bool rotation_stats) {
  msg::MessageSet set;
  for (int i = 0; i < 4; ++i) {
    set.add({.period = milliseconds(200.0 + 20.0 * i),
             .payload_bits = 4'000.0,
             .station = (i * n) / 4});
  }
  experiments::PaperSetup setup;
  setup.num_stations = n;
  auto cfg = make_sim_config(set, setup.ttp_params(), mbps(100));
  cfg.horizon = horizon;
  cfg.async_model = AsyncModel::kNone;
  cfg.collect_rotation_stats = rotation_stats;
  const std::uint64_t before = sim_events();
  run_simulation(set, cfg);
  return sim_events() - before;
}

TEST(SimScaling, IdleLapSavingIsPinned) {
  // The work behind bench/sim_scaling.cpp's rows. With rotation stats off
  // the walk skips idle laps; with them on it steps every hop.
  EXPECT_EQ(scaling_events(256, 2.0, false), 241'664u);
  EXPECT_EQ(scaling_events(1024, 2.0, false), 470'016u);
  EXPECT_EQ(scaling_events(1024, 32.0, false), 6'913'024u);
  EXPECT_EQ(scaling_events(256, 2.0, true), 1'666'991u);
  EXPECT_EQ(scaling_events(1024, 2.0, true), 1'671'092u);
  EXPECT_EQ(scaling_events(1024, 32.0, true), 26'738'752u);
}

}  // namespace
}  // namespace tokenring::sim
