// Tests for the exec/ subsystem: seed streams, the thread pool, and the
// Executor's parallel_for / map_reduce drivers.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tokenring/common/checks.hpp"
#include "tokenring/exec/executor.hpp"
#include "tokenring/exec/seed_stream.hpp"
#include "tokenring/exec/thread_pool.hpp"

namespace tokenring::exec {
namespace {

// ---- seed streams ----------------------------------------------------------

TEST(SeedStream, DeriveSeedIsDeterministic) {
  EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
  EXPECT_EQ(derive_seed(42, 917), derive_seed(42, 917));
}

TEST(SeedStream, NearbyInputsDecorrelate) {
  // Consecutive indices and consecutive masters must all give distinct
  // seeds — the whole point of mixing through SplitMix64.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(derive_seed(7, i));
  for (std::uint64_t m = 1000; m < 2000; ++m) seeds.insert(derive_seed(m, 0));
  EXPECT_EQ(seeds.size(), 2000u);
}

TEST(SeedStream, TrialRngsReproduceAndDiffer) {
  Rng a = make_trial_rng(5, 3);
  Rng b = make_trial_rng(5, 3);
  Rng c = make_trial_rng(5, 4);
  const double da = a.uniform01();
  EXPECT_DOUBLE_EQ(da, b.uniform01());
  EXPECT_NE(da, c.uniform01());
}

TEST(SeedStream, SplitMix64MatchesReferenceVector) {
  // Reference: SplitMix64 seeded with 0 outputs
  // e220a8397b1dcdaf, 6e789e6aa1b965f4, ... (Vigna's splitmix64.c).
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
}

// ---- thread pool -----------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { ++count; });
    }
  }  // destructor waits for completion
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ShutdownDrainsPendingWork) {
  // Queue up far more slow tasks than workers; destruction must complete
  // every accepted task, not drop the queued ones.
  std::atomic<int> count{0};
  {
    ThreadPool pool(2, /*queue_capacity=*/64);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&count] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++count;
      });
    }
  }
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ReportsGeometry) {
  ThreadPool pool(3, 5);
  EXPECT_EQ(pool.thread_count(), 3u);
  EXPECT_EQ(pool.queue_capacity(), 5u);
  ThreadPool defaulted(2);
  EXPECT_EQ(defaulted.queue_capacity(), 8u);  // 4 * threads
}

TEST(ThreadPool, TrySubmitRefusesAFullQueueAndWaitIdleDrains) {
  ThreadPool pool(1, /*queue_capacity=*/1);
  std::promise<void> gate;
  std::shared_future<void> opened(gate.get_future());
  std::promise<void> started;
  std::atomic<int> count{0};
  pool.submit([&started, opened, &count] {
    started.set_value();
    opened.wait();
    ++count;
  });
  started.get_future().wait();  // the worker holds the gated task
  EXPECT_TRUE(pool.try_submit([&count] { ++count; }));

  // One task running and one queued: the queue is full, and try_submit
  // says so without blocking.
  EXPECT_FALSE(pool.try_submit([&count] { ++count; }));
  EXPECT_EQ(pool.depth(), 2u);

  gate.set_value();
  pool.wait_idle();
  EXPECT_EQ(pool.depth(), 0u);
  EXPECT_EQ(count.load(), 2);  // the refused task never ran
}

TEST(ThreadPool, Preconditions) {
  EXPECT_THROW(ThreadPool(0), PreconditionError);
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), PreconditionError);
  EXPECT_THROW(pool.try_submit(nullptr), PreconditionError);
}

// ---- executor --------------------------------------------------------------

TEST(Executor, DefaultJobsIsPositive) {
  EXPECT_GE(default_jobs(), 1u);
  EXPECT_EQ(Executor(0).jobs(), default_jobs());
  EXPECT_EQ(Executor(3).jobs(), 3u);
}

TEST(Executor, ParallelForCoversEveryIndexOnce) {
  for (std::size_t jobs : {1u, 4u}) {
    Executor ex(jobs);
    std::vector<int> hits(257, 0);
    ex.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 257)
        << "jobs=" << jobs;
  }
}

TEST(Executor, ParallelForZeroIsANoop) {
  Executor ex(2);
  ex.parallel_for(0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(Executor, ExceptionPropagatesFromWorker) {
  for (std::size_t jobs : {1u, 4u}) {
    Executor ex(jobs);
    EXPECT_THROW(
        ex.parallel_for(20,
                        [](std::size_t i) {
                          if (i == 7) throw std::runtime_error("boom");
                        }),
        std::runtime_error)
        << "jobs=" << jobs;
  }
}

TEST(Executor, LowestIndexExceptionWins) {
  // Several indices throw; the rethrown one must be the smallest index so
  // failures are reproducible across jobs counts.
  for (std::size_t jobs : {1u, 4u}) {
    Executor ex(jobs);
    try {
      ex.parallel_for(50, [](std::size_t i) {
        if (i % 10 == 3) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3") << "jobs=" << jobs;
    }
  }
}

TEST(Executor, CancellationStopsTheSweep) {
  for (std::size_t jobs : {1u, 4u}) {
    Executor ex(jobs);
    CancellationToken token;
    std::atomic<int> ran{0};
    ParallelForOptions options;
    options.cancel = token;
    EXPECT_THROW(ex.parallel_for(
                     10'000,
                     [&](std::size_t) {
                       if (++ran == 3) token.request_cancel();
                     },
                     options),
                 Cancelled)
        << "jobs=" << jobs;
    EXPECT_LT(ran.load(), 10'000) << "jobs=" << jobs;
  }
}

TEST(Executor, ProgressReachesTotal) {
  for (std::size_t jobs : {1u, 4u}) {
    Executor ex(jobs);
    std::size_t last_done = 0;
    std::size_t calls = 0;
    ParallelForOptions options;
    options.progress = [&](std::size_t done, std::size_t total) {
      EXPECT_EQ(total, 40u);
      EXPECT_GT(done, last_done);  // serialized + monotone
      last_done = done;
      ++calls;
    };
    ex.parallel_for(40, [](std::size_t) {}, options);
    EXPECT_EQ(last_done, 40u) << "jobs=" << jobs;
    EXPECT_EQ(calls, 40u) << "jobs=" << jobs;
  }
}

TEST(Executor, MapReduceFoldsInIndexOrderForAnyJobsCount) {
  const auto spell = [](std::size_t i) { return std::to_string(i) + ";"; };
  const auto concat = [](std::string acc, std::string x) { return acc + x; };
  Executor seq(1);
  Executor par(4);
  const std::string a = map_reduce(seq, 30, std::string{}, spell, concat);
  const std::string b = map_reduce(par, 30, std::string{}, spell, concat);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.substr(0, 8), "0;1;2;3;");
}

TEST(Executor, MapReduceSums) {
  Executor ex(4);
  const int total = map_reduce(
      ex, 100, 0, [](std::size_t i) { return static_cast<int>(i); },
      [](int acc, int x) { return acc + x; });
  EXPECT_EQ(total, 4950);
}

}  // namespace
}  // namespace tokenring::exec
