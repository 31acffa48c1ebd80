// Fixed-size worker pool with a bounded task queue.
//
// Workers are started in the constructor and joined in the destructor.
// Each free worker takes the next queued task, so one long task never
// holds back the tasks behind it while another worker is idle. `submit`
// blocks while the queue is at capacity, so a producer enqueueing a long
// sweep cannot outrun the workers and balloon memory; `try_submit` refuses
// instead, for callers that must not block (the serve engine sheds the
// request). Shutdown is clean: the destructor lets workers drain every
// task that was already accepted before joining, so no submitted work is
// silently dropped.
//
// Tasks must not throw — higher-level callers (Executor::parallel_for,
// the serve engine's jobs) catch and route exceptions themselves; a
// throwing task at this layer terminates, like an escaping exception on
// any thread. A task must not submit into the pool it runs on: a blocking
// submit from a worker can deadlock once the queue is full.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tokenring::exec {

class ThreadPool {
 public:
  /// Start `num_threads` workers (>= 1). `queue_capacity` bounds the number
  /// of accepted-but-unstarted tasks; 0 picks 4 * num_threads.
  explicit ThreadPool(std::size_t num_threads, std::size_t queue_capacity = 0);

  /// Drains all accepted tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }
  std::size_t queue_capacity() const { return capacity_; }

  /// Enqueue one task; blocks while the queue is full. Must not be called
  /// during/after destruction (precondition, checked).
  void submit(std::function<void()> task);

  /// Enqueue one task unless `queue_capacity` tasks are already waiting;
  /// then return false at once, leaving `task` unrun. Same preconditions
  /// as submit.
  bool try_submit(std::function<void()> task);

  /// Tasks accepted but not yet finished (queued + running).
  std::size_t depth() const;

  /// Block until every task accepted so far has finished. Tasks submitted
  /// meanwhile are still accepted and waited for.
  void wait_idle();

 private:
  void worker_loop();

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t running_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tokenring::exec
