#include "tokenring/exec/thread_pool.hpp"

#include <utility>

#include "tokenring/common/checks.hpp"

namespace tokenring::exec {

ThreadPool::ThreadPool(std::size_t num_threads, std::size_t queue_capacity)
    : capacity_(queue_capacity ? queue_capacity : 4 * num_threads) {
  TR_EXPECTS(num_threads >= 1);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  TR_EXPECTS(task != nullptr);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock,
                   [this] { return stopping_ || queue_.size() < capacity_; });
    TR_EXPECTS_MSG(!stopping_, "submit on a stopping ThreadPool");
    queue_.push_back(std::move(task));
  }
  not_empty_.notify_one();
}

bool ThreadPool::try_submit(std::function<void()> task) {
  TR_EXPECTS(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TR_EXPECTS_MSG(!stopping_, "try_submit on a stopping ThreadPool");
    if (queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(task));
  }
  not_empty_.notify_one();
  return true;
}

std::size_t ThreadPool::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size() + running_;
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    not_full_.notify_one();
    task();
    task = nullptr;  // release its captures before it counts as finished
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--running_ == 0 && queue_.empty()) idle_.notify_all();
    }
  }
}

}  // namespace tokenring::exec
