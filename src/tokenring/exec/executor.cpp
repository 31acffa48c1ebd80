#include "tokenring/exec/executor.hpp"

#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>

#include "tokenring/common/checks.hpp"
#include "tokenring/obs/registry.hpp"
#include "tokenring/obs/span.hpp"

namespace tokenring::exec {

std::size_t default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<std::size_t>(hw) : 1;
}

Executor::Executor(std::size_t jobs) : jobs_(jobs ? jobs : default_jobs()) {
  if (jobs_ > 1) pool_ = std::make_unique<ThreadPool>(jobs_);
}

Executor::~Executor() = default;

namespace {

// Shared bookkeeping for one parallel_for call: completion count, the
// winning (lowest-index) exception, and cancellation fan-out.
struct ForState {
  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t completed = 0;
  std::size_t total = 0;
  std::exception_ptr error;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  bool abort = false;  // error seen or cancel requested: skip new indices
};

}  // namespace

void Executor::parallel_for(std::size_t n,
                            const std::function<void(std::size_t)>& body,
                            const ParallelForOptions& options) const {
  TR_EXPECTS(body != nullptr);
  if (n == 0) return;

  static const obs::SpanHandle span_handle("exec/parallel_for");
  static const obs::Counter calls("exec.parallel_for_calls");
  static const obs::Counter tasks("exec.parallel_for_tasks");
  const obs::Span span(span_handle);
  calls.add();
  tasks.add(n);

  const bool cancellable = options.cancel.has_value();
  const auto cancelled = [&] {
    return cancellable && options.cancel->cancel_requested();
  };

  if (!pool_) {
    for (std::size_t i = 0; i < n; ++i) {
      if (cancelled()) throw Cancelled();
      body(i);  // exceptions propagate directly; lowest index trivially wins
      if (options.progress) options.progress(i + 1, n);
    }
    if (cancelled()) throw Cancelled();
    return;
  }

  auto state = std::make_shared<ForState>();
  state->total = n;

  for (std::size_t i = 0; i < n; ++i) {
    pool_->submit([state, i, &body, &options, &cancelled] {
      bool run = true;
      {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (state->abort) run = false;
      }
      if (run && cancelled()) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->abort = true;
        run = false;
      }
      if (run) {
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->mutex);
          state->abort = true;
          if (i < state->error_index) {
            state->error_index = i;
            state->error = std::current_exception();
          }
        }
      }
      std::lock_guard<std::mutex> lock(state->mutex);
      ++state->completed;
      if (run && !state->error && options.progress) {
        options.progress(state->completed, state->total);
      }
      if (state->completed == state->total) state->all_done.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(state->mutex);
  state->all_done.wait(lock, [&] { return state->completed == state->total; });
  // Take the exception out of the shared state: a worker may still hold
  // the state's last reference, and must not be the thread that frees an
  // exception the caller is reading.
  if (std::exception_ptr error = std::move(state->error)) {
    std::rethrow_exception(error);
  }
  if (cancelled()) throw Cancelled();
}

}  // namespace tokenring::exec
