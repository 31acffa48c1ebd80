#include "tokenring/serve/engine.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "tokenring/common/checks.hpp"
#include "tokenring/common/clock.hpp"
#include "tokenring/exec/executor.hpp"
#include "tokenring/obs/json.hpp"
#include "tokenring/obs/registry.hpp"
#include "tokenring/query/query.hpp"

namespace tokenring::serve {

namespace {

/// Thrown by a pool job that found its deadline already expired at
/// compute start; the job turns it into a 504.
struct DeadlineExceeded {
  double elapsed_ms = 0.0;
};

/// Request latency buckets [us], log-spaced from sub-cache-hit to
/// multi-second Monte Carlo sweeps.
const std::vector<double>& latency_bounds_us() {
  static const std::vector<double> bounds = {
      1,    2,    5,     10,    20,    50,     100,    200,     500,
      1000, 2000, 5000,  10000, 20000, 50000,  100000, 200000,  500000,
      1000000, 2000000, 5000000};
  return bounds;
}

}  // namespace

Engine::Engine(const Options& options, std::function<std::uint64_t()> clock)
    : options_(options),
      clock_(clock ? std::move(clock) : steady_now_ns),
      cache_(options.cache),
      limiter_(options.limit),
      // The queue bound tracks the shed watermark so the queue can never
      // hold a backlog the watermark would have refused. high_water == 0
      // (cache-only mode) passes 1: ThreadPool reads a 0 capacity as its
      // default of 4 per worker.
      pool_(options.jobs > 0 ? options.jobs : exec::default_jobs(),
            std::max<std::size_t>(1, options.high_water)) {}

void Engine::drain() { pool_.wait_idle(); }

std::string Engine::handle_line(std::string_view line,
                                const std::string& fallback_client) {
  std::mutex mutex;
  std::condition_variable done_cv;
  std::string response;
  bool done = false;
  handle_line_async(line, fallback_client, [&](std::string&& r) {
    std::lock_guard<std::mutex> lock(mutex);
    response = std::move(r);
    done = true;
    done_cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mutex);
  done_cv.wait(lock, [&] { return done; });
  return response;
}

void Engine::handle_line_async(std::string_view line,
                               const std::string& fallback_client,
                               Completion done) {
  static const obs::Counter requests("serve.requests");
  requests.add();
  const std::uint64_t start_ns = clock_();

  // Every exit path reports its latency at completion time, wherever the
  // response was produced (inline refusal or pool-thread compute).
  Completion finish = [this, start_ns,
                       done = std::move(done)](std::string&& response) {
    static const obs::Histogram latency("serve.request_us",
                                        latency_bounds_us());
    latency.observe(static_cast<double>(clock_() - start_ns) * 1e-3);
    done(std::move(response));
  };

  if (line.size() > options_.max_request_bytes) {
    finish(error_response(
        "", 413,
        "request exceeds " + std::to_string(options_.max_request_bytes) +
            " bytes"));
    return;
  }
  const obs::JsonParseResult parsed = obs::parse_json(line);
  if (!parsed.ok) {
    finish(parse_error_response(parsed.error_offset, parsed.error));
    return;
  }
  Request request;
  std::string error;
  if (!parse_request(parsed.value, request, error)) {
    finish(error_response(request.id_token, 400, error));
    return;
  }
  dispatch_async(std::move(request), fallback_client, start_ns,
                 std::move(finish));
}

std::uint64_t Engine::shed_retry_after_ns() const {
  // A cold server has no job history; 25 ms is long enough for a typical
  // advise job to finish and short enough not to stall an interactive
  // client.
  constexpr std::uint64_t kFloorNs = 25'000'000;
  const std::uint64_t ewma = job_ewma_ns_.load(std::memory_order_relaxed);
  const std::uint64_t backlog_ns =
      ewma * static_cast<std::uint64_t>(pool_.depth() + 1) /
      pool_.thread_count();
  return std::max(kFloorNs, backlog_ns);
}

void Engine::dispatch_async(Request request, const std::string& fallback_client,
                            std::uint64_t start_ns, Completion done) {
  // ping and stats are control-plane traffic: answered inline, never rate
  // limited, never shed, never cached.
  if (request.type == RequestType::kPing) {
    done(success_response(request.id_token, request.type, false,
                          "{\"message\":\"pong\"}"));
    return;
  }
  if (request.type == RequestType::kStats) {
    done(success_response(request.id_token, request.type, false,
                          render_stats()));
    return;
  }

  static const obs::Counter deadline_expired("serve.deadline_expired");
  static const obs::Counter shed("serve.shed");
  static const obs::Gauge peak_depth("serve.batch.peak_depth");

  // Overload gates, cheapest refusal first (DESIGN.md §4h). The wire caps
  // deadline_ms at kMaxDeadlineMs, so the cast below cannot overflow.
  const std::uint64_t deadline_ns =
      request.deadline_ms > 0.0
          ? static_cast<std::uint64_t>(request.deadline_ms * 1e6)
          : 0;
  if (deadline_ns > 0) {
    const std::uint64_t elapsed = clock_() - start_ns;
    if (elapsed >= deadline_ns) {
      deadline_expired.add();
      done(timeout_response(request.id_token,
                            static_cast<double>(elapsed) * 1e-6));
      return;
    }
  }

  std::string key = cache_key(request);
  if (pool_.depth() >= options_.high_water && !cache_.likely_present(key)) {
    // The watermark only refuses work that would *add* compute: cached
    // (or already-in-flight) answers keep flowing under overload.
    shed.add();
    done(shed_response(request.id_token, shed_retry_after_ns()));
    return;
  }

  const std::string& client =
      request.client.empty() ? fallback_client : request.client;
  const RateLimiter::Verdict verdict = limiter_.check(client, clock_());
  if (!verdict.allowed) {
    done(rate_limited_response(request.id_token, verdict.retry_after_ns));
    return;
  }

  // Ready hits are answered on the calling thread: no queueing, no copy
  // of the compute pipeline, and — for the reactor — no thread hop.
  if (std::optional<std::string> hit = cache_.try_get(key)) {
    done(success_response(request.id_token, request.type, true,
                          std::move(*hit)));
    return;
  }

  // Miss or in-flight: the pool job owns the request and the
  // completion. The single-flight join happens inside the job, so a
  // reactor thread never waits on another request's compute; if the
  // computing job fails, a waiting joiner wakes and retries the compute
  // itself under its own deadline (cache.hpp semantics).
  const std::string id_token = request.id_token;
  Completion done_if_refused = done;  // survives the job being rejected
  // Pool tasks must not throw: the job turns each failure compute raises
  // (DeadlineExceeded, std::exception) into a response.
  auto job = [this, request = std::move(request), key = std::move(key),
              start_ns, deadline_ns, done = std::move(done)] {
    std::string response;
    try {
      const ResultCache::Outcome outcome = cache_.get_or_compute(
          key, [this, &request, start_ns, deadline_ns] {
            // The queue wait may have consumed the whole budget; skip
            // the compute rather than produce an answer nobody reads.
            const std::uint64_t begun = clock_();
            if (deadline_ns > 0 && begun - start_ns >= deadline_ns) {
              throw DeadlineExceeded{
                  static_cast<double>(begun - start_ns) * 1e-6};
            }
            std::string value;
            switch (request.type) {
              case RequestType::kCheck:
                value = compute_check(request.check);
                break;
              case RequestType::kFaultcheck:
                value = compute_faultcheck(request.check);
                break;
              default:
                value = compute_advise(request.advise);
                break;
            }
            // EWMA (alpha 1/8) of job cost feeds the shed back-off
            // hint; relaxed is fine, it is an estimate.
            const std::uint64_t took = clock_() - begun;
            const std::uint64_t old =
                job_ewma_ns_.load(std::memory_order_relaxed);
            job_ewma_ns_.store(old == 0 ? took : old - old / 8 + took / 8,
                               std::memory_order_relaxed);
            return value;
          });
      response = success_response(request.id_token, request.type, outcome.hit,
                                  outcome.value);
    } catch (const DeadlineExceeded& e) {
      deadline_expired.add();
      response = timeout_response(request.id_token, e.elapsed_ms);
    } catch (const fault::MarginOutOfRange& e) {
      // A true answer no result can carry: a refusal, not a failure.
      response = error_response(request.id_token, 400, e.what());
    } catch (const std::exception& e) {
      static const obs::Counter failures("serve.compute_failures");
      failures.add();
      // A precondition's what() names a source file; clients get only
      // the reason.
      const auto* precondition = dynamic_cast<const PreconditionError*>(&e);
      response = error_response(request.id_token, 500,
                                precondition ? precondition->reason()
                                             : std::string(e.what()));
    }
    done(std::move(response));
  };
  // Admission can race: the watermark passed above, but the queue filled
  // before this submit. Shed instead of blocking.
  if (!pool_.try_submit(std::move(job))) {
    shed.add();
    done_if_refused(shed_response(id_token, shed_retry_after_ns()));
    return;
  }
  peak_depth.record(pool_.depth());
}

std::string Engine::compute_check(const query::CheckQuery& query) {
  return query::to_json(query::check(query));
}

std::string Engine::compute_faultcheck(const query::CheckQuery& query) {
  return query::to_json(query::faultcheck(query));
}

std::string Engine::compute_advise(const query::AdviseQuery& query) {
  // Inline: a job must not submit into the pool it runs on, and the
  // recommendation is the same for every (jobs, batch) combination.
  return query::to_json(query::advise(query, exec::Executor(1)));
}

std::string Engine::render_stats() {
  const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("cache_entries").value_uint(cache_.size());
  w.key("batch_depth").value_uint(pool_.depth());
  w.key("counters").begin_object();
  for (const auto& [name, value] : snapshot.counters) {
    w.key(name).value_uint(value);
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : snapshot.gauges) {
    w.key(name).value_uint(value);
  }
  w.end_object();
  const auto it = snapshot.histograms.find("serve.request_us");
  w.key("latency_us").begin_object();
  if (it != snapshot.histograms.end()) {
    w.key("count").value_uint(it->second.total);
    w.key("p50").value_number(histogram_percentile(it->second, 0.50));
    w.key("p90").value_number(histogram_percentile(it->second, 0.90));
    w.key("p99").value_number(histogram_percentile(it->second, 0.99));
  } else {
    w.key("count").value_uint(0);
  }
  w.end_object();
  w.end_object();
  return os.str();
}

}  // namespace tokenring::serve
