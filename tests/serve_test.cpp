// Tests for the admission-control service (serve/): wire parsing, cache,
// rate limiting, the engine pipeline and its compute pool, and one TCP
// end-to-end round trip with a graceful drain.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tokenring/analysis/ttp.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/net/standards.hpp"
#include "tokenring/obs/json.hpp"
#include "tokenring/serve/backoff.hpp"
#include "tokenring/serve/cache.hpp"
#include "tokenring/serve/engine.hpp"
#include "tokenring/serve/rate_limit.hpp"
#include "tokenring/serve/server.hpp"
#include "tokenring/serve/wire.hpp"

namespace {

using namespace tokenring;

obs::JsonValue parse_ok(const std::string& text) {
  auto result = obs::parse_json(text);
  EXPECT_TRUE(result.ok) << result.error << " @" << result.error_offset
                         << " in " << text;
  return result.value;
}

serve::Request parse_request_ok(const std::string& line) {
  serve::Request request;
  std::string error;
  EXPECT_TRUE(serve::parse_request(parse_ok(line), request, error)) << error;
  return request;
}

std::string parse_request_error(const std::string& line) {
  serve::Request request;
  std::string error;
  EXPECT_FALSE(serve::parse_request(parse_ok(line), request, error)) << line;
  return error;
}

int response_status(const obs::JsonValue& response) {
  const obs::JsonValue* status = response.find("status");
  return status == nullptr ? -1 : static_cast<int>(status->as_int64());
}

constexpr const char* kCheckLine =
    "{\"type\":\"check\",\"id\":7,\"protocol\":\"fddi\","
    "\"bandwidth_mbps\":100,\"streams\":["
    "{\"station\":0,\"period_ms\":50,\"payload_bits\":10000},"
    "{\"station\":1,\"period_ms\":100,\"payload_bits\":20000}]}";

serve::Engine::Options small_engine_options() {
  serve::Engine::Options options;
  options.jobs = 2;
  return options;
}

// ---- wire --------------------------------------------------------------------

TEST(ServeWire, ParsesCheckRequestAndEchoesId) {
  const auto request = parse_request_ok(kCheckLine);
  EXPECT_EQ(request.type, serve::RequestType::kCheck);
  EXPECT_EQ(request.id_token, "7");
  EXPECT_EQ(request.check.protocol, planner::Protocol::kFddi);
  EXPECT_DOUBLE_EQ(request.check.bandwidth_mbps, 100.0);
  ASSERT_EQ(request.check.set.size(), 2u);
  EXPECT_DOUBLE_EQ(request.check.set.streams()[0].period, 0.05);
  EXPECT_DOUBLE_EQ(request.check.set.streams()[1].payload_bits, 20000.0);
}

TEST(ServeWire, AdviseDefaultsMatchToolFlagDefaults) {
  const auto request = parse_request_ok("{\"type\":\"advise\"}");
  EXPECT_EQ(request.advise.stations, 100);
  EXPECT_DOUBLE_EQ(request.advise.mean_period_ms, 100.0);
  EXPECT_DOUBLE_EQ(request.advise.period_ratio, 10.0);
  EXPECT_EQ(request.advise.sets, 50);
  EXPECT_EQ(request.advise.seed, 1u);
  EXPECT_EQ(request.advise.bandwidths_mbps,
            (std::vector<double>{4.0, 16.0, 100.0, 622.0}));
}

TEST(ServeWire, StringIdRoundTripsQuoted) {
  const auto request =
      parse_request_ok("{\"type\":\"ping\",\"id\":\"a\\\"b\"}");
  EXPECT_EQ(request.id_token, "\"a\\\"b\"");
}

TEST(ServeWire, RejectsUnknownTypeAndFields) {
  EXPECT_NE(parse_request_error("{\"type\":\"frobnicate\"}").find("unknown"),
            std::string::npos);
  // Typo'd field names fail loudly instead of silently using the default.
  const std::string error = parse_request_error(
      "{\"type\":\"check\",\"bandwith_mbps\":100,"
      "\"streams\":[{\"station\":0,\"period_ms\":1,\"payload_bits\":1}]}");
  EXPECT_NE(error.find("bandwith_mbps"), std::string::npos);
  // advise fields are not valid on check requests.
  EXPECT_NE(parse_request_error(
                "{\"type\":\"advise\",\"noise_ms\":1}")
                .find("noise_ms"),
            std::string::npos);
}

TEST(ServeWire, RejectsMissingStreamsAndBadStreamShape) {
  EXPECT_NE(parse_request_error("{\"type\":\"check\"}").find("streams"),
            std::string::npos);
  EXPECT_NE(parse_request_error(
                "{\"type\":\"check\",\"streams\":[{\"station\":0}]}")
                .find("period_ms"),
            std::string::npos);
  EXPECT_NE(parse_request_error(
                "{\"type\":\"check\",\"streams\":[{\"station\":-1,"
                "\"period_ms\":1,\"payload_bits\":1}]}")
                .find("station"),
            std::string::npos);
}

TEST(ServeWire, CacheKeyCanonicalizesSpelling) {
  const auto a = parse_request_ok(kCheckLine);
  // Same query: reordered fields, exponent-notation numbers, explicit
  // defaults spelled out.
  const auto b = parse_request_ok(
      "{\"bandwidth_mbps\":1e2,\"protocol\":\"fddi\",\"streams\":["
      "{\"payload_bits\":1.0e4,\"period_ms\":50,\"station\":0},"
      "{\"station\":1,\"period_ms\":100,\"payload_bits\":20000}],"
      "\"type\":\"check\",\"id\":99}");
  EXPECT_EQ(serve::cache_key(a), serve::cache_key(b));

  auto c = parse_request_ok(kCheckLine);
  c.check.bandwidth_mbps = 16.0;
  EXPECT_NE(serve::cache_key(a), serve::cache_key(c));
  // The id is not part of the identity of a query.
  EXPECT_EQ(serve::cache_key(a).find('7'), std::string::npos);
}

// ---- token bucket / rate limiter ---------------------------------------------

TEST(ServeRateLimit, BucketRefillsAtConfiguredRate) {
  serve::TokenBucket bucket(10.0, 2.0, 0);  // 10 tokens/s, burst 2
  EXPECT_TRUE(bucket.consume(0));
  EXPECT_TRUE(bucket.consume(0));
  EXPECT_FALSE(bucket.consume(0));  // burst exhausted
  const std::uint64_t wait = bucket.nanos_until(1.0);
  EXPECT_EQ(wait, 100'000'000u);             // one token at 10/s = 100 ms
  EXPECT_FALSE(bucket.consume(wait - 1));    // just too early
  EXPECT_TRUE(bucket.consume(wait));         // exactly on time
}

TEST(ServeRateLimit, RefillPropertyHoldsOverRandomSchedules) {
  // Property: over any monotonic consume schedule, granted requests never
  // exceed burst + rate * elapsed (no bucket overshoot), and a full wait
  // of nanos_until(1) always yields a token.
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const double rate = rng.uniform(0.5, 2000.0);
    const double burst = rng.uniform(1.0, 50.0);
    serve::TokenBucket bucket(rate, burst, 0);
    std::uint64_t now = 0;
    std::uint64_t granted = 0;
    for (int step = 0; step < 200; ++step) {
      now += static_cast<std::uint64_t>(rng.uniform(0.0, 2e7));
      if (bucket.consume(now)) ++granted;
      EXPECT_LE(bucket.available(), burst);
    }
    const double elapsed_s = static_cast<double>(now) * 1e-9;
    EXPECT_LE(static_cast<double>(granted), burst + rate * elapsed_s + 1e-6)
        << "rate=" << rate << " burst=" << burst;
    const std::uint64_t wait = bucket.nanos_until(1.0);
    EXPECT_TRUE(bucket.consume(now + wait));
  }
}

TEST(ServeRateLimit, ForwardClockJumpGrantsAtMostBurst) {
  // A clock anomaly (NTP step, VM resume) that leaps hours ahead must not
  // mint unbounded credit: the refill saturates at `burst` no matter how
  // large the jump.
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const double rate = rng.uniform(0.5, 500.0);
    const double burst = std::floor(rng.uniform(1.0, 20.0));
    serve::TokenBucket bucket(rate, burst, 0);
    std::uint64_t now = 0;
    while (bucket.consume(now)) {
    }  // drain the initial burst
    // Jump far forward (up to ~12 days) and count consecutive grants.
    now += static_cast<std::uint64_t>(rng.uniform(3.6e12, 1e15));
    int granted = 0;
    while (bucket.consume(now)) ++granted;
    EXPECT_LE(granted, static_cast<int>(burst))
        << "rate=" << rate << " burst=" << burst;
    EXPECT_GE(granted, static_cast<int>(burst));  // and exactly the burst
  }
}

TEST(ServeRateLimit, RetryAfterShrinksMonotonicallyAsBucketRefills) {
  // The 429 hint must never grow while the client politely waits: at any
  // later probe time the advertised remaining wait is no larger, and once
  // the original hint has elapsed the request is admitted.
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const double rate = rng.uniform(0.5, 200.0);
    serve::RateLimiter limiter({.rate_per_s = rate, .burst = 1.0});
    std::uint64_t now = static_cast<std::uint64_t>(rng.uniform(0.0, 1e12));
    ASSERT_TRUE(limiter.check("c", now).allowed);
    const auto first = limiter.check("c", now);
    ASSERT_FALSE(first.allowed);
    ASSERT_GT(first.retry_after_ns, 0u);

    const std::uint64_t ready_ns = now + first.retry_after_ns;
    std::uint64_t last_hint = first.retry_after_ns;
    for (int probe = 0; probe < 8; ++probe) {
      now += (ready_ns - now) / 3;  // strictly before the advertised time
      if (now >= ready_ns) break;
      const auto denied = limiter.check("c", now);
      ASSERT_FALSE(denied.allowed) << "admitted before the advertised time";
      // Remaining wait from *now*; tolerate 1 ns of ceil() rounding.
      EXPECT_LE(denied.retry_after_ns, last_hint + 1);
      last_hint = denied.retry_after_ns;
    }
    EXPECT_TRUE(limiter.check("c", ready_ns).allowed);
  }
}

TEST(ServeRateLimit, StaleTimestampsDoNotRefillBackwards) {
  serve::TokenBucket bucket(1.0, 1.0, 1'000'000'000);
  EXPECT_TRUE(bucket.consume(1'000'000'000));
  // A clock that jumps backwards must not mint tokens.
  EXPECT_FALSE(bucket.consume(0));
  EXPECT_FALSE(bucket.consume(500'000'000));
}

TEST(ServeRateLimit, LimiterKeysBucketsByClient) {
  serve::RateLimiter limiter({.rate_per_s = 1.0, .burst = 1.0});
  EXPECT_TRUE(limiter.check("alice", 0).allowed);
  EXPECT_TRUE(limiter.check("bob", 0).allowed);  // own bucket
  const auto denied = limiter.check("alice", 0);
  EXPECT_FALSE(denied.allowed);
  EXPECT_GT(denied.retry_after_ns, 0u);
  // After the advertised back-off, alice is admitted again.
  EXPECT_TRUE(limiter.check("alice", denied.retry_after_ns).allowed);
}

TEST(ServeRateLimit, DisabledLimiterAdmitsEverything) {
  serve::RateLimiter limiter({.rate_per_s = 0.0});
  EXPECT_FALSE(limiter.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(limiter.check("anyone", 0).allowed);
  }
}

TEST(ServeBackoff, HonorsHintAndStaysWithinTheJitterEnvelope) {
  const serve::BackoffPolicy policy;
  Rng rng(3);
  for (int attempt = 0; attempt < 12; ++attempt) {
    const std::uint64_t hint = 40'000'000;  // the server's retry_after
    const std::uint64_t delay =
        serve::retry_delay_ns(policy, attempt, hint, rng);
    EXPECT_GE(delay, hint);                    // never undercut the server
    EXPECT_LE(delay, hint + policy.cap_ns);    // growth saturates at cap
  }
  // Full jitter: repeated draws at one attempt actually spread.
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t d = serve::retry_delay_ns(policy, 4, 0, rng);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_LT(lo, hi);
}

// ---- cache -------------------------------------------------------------------

TEST(ServeCache, SingleFlightComputesOnceUnderContention) {
  serve::ResultCache cache({.shards = 4, .capacity_per_shard = 16});
  std::atomic<int> computes{0};
  std::vector<std::thread> threads;
  std::vector<std::string> values(8);
  for (std::size_t i = 0; i < values.size(); ++i) {
    threads.emplace_back([&cache, &computes, &values, i] {
      values[i] = cache
                      .get_or_compute("key",
                                      [&computes] {
                                        ++computes;
                                        std::this_thread::sleep_for(
                                            std::chrono::milliseconds(20));
                                        return std::string("value");
                                      })
                      .value;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);
  for (const auto& v : values) EXPECT_EQ(v, "value");
}

TEST(ServeCache, FailedComputeIsNotCachedAndWaitersRetry) {
  serve::ResultCache cache({.shards = 1, .capacity_per_shard = 4});
  EXPECT_THROW(cache.get_or_compute(
                   "key", []() -> std::string { throw PreconditionError("boom"); }),
               PreconditionError);
  const auto outcome =
      cache.get_or_compute("key", [] { return std::string("ok"); });
  EXPECT_FALSE(outcome.hit);
  EXPECT_EQ(outcome.value, "ok");
}

TEST(ServeCache, EvictsLeastRecentlyUsedBeyondCapacity) {
  serve::ResultCache cache({.shards = 1, .capacity_per_shard = 2});
  const auto fill = [&](const std::string& key) {
    return cache.get_or_compute(key, [&key] { return "v:" + key; });
  };
  fill("a");
  fill("b");
  EXPECT_TRUE(fill("a").hit);   // refresh a: b is now the LRU entry
  fill("c");                    // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(fill("a").hit);
  EXPECT_FALSE(fill("b").hit);  // recomputed
}

// ---- engine ------------------------------------------------------------------

TEST(ServeEngine, CheckResponseEmbedsComputeBytesVerbatim) {
  serve::Engine engine(small_engine_options());
  const std::string response = engine.handle_line(kCheckLine, "test");

  const auto request = parse_request_ok(kCheckLine);
  const std::string expected = serve::Engine::compute_check(request.check);
  EXPECT_NE(response.find("\"result\":" + expected), std::string::npos)
      << response;

  // And the embedded verdict is the library's verdict for the same query.
  analysis::TtpParams params;
  params.ring = net::fddi_ring(2);
  params.frame = params.async_frame = net::paper_frame_format();
  const auto verdict =
      analysis::ttp_schedulable(request.check.set, params, mbps(100));
  const auto doc = parse_ok(response);
  EXPECT_EQ(doc.find("result")->find("schedulable")->as_bool(),
            verdict.schedulable);
  EXPECT_EQ(response_status(doc), 200);
  EXPECT_EQ(doc.find("id")->number_token(), "7");
}

TEST(ServeEngine, GoldenRoundTripPerRequestType) {
  serve::Engine engine(small_engine_options());
  const std::string faultcheck_line =
      "{\"type\":\"faultcheck\",\"id\":1,\"protocol\":\"modified8025\","
      "\"bandwidth_mbps\":16,\"noise_ms\":2,\"streams\":["
      "{\"station\":0,\"period_ms\":100,\"payload_bits\":10000}]}";
  const std::string advise_line =
      "{\"type\":\"advise\",\"id\":2,\"stations\":10,\"sets\":4,"
      "\"bandwidths_mbps\":[16],\"seed\":3}";

  const auto fc_request = parse_request_ok(faultcheck_line);
  EXPECT_NE(engine.handle_line(faultcheck_line, "test")
                .find("\"result\":" +
                      serve::Engine::compute_faultcheck(fc_request.check)),
            std::string::npos);

  const auto advise_request = parse_request_ok(advise_line);
  EXPECT_NE(engine.handle_line(advise_line, "test")
                .find("\"result\":" +
                      serve::Engine::compute_advise(advise_request.advise)),
            std::string::npos);

  const auto ping = parse_ok(engine.handle_line("{\"type\":\"ping\"}", "t"));
  EXPECT_EQ(ping.find("result")->find("message")->as_string(), "pong");

  const auto stats = parse_ok(engine.handle_line("{\"type\":\"stats\"}", "t"));
  EXPECT_EQ(response_status(stats), 200);
  EXPECT_NE(stats.find("result")->find("counters"), nullptr);
  EXPECT_NE(stats.find("result")->find("latency_us"), nullptr);
}

TEST(ServeEngine, CacheHitAnswersByteIdenticalToMiss) {
  serve::Engine engine(small_engine_options());
  const std::string miss = engine.handle_line(kCheckLine, "test");
  const std::string hit = engine.handle_line(kCheckLine, "test");
  EXPECT_NE(miss, hit);  // the cached marker flips...
  std::string expected = miss;
  const std::string from = "\"cached\":false";
  const auto at = expected.find(from);
  ASSERT_NE(at, std::string::npos);
  expected.replace(at, from.size(), "\"cached\":true");
  EXPECT_EQ(hit, expected);  // ...and nothing else changes

  // A respelled-but-equal query is also a hit.
  const auto respelled = engine.handle_line(
      "{\"bandwidth_mbps\":1e2,\"protocol\":\"fddi\",\"streams\":["
      "{\"payload_bits\":1.0e4,\"period_ms\":50,\"station\":0},"
      "{\"station\":1,\"period_ms\":100,\"payload_bits\":20000}],"
      "\"type\":\"check\",\"id\":7}",
      "test");
  EXPECT_EQ(respelled, hit);
}

TEST(ServeEngine, MalformedJsonGetsOffsetPointedRejection) {
  serve::Engine engine(small_engine_options());
  const auto doc = parse_ok(engine.handle_line("{\"type\": }", "test"));
  EXPECT_EQ(response_status(doc), 400);
  EXPECT_EQ(doc.find("offset")->as_uint64(), 9u);  // the '}' after the colon
  EXPECT_FALSE(doc.find("error")->as_string().empty());
}

std::string check_line_with_station(const std::string& station) {
  return "{\"type\":\"check\",\"protocol\":\"fddi\",\"bandwidth_mbps\":100,"
         "\"streams\":[{\"station\":" +
         station + ",\"period_ms\":50,\"payload_bits\":10000}]}";
}

TEST(ServeEngine, OutOfRangeIntegersGet400NamingTheFieldAndBound) {
  serve::Engine engine(small_engine_options());
  const auto refusal = [&](const std::string& line) {
    const auto doc = parse_ok(engine.handle_line(line, "test"));
    EXPECT_EQ(response_status(doc), 400) << line;
    const obs::JsonValue* error = doc.find("error");
    return error == nullptr ? std::string() : error->as_string();
  };
  // 2^32 + 2 stations used to be truncated to a 2-station answer; 1001
  // is more than an FDDI ring holds, and each Monte Carlo set would hold
  // that many streams.
  EXPECT_NE(refusal("{\"type\":\"advise\",\"stations\":4294967298,"
                    "\"sets\":2,\"bandwidths_mbps\":[100]}")
                .find("\"stations\" must be <= 1000"),
            std::string::npos);
  EXPECT_NE(refusal("{\"type\":\"advise\",\"stations\":1001,"
                    "\"sets\":1,\"bandwidths_mbps\":[100]}")
                .find("\"stations\" must be <= 1000"),
            std::string::npos);
  EXPECT_NE(refusal("{\"type\":\"advise\",\"sets\":4294967298}")
                .find("\"sets\" must be <= 2147483647"),
            std::string::npos);
  // Station 2^32 used to alias station 0.
  EXPECT_NE(refusal(check_line_with_station("4294967296"))
                .find("\"station\" must be <= 2147483647"),
            std::string::npos);
  // Station INT_MAX used to overflow the ring size (station + 1).
  EXPECT_NE(refusal(check_line_with_station("2147483647"))
                .find("room for the ring size"),
            std::string::npos);
  // A deadline whose nanosecond count overflows uint64 used to be cast
  // anyway: undefined behaviour, and a silently dropped deadline.
  const std::string streams =
      "\"streams\":[{\"station\":0,\"period_ms\":50,\"payload_bits\":1}]";
  EXPECT_NE(refusal("{\"type\":\"check\",\"deadline_ms\":1e300," + streams +
                    "}")
                .find("\"deadline_ms\" must be <= 1e+12"),
            std::string::npos);

  // The largest accepted values still get through: station INT_MAX - 1
  // and a 1000-station advise are answered, and INT_MAX sets parse (that
  // Monte Carlo sweep is far too large to run here).
  EXPECT_EQ(response_status(parse_ok(engine.handle_line(
                check_line_with_station("2147483646"), "test"))),
            200);
  EXPECT_EQ(response_status(parse_ok(engine.handle_line(
                "{\"type\":\"check\",\"deadline_ms\":1e12," + streams + "}",
                "test"))),
            200);
  EXPECT_EQ(response_status(parse_ok(engine.handle_line(
                "{\"type\":\"advise\",\"stations\":1000,\"sets\":1,"
                "\"bandwidths_mbps\":[100]}",
                "test"))),
            200);
  const auto advise =
      parse_request_ok("{\"type\":\"advise\",\"sets\":2147483647}");
  EXPECT_EQ(advise.advise.sets, 2147483647);
}

TEST(ServeEngine, RefusalsCarryNoSourceLocation) {
  serve::Engine engine(small_engine_options());
  // A precondition failure while parsing: 400 with the reason only.
  const auto bad_deadline = parse_ok(engine.handle_line(
      "{\"type\":\"check\",\"streams\":[{\"station\":0,\"period_ms\":100,"
      "\"payload_bits\":1000,\"deadline_ms\":200}]}",
      "test"));
  EXPECT_EQ(response_status(bad_deadline), 400);
  const std::string error = bad_deadline.find("error")->as_string();
  EXPECT_NE(error.find("D <= P"), std::string::npos) << error;
  EXPECT_EQ(error.find(".cpp:"), std::string::npos) << error;

  // A precondition failure inside the compute (the strict JSON writer
  // refuses the non-finite result): 500 with the reason only.
  const auto non_finite = parse_ok(engine.handle_line(
      "{\"type\":\"check\",\"bandwidth_mbps\":1e-300,\"streams\":["
      "{\"station\":0,\"period_ms\":1e-300,\"payload_bits\":1e300}]}",
      "test"));
  EXPECT_EQ(response_status(non_finite), 500);
  const std::string failure = non_finite.find("error")->as_string();
  EXPECT_NE(failure.find("precondition failed"), std::string::npos) << failure;
  EXPECT_EQ(failure.find(".cpp:"), std::string::npos) << failure;

  // The CLI keeps printing what(), which still names the source location.
  try {
    TR_EXPECTS_MSG(1 + 1 == 3, "arithmetic");
    ADD_FAILURE() << "TR_EXPECTS_MSG did not throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(".cpp:"), std::string::npos);
    EXPECT_EQ(e.reason(), "precondition failed: 1 + 1 == 3 (arithmetic)");
  }
}

TEST(ServeEngine, OversizedRequestGets413) {
  auto options = small_engine_options();
  options.max_request_bytes = 64;
  serve::Engine engine(options);
  const std::string big(100, 'x');
  const auto doc = parse_ok(engine.handle_line(big, "test"));
  EXPECT_EQ(response_status(doc), 413);
}

TEST(ServeEngine, RateLimitsPerClientWithRetryHint) {
  auto options = small_engine_options();
  options.limit.rate_per_s = 2.0;
  options.limit.burst = 2.0;
  std::uint64_t now = 0;
  serve::Engine engine(options, [&now] { return now; });

  const auto send = [&](const std::string& client) {
    const std::string line =
        "{\"type\":\"check\",\"client\":\"" + client + "\",\"streams\":["
        "{\"station\":0,\"period_ms\":100,\"payload_bits\":1000}]}";
    return parse_ok(engine.handle_line(line, "fallback"));
  };

  EXPECT_EQ(response_status(send("a")), 200);
  EXPECT_EQ(response_status(send("a")), 200);
  const auto denied = send("a");
  EXPECT_EQ(response_status(denied), 429);
  EXPECT_GT(denied.find("retry_after_ms")->as_double(), 0.0);
  // Another client has its own bucket; ping bypasses the limiter.
  EXPECT_EQ(response_status(send("b")), 200);
  EXPECT_EQ(response_status(
                parse_ok(engine.handle_line("{\"type\":\"ping\"}", "a"))),
            200);
  // Half a second mints one token at 2/s.
  now += 500'000'000;
  EXPECT_EQ(response_status(send("a")), 200);
  EXPECT_EQ(response_status(send("a")), 429);
}

// ---- overload: deadlines and shedding ----------------------------------------

// The stepping clock makes deadline tests deterministic without sleeping.
// One compute request observes the clock in a fixed sequence:
//   1. handle_line entry (start)        -> +1 step
//   2. dispatch deadline pre-check      -> +1 step
//   3. rate-limiter timestamp           -> +1 step
//   4. batched job's deadline re-check  -> +1 step
//   5. job-cost EWMA sample             -> +1 step
//   6. handle_line latency sample       -> +1 step
// So at the pre-check 1 step has elapsed, and at the job re-check 3
// steps. Atomic because the job reads the clock from a pool thread.
// (Brittle by design: if dispatch gains a clock read, adjust the
// deadlines below rather than loosening the assertions.)
struct SteppingClock {
  std::atomic<std::uint64_t> now{0};
  std::uint64_t step_ns;
  explicit SteppingClock(std::uint64_t step) : step_ns(step) {}
  std::uint64_t operator()() { return now.fetch_add(step_ns) + step_ns; }
};

TEST(ServeOverload, ExpiredDeadlineIsRefusedBeforeAnyQueueing) {
  auto clock = std::make_shared<SteppingClock>(1'000'000);  // 1 ms per read
  serve::Engine engine(small_engine_options(), [clock] { return (*clock)(); });

  // 1 ms has elapsed by the pre-check; a 1 ms deadline is already gone.
  const std::string line =
      "{\"type\":\"check\",\"deadline_ms\":1,\"streams\":["
      "{\"station\":0,\"period_ms\":100,\"payload_bits\":1000}]}";
  const auto doc = parse_ok(engine.handle_line(line, "t"));
  EXPECT_EQ(response_status(doc), 504);
  EXPECT_DOUBLE_EQ(doc.find("elapsed_ms")->as_double(), 1.0);
  // Nothing was computed or cached: the identical query without a
  // deadline is a miss.
  const std::string relaxed =
      "{\"type\":\"check\",\"streams\":["
      "{\"station\":0,\"period_ms\":100,\"payload_bits\":1000}]}";
  const auto ok = parse_ok(engine.handle_line(relaxed, "t"));
  EXPECT_EQ(response_status(ok), 200);
  EXPECT_FALSE(ok.find("cached")->as_bool());
}

TEST(ServeOverload, DeadlineExpiringInQueueSkipsTheCompute) {
  auto clock = std::make_shared<SteppingClock>(1'000'000);
  serve::Engine engine(small_engine_options(), [clock] { return (*clock)(); });

  // 1 ms at the pre-check (passes), 3 ms at the job's re-check (expired):
  // the job is skipped before compute and answers 504 with the elapsed
  // wait.
  const std::string line =
      "{\"type\":\"check\",\"deadline_ms\":2.5,\"streams\":["
      "{\"station\":0,\"period_ms\":100,\"payload_bits\":1000}]}";
  const auto doc = parse_ok(engine.handle_line(line, "t"));
  EXPECT_EQ(response_status(doc), 504);
  EXPECT_DOUBLE_EQ(doc.find("elapsed_ms")->as_double(), 3.0);

  // A generous deadline on the same query computes normally (the failed
  // attempt must not have poisoned the cache).
  const std::string patient =
      "{\"type\":\"check\",\"deadline_ms\":1000,\"streams\":["
      "{\"station\":0,\"period_ms\":100,\"payload_bits\":1000}]}";
  EXPECT_EQ(response_status(parse_ok(engine.handle_line(patient, "t"))), 200);
}

TEST(ServeOverload, DeadlineIsNotPartOfTheCacheIdentity) {
  serve::Engine engine(small_engine_options());
  const std::string eager =
      "{\"type\":\"check\",\"deadline_ms\":60000,\"streams\":["
      "{\"station\":0,\"period_ms\":100,\"payload_bits\":1000}]}";
  const std::string no_deadline =
      "{\"type\":\"check\",\"streams\":["
      "{\"station\":0,\"period_ms\":100,\"payload_bits\":1000}]}";
  EXPECT_FALSE(
      parse_ok(engine.handle_line(eager, "t")).find("cached")->as_bool());
  // Same query, different patience: still a hit.
  EXPECT_TRUE(parse_ok(engine.handle_line(no_deadline, "t"))
                  .find("cached")
                  ->as_bool());
}

TEST(ServeOverload, ShedsColdComputeBeyondHighWaterButServesCacheHits) {
  auto options = small_engine_options();
  options.high_water = 1;
  serve::Engine engine(options);

  // Warm the cache while the queue is empty.
  EXPECT_EQ(response_status(parse_ok(engine.handle_line(kCheckLine, "t"))),
            200);

  // Wedge the admission queue at the watermark with a gated job.
  std::promise<void> gate;
  std::shared_future<void> opened(gate.get_future());
  std::promise<std::string> finished;
  std::future<std::string> wedge = finished.get_future();
  engine.batcher().submit([opened, &finished] {
    opened.wait();
    finished.set_value("done");
  });

  // Cold compute is refused up front with a structured 503 + back-off...
  const std::string cold =
      "{\"type\":\"check\",\"id\":\"cold\",\"streams\":["
      "{\"station\":3,\"period_ms\":10,\"payload_bits\":500}]}";
  const auto shed = parse_ok(engine.handle_line(cold, "t"));
  EXPECT_EQ(response_status(shed), 503);
  EXPECT_GT(shed.find("retry_after_ms")->as_double(), 0.0);
  EXPECT_EQ(shed.find("id")->as_string(), "cold");

  // ...while cached answers and control-plane traffic keep flowing.
  EXPECT_EQ(response_status(parse_ok(engine.handle_line(kCheckLine, "t"))),
            200);
  const auto stats =
      parse_ok(engine.handle_line("{\"type\":\"stats\"}", "t"));
  EXPECT_EQ(response_status(stats), 200);
  EXPECT_GE(stats.find("result")->find("batch_depth")->as_uint64(), 1u);

  // Once the backlog clears, the same cold query computes normally.
  gate.set_value();
  EXPECT_EQ(wedge.get(), "done");
  engine.drain();
  EXPECT_EQ(response_status(parse_ok(engine.handle_line(cold, "t"))), 200);
}

TEST(ServeOverload, AFreeWorkerAnswersAMissWhileAnotherJobRuns) {
  serve::Engine engine(small_engine_options());  // two workers

  // Hold one worker with a gated job, and wait until that job has started.
  std::promise<void> gate;
  std::shared_future<void> opened(gate.get_future());
  std::promise<void> started;
  engine.batcher().submit([opened, &started] {
    started.set_value();
    opened.wait();
  });
  started.get_future().wait();

  // A cold check is computed by the free worker; it must not wait for the
  // unrelated job to end.
  auto answer = std::make_shared<std::promise<std::string>>();
  std::future<std::string> response = answer->get_future();
  engine.handle_line_async(kCheckLine, "t", [answer](std::string&& r) {
    answer->set_value(std::move(r));
  });
  const bool answered = response.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;

  gate.set_value();
  engine.drain();
  ASSERT_TRUE(answered) << "the check waited behind the gated job";
  EXPECT_EQ(response_status(parse_ok(response.get())), 200);
}

TEST(ServeOverload, HighWaterZeroShedsEveryMiss) {
  auto options = small_engine_options();
  options.high_water = 0;  // cache-only mode: never admit new compute
  serve::Engine engine(options);
  EXPECT_EQ(response_status(parse_ok(engine.handle_line(kCheckLine, "t"))),
            503);
  const auto ping = parse_ok(engine.handle_line("{\"type\":\"ping\"}", "t"));
  EXPECT_EQ(response_status(ping), 200);
}

// ---- server ------------------------------------------------------------------

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::vector<std::string> read_lines(int fd, std::size_t expected) {
  std::vector<std::string> lines;
  std::string buffer;
  char chunk[4096];
  while (lines.size() < expected) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const auto nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      lines.push_back(buffer.substr(start, nl - start));
      start = nl + 1;
    }
    buffer.erase(0, start);
  }
  return lines;
}

TEST(ServeServer, PipelinedRequestsAnswerInOrderAndDrainOnStop) {
  serve::Server::Options options;
  options.engine.jobs = 2;
  serve::Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  ASSERT_GT(server.port(), 0);

  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);

  // First a lone ping, so the connection is known to be accepted and
  // served before the stop races the backlog.
  const std::string hello = "{\"type\":\"ping\",\"id\":\"hello\"}\n";
  ASSERT_EQ(::send(fd, hello.data(), hello.size(), 0),
            static_cast<ssize_t>(hello.size()));
  ASSERT_EQ(read_lines(fd, 1).size(), 1u);

  // One pipelined burst: pings, a compute query, and a malformed line.
  std::string burst;
  for (int i = 0; i < 5; ++i) {
    burst += "{\"type\":\"ping\",\"id\":" + std::to_string(i) + "}\n";
  }
  burst += std::string(kCheckLine) + "\n";
  burst += "{oops\n";
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), 0),
            static_cast<ssize_t>(burst.size()));

  // Stop while the burst is in flight: the drain must still answer every
  // line already received before the connection closes.
  server.request_stop();
  const auto lines = read_lines(fd, 7);
  server.wait();
  ::close(fd);

  ASSERT_EQ(lines.size(), 7u);
  for (int i = 0; i < 5; ++i) {
    const auto doc = parse_ok(lines[static_cast<std::size_t>(i)]);
    EXPECT_EQ(doc.find("id")->number_token(), std::to_string(i));
    EXPECT_EQ(response_status(doc), 200);
  }
  EXPECT_EQ(response_status(parse_ok(lines[5])), 200);
  EXPECT_EQ(response_status(parse_ok(lines[6])), 400);
}

TEST(ServeServer, OversizedLineGets413ThenTheConnectionCloses) {
  // Golden contract: ANY 413 is answered and then the server hangs up —
  // also for a complete oversized line — so the close no longer depends
  // on how TCP happened to chunk the bytes (a mid-line overflow and a
  // complete line behave identically).
  serve::Server::Options options;
  options.engine.jobs = 2;
  options.engine.max_request_bytes = 64;
  serve::Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);

  // One oversized (but complete) line, with a valid ping pipelined after
  // it that must NOT be answered: the 413 ends the conversation.
  const std::string oversized(200, 'x');
  const std::string payload =
      oversized + "\n{\"type\":\"ping\",\"id\":\"after\"}\n";
  ASSERT_EQ(::send(fd, payload.data(), payload.size(), 0),
            static_cast<ssize_t>(payload.size()));

  const auto lines = read_lines(fd, 2);  // returns early on EOF
  ASSERT_EQ(lines.size(), 1u) << "the pipelined ping was answered after 413";
  const auto doc = parse_ok(lines[0]);
  EXPECT_EQ(response_status(doc), 413);

  // And the socket is truly closed, not just quiet.
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  server.request_stop();
  server.wait();
}

TEST(ServeServer, IdleConnectionIsDroppedAfterTheTimeout) {
  serve::Server::Options options;
  options.engine.jobs = 2;
  options.idle_timeout_ms = 50;
  serve::Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);

  // A live request is answered...
  const std::string ping = "{\"type\":\"ping\"}\n";
  ASSERT_EQ(::send(fd, ping.data(), ping.size(), 0),
            static_cast<ssize_t>(ping.size()));
  ASSERT_EQ(read_lines(fd, 1).size(), 1u);

  // ...then a slow-loris client that sends nothing further is cut off
  // (recv unblocks with EOF once the server shuts the connection down).
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  server.request_stop();
  server.wait();
}

TEST(ServeServer, EveryResponseLineIsValidJson) {
  serve::Server::Options options;
  options.engine.jobs = 2;
  serve::Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);

  const std::string lines_out =
      std::string(kCheckLine) + "\n" +
      "{\"type\":\"stats\"}\n" +
      "not json at all\n" +
      "{\"type\":\"check\"}\n";
  ASSERT_EQ(::send(fd, lines_out.data(), lines_out.size(), 0),
            static_cast<ssize_t>(lines_out.size()));
  const auto lines = read_lines(fd, 4);
  ASSERT_EQ(lines.size(), 4u);
  for (const auto& line : lines) {
    EXPECT_TRUE(obs::is_valid_json(line)) << line;
    const auto doc = parse_ok(line);
    EXPECT_EQ(doc.find("schema")->as_string(), "tokenring.serve/1");
  }
  ::close(fd);
  server.request_stop();
  server.wait();
}

}  // namespace
