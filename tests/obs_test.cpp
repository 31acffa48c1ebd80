// Tests for the observability layer: JSON emission and validation, the
// metric registry's determinism contract across thread counts, trace
// sinks (JSONL round-trip, ring-buffer forensics), and the run-manifest
// schema (golden document).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tokenring/breakdown/monte_carlo.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/exec/executor.hpp"
#include "tokenring/experiments/setup.hpp"
#include "tokenring/msg/generator.hpp"
#include "tokenring/obs/json.hpp"
#include "tokenring/obs/manifest.hpp"
#include "tokenring/obs/registry.hpp"
#include "tokenring/obs/span.hpp"
#include "tokenring/obs/trace_sinks.hpp"
#include "tokenring/sim/trace.hpp"

namespace {

using namespace tokenring;

// ---- JSON primitives ---------------------------------------------------------

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(obs::escape_json("plain"), "plain");
  EXPECT_EQ(obs::escape_json("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::escape_json("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::escape_json("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(obs::escape_json(std::string("a\x01z")), "a\\u0001z");
  // Multi-byte UTF-8 passes through unchanged.
  EXPECT_EQ(obs::escape_json("π"), "π");
}

TEST(JsonNumber, RoundTripsAndHandlesNonFinite) {
  EXPECT_EQ(obs::json_number(0.0), "0");
  EXPECT_EQ(obs::json_number(2.5), "2.5");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
  // Shortest form still parses back to the identical bits.
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(obs::json_number(v)), v);
}

TEST(JsonValidator, AcceptsValidRejectsInvalid) {
  EXPECT_TRUE(obs::is_valid_json("{}"));
  EXPECT_TRUE(obs::is_valid_json(" { \"a\" : [1, -2.5e3, true, null] } "));
  EXPECT_TRUE(obs::is_valid_json("\"\\u00e9\""));
  EXPECT_FALSE(obs::is_valid_json(""));
  EXPECT_FALSE(obs::is_valid_json("{"));
  EXPECT_FALSE(obs::is_valid_json("{} extra"));
  EXPECT_FALSE(obs::is_valid_json("{'a':1}"));
  EXPECT_FALSE(obs::is_valid_json("[01]"));
  EXPECT_FALSE(obs::is_valid_json("\"\n\""));  // raw control char
}

TEST(JsonWriter, CompactObjectWithNestedArray) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("name").value_string("x\"y");
  w.key("vals");
  w.begin_array();
  w.value_int(-3);
  w.value_uint(7);
  w.value_bool(false);
  w.value_null();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.depth(), 0u);
  EXPECT_EQ(os.str(), R"({"name":"x\"y","vals":[-3,7,false,null]})");
  EXPECT_TRUE(obs::is_valid_json(os.str()));
}

TEST(JsonWriter, StrictModeRejectsNonFiniteAndInvalidRawTokens) {
  // Wire formats opt into strict mode: a degraded-but-parseable document
  // (a latency rendered as null) is worse there than a failed request.
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_array();
  EXPECT_THROW(w.value_number(std::nan("")), PreconditionError);
  EXPECT_THROW(w.value_number(std::numeric_limits<double>::infinity()),
               PreconditionError);
  EXPECT_THROW(w.value_raw("{oops"), PreconditionError);
  w.value_raw("{\"ok\":1}");  // pre-rendered tokens must themselves parse
  w.value_number(2.5);
  w.end_array();
  EXPECT_EQ(os.str(), R"([{"ok":1},2.5])");

  // The default (manifest) mode keeps the lenient non-finite -> null
  // rendering so metric emission never throws mid-document.
  std::ostringstream lenient;
  obs::JsonWriter lw(lenient);
  lw.begin_array();
  lw.value_number(std::nan(""));
  lw.end_array();
  EXPECT_EQ(lenient.str(), "[null]");
}

TEST(JsonParse, BuildsDocumentWithExactNumberTokens) {
  const auto doc = obs::parse_json(
      R"( {"seed": 9007199254740993, "rate": 1e-3, "tags": ["a", null]} )");
  ASSERT_TRUE(doc.ok) << doc.error;
  const obs::JsonValue* seed = doc.value.find("seed");
  ASSERT_NE(seed, nullptr);
  // 2^53 + 1 is not representable as a double; the raw token preserves it.
  EXPECT_EQ(seed->as_int64(), 9007199254740993LL);
  EXPECT_EQ(seed->number_token(), "9007199254740993");
  EXPECT_DOUBLE_EQ(doc.value.find("rate")->as_double(), 1e-3);
  EXPECT_EQ(doc.value.find("rate")->number_token(), "1e-3");
  ASSERT_EQ(doc.value.find("tags")->items().size(), 2u);
  EXPECT_EQ(doc.value.find("tags")->items()[0].as_string(), "a");
  EXPECT_TRUE(doc.value.find("tags")->items()[1].is_null());
  EXPECT_EQ(doc.value.find("missing"), nullptr);
}

TEST(JsonParse, AccessorsRejectLossyConversions) {
  const auto doc = obs::parse_json(
      R"({"half": 1.5, "big": 18446744073709551615, "s": "x"})");
  ASSERT_TRUE(doc.ok) << doc.error;
  // No silent truncation: 1.5 is a number but not an integer.
  EXPECT_THROW(doc.value.find("half")->as_int64(), PreconditionError);
  // 2^64 - 1 fits unsigned but overflows signed.
  EXPECT_EQ(doc.value.find("big")->as_uint64(), 18446744073709551615ULL);
  EXPECT_THROW(doc.value.find("big")->as_int64(), PreconditionError);
  EXPECT_THROW(doc.value.find("s")->as_double(), PreconditionError);
  EXPECT_THROW(doc.value.as_string(), PreconditionError);
}

TEST(JsonParse, ReportsByteOffsetOfFirstError) {
  struct Case {
    const char* text;
    std::size_t offset;
  };
  // The offset is what a malformed-request 400 points the client at, so
  // pin it to the exact offending byte, not just "it failed".
  const Case cases[] = {
      {"{\"type\": }", 9},       // value expected where '}' sits
      {"{} extra", 3},           // trailing garbage after the document
      {"[1, 2", 5},              // unterminated array: fails at end of input
      {"{\"a\" 1}", 5},          // missing ':' separator
      {"[01]", 2},               // leading zero: '1' starts the garbage
  };
  for (const auto& c : cases) {
    const auto doc = obs::parse_json(c.text);
    EXPECT_FALSE(doc.ok) << c.text;
    EXPECT_EQ(doc.error_offset, c.offset) << c.text << ": " << doc.error;
    EXPECT_FALSE(doc.error.empty()) << c.text;
    // validate_json is parse_json minus the document; same diagnostics.
    const auto validated = obs::validate_json(c.text);
    EXPECT_FALSE(validated.ok) << c.text;
    EXPECT_EQ(validated.error_offset, c.offset) << c.text;
  }
}

TEST(JsonParse, DecodesUnicodeEscapesToUtf8) {
  // Basic multilingual plane escape: \u00e9 -> U+00E9 as two UTF-8 bytes.
  const auto bmp = obs::parse_json("\"caf\\u00e9\"");
  ASSERT_TRUE(bmp.ok);
  EXPECT_EQ(bmp.value.as_string(), "caf\xc3\xa9");
  // Surrogate pair combines into one 4-byte UTF-8 sequence (U+1F600).
  const auto pair = obs::parse_json("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(pair.ok);
  EXPECT_EQ(pair.value.as_string(), "\xf0\x9f\x98\x80");
  // An unpaired surrogate is still accepted (the validator takes any hex
  // quad) but decodes to U+FFFD instead of smuggling invalid UTF-8.
  const auto lone = obs::parse_json("\"\\ud83d!\"");
  ASSERT_TRUE(lone.ok);
  EXPECT_EQ(lone.value.as_string(), "\xef\xbf\xbd!");
}

// ---- registry ----------------------------------------------------------------

TEST(Registry, CounterAggregationIsDeterministicAcrossJobs) {
  // The same logical workload recorded under 1 worker and under 8 workers
  // must produce bit-identical counter values: integers, order-independent
  // merges. This is the manifest's cross---jobs determinism contract.
  auto run_workload = [](std::size_t jobs) {
    obs::Registry::global().reset_values();
    const exec::Executor executor(jobs);
    executor.parallel_for(64, [](std::size_t i) {
      static const obs::Counter trials("obs_test.trials");
      static const obs::Counter weight("obs_test.weight");
      static const obs::Gauge deepest("obs_test.deepest");
      static const obs::Histogram util("obs_test.util", {0.25, 0.5, 0.75});
      trials.add();
      weight.add(i);
      deepest.record(i % 17);
      util.observe(static_cast<double>(i) / 64.0);
    });
    return obs::Registry::global().snapshot();
  };

  const auto seq = run_workload(1);
  const auto par = run_workload(8);

  EXPECT_EQ(seq.counters.at("obs_test.trials"), 64u);
  EXPECT_EQ(seq.counters.at("obs_test.trials"),
            par.counters.at("obs_test.trials"));
  EXPECT_EQ(seq.counters.at("obs_test.weight"), 64u * 63u / 2u);
  EXPECT_EQ(seq.counters.at("obs_test.weight"),
            par.counters.at("obs_test.weight"));
  EXPECT_EQ(seq.gauges.at("obs_test.deepest"), 16u);
  EXPECT_EQ(seq.gauges.at("obs_test.deepest"),
            par.gauges.at("obs_test.deepest"));
  const auto& h1 = seq.histograms.at("obs_test.util");
  const auto& h8 = par.histograms.at("obs_test.util");
  EXPECT_EQ(h1.counts, h8.counts);
  EXPECT_EQ(h1.total, 64u);
}

TEST(Registry, PredicateEvalCounterIsDeterministicAcrossJobs) {
  // The saturation search bumps "breakdown.predicate_evals" once per probe.
  // The probe sequence depends only on verdicts (never on timing or thread
  // placement), so the same Monte Carlo run under 1 worker and 4 workers
  // must land on the exact same total — this is the counter the run
  // manifest exposes as the search-effort metric.
  experiments::PaperSetup setup;
  setup.num_stations = 6;
  const BitsPerSecond bw = mbps(16);
  const auto predicate =
      setup.pdp_predicate(analysis::PdpVariant::kModified8025, bw);

  auto run_workload = [&](std::size_t jobs) {
    obs::Registry::global().reset_values();
    const exec::Executor executor(jobs);
    breakdown::MonteCarloOptions options;
    options.num_sets = 12;
    msg::MessageSetGenerator generator(setup.generator_config());
    const auto estimate = breakdown::estimate_breakdown_utilization(
        generator, predicate, bw, 7, executor, options);
    const auto snap = obs::Registry::global().snapshot();
    return std::pair(estimate.mean(), snap.counters.at("breakdown.predicate_evals"));
  };

  const auto [mean1, evals1] = run_workload(1);
  const auto [mean4, evals4] = run_workload(4);
  EXPECT_EQ(mean1, mean4);
  EXPECT_EQ(evals1, evals4);
  EXPECT_GT(evals1, 0u);
}

TEST(Registry, PredicateEvalCounterIsDeterministicAcrossBatchSizes) {
  // The batched (SoA) estimator replays every scalar probe lane for lane,
  // and its per-lane searches bump "breakdown.predicate_evals" once per
  // probe evaluated for that lane — never once per full-width kernel pass.
  // So the manifest's search-effort metric must agree exactly between the
  // scalar path and the batched path at every batch size (and so must the
  // trial tallies).
  experiments::PaperSetup setup;
  setup.num_stations = 6;
  const BitsPerSecond bw = mbps(16);
  const auto predicate =
      setup.pdp_predicate(analysis::PdpVariant::kModified8025, bw);
  const auto batch_factory =
      setup.pdp_batch_kernel_factory(analysis::PdpVariant::kModified8025, bw);

  struct Tally {
    double mean = 0.0;
    std::uint64_t evals = 0;
    std::uint64_t trials = 0;
  };
  auto run_scalar = [&] {
    obs::Registry::global().reset_values();
    const exec::Executor executor(2);
    breakdown::MonteCarloOptions options;
    options.num_sets = 12;
    msg::MessageSetGenerator generator(setup.generator_config());
    const auto estimate = breakdown::estimate_breakdown_utilization(
        generator, predicate, bw, 7, executor, options);
    const auto snap = obs::Registry::global().snapshot();
    return Tally{estimate.mean(),
                 snap.counters.at("breakdown.predicate_evals"),
                 snap.counters.at("breakdown.trials")};
  };
  auto run_batched = [&](std::size_t batch_size) {
    obs::Registry::global().reset_values();
    const exec::Executor executor(2);
    breakdown::MonteCarloOptions options;
    options.num_sets = 12;
    options.batch_size = batch_size;
    msg::MessageSetGenerator generator(setup.generator_config());
    const auto estimate = breakdown::estimate_breakdown_utilization(
        generator, batch_factory, bw, 7, executor, options);
    const auto snap = obs::Registry::global().snapshot();
    return Tally{estimate.mean(),
                 snap.counters.at("breakdown.predicate_evals"),
                 snap.counters.at("breakdown.trials")};
  };

  const Tally scalar = run_scalar();
  const Tally batch1 = run_batched(1);
  const Tally batch64 = run_batched(64);
  EXPECT_GT(scalar.evals, 0u);
  EXPECT_EQ(scalar.trials, 12u);
  EXPECT_EQ(batch1.mean, scalar.mean);
  EXPECT_EQ(batch1.evals, scalar.evals);
  EXPECT_EQ(batch1.trials, scalar.trials);
  EXPECT_EQ(batch64.mean, scalar.mean);
  EXPECT_EQ(batch64.evals, scalar.evals);
  EXPECT_EQ(batch64.trials, scalar.trials);
}

TEST(Registry, GaugeSurvivesWorkerThreadRetirement) {
  // Gauges fold by max when a pool thread exits; the high watermark set on
  // a retired worker must survive into later snapshots unscaled.
  obs::Registry::global().reset_values();
  {
    const exec::Executor executor(4);
    executor.parallel_for(16, [](std::size_t i) {
      static const obs::Gauge peak("obs_test.retire_peak");
      peak.record(100 + i);
    });
  }  // pool threads join and retire their shards here
  const auto snap = obs::Registry::global().snapshot();
  EXPECT_EQ(snap.gauges.at("obs_test.retire_peak"), 115u);
}

TEST(Registry, HistogramBucketsBySampleValue) {
  obs::Registry::global().reset_values();
  const obs::Histogram h("obs_test.hist", {1.0, 10.0});
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (inclusive upper bound)
  h.observe(5.0);   // bucket 1 (<= 10)
  h.observe(99.0);  // overflow bucket
  const auto snap = obs::Registry::global().snapshot();
  const auto& data = snap.histograms.at("obs_test.hist");
  EXPECT_EQ(data.counts, (std::vector<std::uint64_t>{2, 1, 1}));
  EXPECT_EQ(data.total, 4u);
}

TEST(Span, RecordsCountAndDuration) {
  obs::Registry::global().reset_values();
  for (int i = 0; i < 3; ++i) {
    const obs::Span span("obs_test.span");
  }
  const auto profile = obs::span_profile();
  const auto& stats = profile.at("obs_test.span");
  EXPECT_EQ(stats.count, 3u);
  EXPECT_GE(stats.total_ns, stats.max_ns);
}

// ---- JSONL trace sink --------------------------------------------------------

sim::TraceRecord make_record(double at, sim::TraceEventKind kind, int station,
                             double detail) {
  sim::TraceRecord r;
  r.at = at;
  r.kind = kind;
  r.station = station;
  r.detail = detail;
  return r;
}

TEST(JsonlTraceSink, EmitsOneValidObjectPerLineWithKindSpecificFields) {
  std::ostringstream os;
  {
    obs::JsonlTraceSink sink(os);
    ASSERT_TRUE(sink.ok());
    sink.emit(make_record(0.001, sim::TraceEventKind::kMessageArrival, 2,
                          12000.0));
    sink.emit(make_record(0.002, sim::TraceEventKind::kMessageComplete, 2,
                          0.0004));
    sink.emit(make_record(0.003, sim::TraceEventKind::kDeadlineMiss, 5,
                          0.25));
    sink.emit(make_record(0.004, sim::TraceEventKind::kTokenArrival, 0,
                          -0.0001));
  }  // destructor flushes

  std::istringstream lines(os.str());
  std::string line;
  std::vector<std::string> seen;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(obs::is_valid_json(line)) << line;
    seen.push_back(line);
  }
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0],
            R"({"at_s":0.001,"kind":"message_arrival","station":2,)"
            R"("payload_bits":12000})");
  EXPECT_EQ(seen[1],
            R"({"at_s":0.002,"kind":"message_complete","station":2,)"
            R"("response_time_s":4e-04})");
  EXPECT_EQ(seen[2],
            R"({"at_s":0.003,"kind":"deadline_miss","station":5,)"
            R"("response_time_s":0.25})");
  EXPECT_EQ(seen[3],
            R"({"at_s":0.004,"kind":"token_arrival","station":0,)"
            R"("earliness_s":-1e-04})");
}

TEST(JsonlTraceSink, KindNamesAndDetailFieldsAreStable) {
  using K = sim::TraceEventKind;
  EXPECT_STREQ(obs::json_kind_name(K::kSyncFrameStart), "sync_frame_start");
  EXPECT_STREQ(obs::json_kind_name(K::kAsyncFrame), "async_frame");
  EXPECT_STREQ(obs::json_detail_field(K::kSyncFrameStart), "frame_time_s");
  EXPECT_STREQ(obs::json_detail_field(K::kAsyncFrame), "frame_time_s");
  EXPECT_STREQ(obs::json_detail_field(K::kMessageArrival), "payload_bits");
  EXPECT_STREQ(obs::json_detail_field(K::kDeadlineMiss), "response_time_s");
}

// ---- ring-buffer sink --------------------------------------------------------

TEST(RingBufferSink, KeepsExactlyLastNEventsBeforeFirstMiss) {
  constexpr std::size_t kCapacity = 4;
  obs::RingBufferSink sink(kCapacity);

  // 10 ordinary events, then the miss, then noise that must be ignored.
  for (int i = 0; i < 10; ++i) {
    sink.emit(make_record(0.001 * i, sim::TraceEventKind::kTokenArrival, i,
                          0.0));
  }
  sink.emit(
      make_record(0.5, sim::TraceEventKind::kDeadlineMiss, 7, 0.123));
  for (int i = 0; i < 5; ++i) {
    sink.emit(make_record(1.0 + i, sim::TraceEventKind::kAsyncFrame, 1, 0.0));
  }

  const auto window = sink.before_miss();
  ASSERT_EQ(window.size(), kCapacity);
  // Oldest-first: stations 6, 7, 8, 9 — the last four before the miss.
  for (std::size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(window[i].station, static_cast<int>(6 + i));
    EXPECT_EQ(window[i].kind, sim::TraceEventKind::kTokenArrival);
  }
  ASSERT_TRUE(sink.first_miss().has_value());
  EXPECT_EQ(sink.first_miss()->station, 7);
  EXPECT_DOUBLE_EQ(sink.first_miss()->response_time(), 0.123);
}

TEST(RingBufferSink, YoungSimKeepsFewerThanCapacity) {
  obs::RingBufferSink sink(8);
  sink.emit(make_record(0.0, sim::TraceEventKind::kMessageArrival, 0, 1.0));
  sink.emit(make_record(0.1, sim::TraceEventKind::kDeadlineMiss, 0, 0.2));
  EXPECT_EQ(sink.before_miss().size(), 1u);
  EXPECT_TRUE(sink.first_miss().has_value());
}

TEST(FanOutSink, BroadcastsInOrder) {
  std::vector<int> order;
  sim::CallbackSink a([&](const sim::TraceRecord&) { order.push_back(1); });
  sim::CallbackSink b([&](const sim::TraceRecord&) { order.push_back(2); });
  obs::FanOutSink fan({&a, &b});
  fan.emit(make_record(0.0, sim::TraceEventKind::kTokenArrival, 0, 0.0));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ---- run manifest ------------------------------------------------------------

TEST(RunManifest, GoldenDocument) {
  obs::RunManifest m;
  m.tool = "golden_tool";
  m.version = "1.0.0";
  m.git = "deadbee";
  m.seed = 42;
  m.config = {{"alpha", "0.5"}, {"label", "a b"}};
  m.results.push_back({"points",
                       {"x", "name"},
                       {{"1.5", "first"}, {"-2", "second row"}}});
  m.metrics.counters["sim.runs"] = 3;
  m.metrics.gauges["sim.max_queue_depth"] = 9;
  m.metrics.histograms["util"] = {{0.5}, {2, 1}, 3};
  m.metrics.spans["fig1"] = {1, 1000, 1000};

  std::ostringstream os;
  m.write_json(os, 2);
  EXPECT_TRUE(obs::is_valid_json(os.str()));

  const std::string golden = R"({
  "schema": "tokenring.run_manifest/1",
  "tool": "golden_tool",
  "version": "1.0.0",
  "git": "deadbee",
  "seed": 42,
  "jobs": null,
  "config": {
    "alpha": "0.5",
    "label": "a b"
  },
  "results": [
    {
      "name": "points",
      "headers": [
        "x",
        "name"
      ],
      "rows": [
        {
          "x": 1.5,
          "name": "first"
        },
        {
          "x": -2,
          "name": "second row"
        }
      ]
    }
  ],
  "counters": {
    "sim.runs": 3
  },
  "gauges": {
    "sim.max_queue_depth": 9
  },
  "histograms": {
    "util": {
      "bounds": [
        0.5
      ],
      "counts": [
        2,
        1
      ],
      "total": 3
    }
  },
  "span_profile": {
    "fig1": {
      "count": 1,
      "total_ns": 1000,
      "max_ns": 1000
    }
  }
}
)";
  EXPECT_EQ(os.str(), golden);
}

TEST(RunManifest, CompactFormIsValidJson) {
  obs::RunManifest m;
  m.tool = "t";
  std::ostringstream os;
  m.write_json(os, 0);
  const std::string line = os.str();
  // Single line plus trailing newline.
  EXPECT_EQ(line.find('\n'), line.size() - 1);
  EXPECT_TRUE(obs::is_valid_json(line));
}

}  // namespace
