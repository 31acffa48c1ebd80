// Fault-injection tests for the serve/ connection path: ConnFsm, the
// reactor's per-connection framing machine, driven over the in-memory
// FaultyIo double so every fault a real socket can produce (short reads
// and writes, EINTR storms, exhausted readiness edges, mid-frame
// disconnects, byte corruption) is replayed deterministically from a
// seed.
//
// The expected bytes are frozen goldens: what the thread-per-connection
// front end's blocking loop wrote for the same inputs, fault-free, before
// ConnFsm became the only connection path. ConnFsm must keep producing
// them byte for byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tokenring/obs/json.hpp"
#include "tokenring/serve/conn_fsm.hpp"
#include "tokenring/serve/transport.hpp"
#include "tokenring/serve/wire.hpp"

namespace {

using namespace tokenring;
using serve::ConnectionEnd;
using serve::ConnectionLimits;
using serve::ConnFsm;
using serve::FaultyIo;
using serve::TransportFaultPlan;

/// Echo-style handler: a tiny JSON envelope around the request line, so
/// responses are checkable without any schedulability compute.
std::string echo_handler(std::string_view line) {
  std::string out = "{\"echo\":\"";
  out += obs::escape_json(std::string(line));
  out += "\"}";
  return out;
}

/// Stand-in for Engine::handle_line in the envelope sweep: the error
/// envelope around the line itself, a pure function of the line, so 200
/// seeds stay fast.
std::string envelope_handler(std::string_view line) {
  return serve::error_response("", 400, std::string(line));
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) break;
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

// ---- frozen goldens (threaded front end, fault-free) --------------------

const std::string kPipelinedGolden =
    "{\"echo\":\"{\\\"id\\\":1}\"}\n"
    "{\"echo\":\"{\\\"id\\\":2}\"}\n"
    "{\"echo\":\"{\\\"id\\\":3}\"}\n";

const std::string kPingGolden =
    "{\"echo\":\"{\\\"type\\\":\\\"ping\\\",\\\"id\\\":42}\"}\n";

const std::string kOversizedAfterPipelinedGolden =
    "{\"echo\":\"{\\\"id\\\":1}\"}\n"
    "{\"schema\":\"tokenring.serve/1\",\"id\":null,\"status\":413,"
    "\"error\":\"request line exceeds 32 bytes\"}\n";

const std::string kFourGolden =
    "{\"echo\":\"{\\\"id\\\":0}\"}\n"
    "{\"echo\":\"{\\\"id\\\":1}\"}\n"
    "{\"echo\":\"{\\\"id\\\":2}\"}\n"
    "{\"echo\":\"{\\\"id\\\":3}\"}\n";

const std::string kFragmentGolden = "{\"echo\":\"{\\\"id\\\":1}\"}\n";

const std::string kSweepGolden =
    "{\"echo\":\"{\\\"a\\\":1}\"}\n"
    "{\"echo\":\"{\\\"b\\\":2}\"}\n"
    "{\"echo\":\"{\\\"c\\\":3}\"}\n";

const std::string kHostileChunkingGolden =
    "{\"echo\":\"alpha\"}\n"
    "{\"echo\":\"beta\"}\n"
    "{\"echo\":\"gamma\"}\n";

const std::string kOver8Golden =
    "{\"schema\":\"tokenring.serve/1\",\"id\":null,\"status\":413,"
    "\"error\":\"request line exceeds 8 bytes\"}\n";

const std::string kCheckLine =
    "{\"type\":\"check\",\"id\":1,\"protocol\":\"fddi\","
    "\"bandwidth_mbps\":100,\"streams\":["
    "{\"station\":0,\"period_ms\":50,\"payload_bits\":10000}]}";

const std::string kEnvelopeGolden =
    "{\"schema\":\"tokenring.serve/1\",\"id\":null,\"status\":400,"
    "\"error\":\"{\\\"type\\\":\\\"check\\\",\\\"id\\\":1,"
    "\\\"protocol\\\":\\\"fddi\\\",\\\"bandwidth_mbps\\\":100,"
    "\\\"streams\\\":[{\\\"station\\\":0,\\\"period_ms\\\":50,"
    "\\\"payload_bits\\\":10000}]}\"}\n";

// ---- pumping the machine -----------------------------------------------

using Handler = std::string (*)(std::string_view);

/// Drive the FSM to completion with inline completions (submit answers
/// immediately, the reactor cache-hit/refusal shape). Returns the number
/// of readiness-edge pumps it took.
int pump_to_completion(ConnFsm& fsm, Handler handler = echo_handler) {
  int edges = 0;
  const ConnFsm::Submit inline_answer = [&](std::string_view line,
                                            std::uint64_t slot) {
    fsm.complete(slot, handler(line));
  };
  for (; !fsm.finished() && edges < 100000; ++edges) {
    fsm.on_readable(inline_answer);
    fsm.on_writable();
    if (!fsm.reading() && fsm.pending() == 0 && !fsm.wants_write()) break;
  }
  return edges;
}

/// Everything the FSM writes for `input` under `plan`, run to completion.
std::string serve_stream(const std::string& input,
                         const TransportFaultPlan& plan,
                         const ConnectionLimits& limits,
                         ConnectionEnd* end = nullptr) {
  FaultyIo io(input, plan);
  ConnFsm fsm(io, limits, "test");
  pump_to_completion(fsm);
  EXPECT_TRUE(fsm.finished());
  if (end != nullptr) *end = fsm.end();
  return io.output();
}

/// Whether `plan` kills either direction mid-stream.
bool resets(const TransportFaultPlan& plan) {
  return plan.reset_read_after != TransportFaultPlan::kNever ||
         plan.reset_write_after != TransportFaultPlan::kNever;
}

// ---- the byte transport under ConnFsm ----------------------------------

TEST(ServeTransport, ReadRidesOutEintrStormsAndShortReads) {
  TransportFaultPlan plan;
  plan.max_read_chunk = 1;  // 1-byte dribble
  plan.eintr_per_op = 3;    // every recv and send fails 3 times first
  FaultyIo io("hello world\n", plan);
  ConnFsm fsm(io, ConnectionLimits{}, "test");

  pump_to_completion(fsm);
  EXPECT_EQ(fsm.end(), ConnectionEnd::kPeerClosed);
  EXPECT_EQ(fsm.bytes_received(), 12u);
  EXPECT_EQ(io.output(), "{\"echo\":\"hello world\"}\n");
  EXPECT_GT(io.eintr_injected(), 0u);  // the storms actually fired
}

TEST(ServeTransport, WriteAllSurvivesShortWritesAndEintr) {
  // One 257-byte response flushed at most two bytes per send, each send
  // preceded by two EINTRs: the whole response lands, in order.
  TransportFaultPlan plan;
  plan.max_write_chunk = 2;
  plan.eintr_per_op = 2;
  FaultyIo io("request\n", plan);
  ConnFsm fsm(io, ConnectionLimits{}, "test");
  const std::string payload(257, 'z');
  fsm.on_readable([&](std::string_view, std::uint64_t slot) {
    fsm.complete(slot, std::string(payload));
  });
  fsm.on_writable();
  EXPECT_TRUE(fsm.finished());
  EXPECT_EQ(fsm.end(), ConnectionEnd::kPeerClosed);
  EXPECT_EQ(io.output(), payload + "\n");
  EXPECT_EQ(fsm.bytes_sent(), payload.size() + 1);
  EXPECT_GT(io.eintr_injected(), 0u);
}

TEST(ServeTransport, MidStreamResetSurfacesAsError) {
  TransportFaultPlan plan;
  plan.reset_read_after = 4;  // reads fail with ECONNRESET after 4 bytes
  ConnectionEnd end = ConnectionEnd::kPeerClosed;
  EXPECT_EQ(serve_stream("0123456789", plan, ConnectionLimits{}, &end), "");
  EXPECT_EQ(end, ConnectionEnd::kReadError);

  TransportFaultPlan wplan;
  wplan.reset_write_after = 3;  // sends fail with EPIPE after 3 bytes
  FaultyIo wio("abcdef\n", wplan);
  ConnFsm fsm(wio, ConnectionLimits{}, "test");
  fsm.on_readable([&](std::string_view line, std::uint64_t slot) {
    fsm.complete(slot, std::string(line));
  });
  fsm.on_writable();
  EXPECT_TRUE(fsm.finished());
  EXPECT_EQ(fsm.end(), ConnectionEnd::kWriteError);
  EXPECT_EQ(wio.output(), "abc");
  EXPECT_TRUE(wio.shutdown_called());
}

TEST(ServeTransport, StalledPeerReportsTimeoutNotHang) {
  TransportFaultPlan plan;
  plan.eagain_every = 1;  // the peer never sends: every recv is EAGAIN
  FaultyIo io("never delivered\n", plan);
  ConnFsm fsm(io, ConnectionLimits{}, "test");
  fsm.on_readable([](std::string_view, std::uint64_t) {
    ADD_FAILURE() << "nothing was delivered";
  });
  // The edge ended without a byte: control came back, the machine waits.
  EXPECT_TRUE(fsm.reading());
  EXPECT_TRUE(fsm.idle());
  EXPECT_EQ(fsm.bytes_received(), 0u);
  // The owner's timer verdict ends it.
  fsm.expire_idle();
  EXPECT_TRUE(fsm.finished());
  EXPECT_EQ(fsm.end(), ConnectionEnd::kIdleTimeout);
  EXPECT_EQ(io.output(), "");
}

TEST(ServeTransport, RandomPlansCoverTheWholeFaultMenu) {
  // The seeded generator must actually exercise every fault class across
  // a modest seed range, or the sweeps below test less than they claim.
  bool short_reads = false, short_writes = false, eintr = false;
  bool read_reset = false, write_reset = false, corruption = false;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const TransportFaultPlan plan = TransportFaultPlan::random(seed);
    short_reads |= plan.max_read_chunk != 0;
    short_writes |= plan.max_write_chunk != 0;
    eintr |= plan.eintr_per_op != 0;
    read_reset |= plan.reset_read_after != TransportFaultPlan::kNever;
    write_reset |= plan.reset_write_after != TransportFaultPlan::kNever;
    corruption |= plan.corrupt_read_at != TransportFaultPlan::kNever;
    // Determinism: the same seed always yields the same plan.
    const TransportFaultPlan again = TransportFaultPlan::random(seed);
    EXPECT_EQ(plan.max_read_chunk, again.max_read_chunk);
    EXPECT_EQ(plan.reset_read_after, again.reset_read_after);
    EXPECT_EQ(plan.corrupt_read_at, again.corrupt_read_at);
  }
  EXPECT_TRUE(short_reads && short_writes && eintr && read_reset &&
              write_reset && corruption);
}

// ---- how a connection ends ---------------------------------------------

TEST(ServeConnection, FramesPipelinedRequestsAcrossHostileChunking) {
  // Three pipelined lines, delivered one byte at a time under an EINTR
  // storm: framing must be unaffected and every response present, in
  // order. The empty line is skipped and the CR stripped.
  TransportFaultPlan plan;
  plan.max_read_chunk = 1;
  plan.eintr_per_op = 2;
  ConnectionEnd end = ConnectionEnd::kReadError;
  EXPECT_EQ(serve_stream("alpha\nbeta\r\n\ngamma\n", plan, ConnectionLimits{},
                         &end),
            kHostileChunkingGolden);
  EXPECT_EQ(end, ConnectionEnd::kPeerClosed);
}

TEST(ServeConnection, OversizedLineAnswers413OnceAndCloses) {
  ConnectionLimits limits;
  limits.max_line = 8;
  // The oversized line arrives complete, with a valid line pipelined
  // after it that must NOT be answered.
  FaultyIo io("0123456789abcdef\nok\n", TransportFaultPlan{});
  ConnFsm fsm(io, limits, "test");
  pump_to_completion(fsm);
  EXPECT_EQ(fsm.end(), ConnectionEnd::kOversized);
  EXPECT_TRUE(io.shutdown_called());
  EXPECT_EQ(io.output(), kOver8Golden);  // one 413, "ok" never answered
}

TEST(ServeConnection, UnboundedPartialLineAlsoAnswers413AndCloses) {
  ConnectionLimits limits;
  limits.max_line = 8;
  // No newline ever arrives: the buffered fragment crosses the cap and
  // the connection is cut with one 413, at any chunking.
  for (const std::size_t chunk : {0u, 1u, 7u}) {
    TransportFaultPlan plan;
    plan.max_read_chunk = chunk;
    ConnectionEnd end = ConnectionEnd::kPeerClosed;
    EXPECT_EQ(serve_stream(std::string(64, 'x'), plan, limits, &end),
              kOver8Golden)
        << "chunk " << chunk;
    EXPECT_EQ(end, ConnectionEnd::kOversized) << "chunk " << chunk;
  }
}

TEST(ServeConnection, IdleStallEndsWithTimeoutNotHang) {
  // A request fragment arrives, then the peer goes quiet (the next recv
  // ends the readiness edge). The idle verdict closes the connection and
  // the unfinished request gets no answer.
  TransportFaultPlan plan;
  plan.eagain_every = 2;
  FaultyIo io("unsent", plan);
  ConnFsm fsm(io, ConnectionLimits{}, "test");
  fsm.on_readable([](std::string_view, std::uint64_t) {
    ADD_FAILURE() << "an unterminated line was submitted";
  });
  EXPECT_EQ(fsm.bytes_received(), 6u);
  EXPECT_TRUE(fsm.reading());
  fsm.expire_idle();
  EXPECT_TRUE(fsm.finished());
  EXPECT_EQ(fsm.end(), ConnectionEnd::kIdleTimeout);
  EXPECT_TRUE(io.shutdown_called());
  EXPECT_EQ(io.output(), "");
}

TEST(ServeConnection, PeerResetWhileWritingEndsWithWriteError) {
  TransportFaultPlan plan;
  plan.reset_write_after = 4;  // the 20-byte echo response cannot land
  ConnectionEnd end = ConnectionEnd::kPeerClosed;
  EXPECT_EQ(serve_stream("request\n", plan, ConnectionLimits{}, &end),
            "{\"ec");
  EXPECT_EQ(end, ConnectionEnd::kWriteError);
}

TEST(ServeConnection, SeededFaultPlansNeverCrashAndSurvivorsStayWellFormed) {
  // The chaos sweep in miniature: 200 seeded fault plans, corrupting ones
  // included, over a pipelined request stream with injected readiness
  // edges. The machine must always finish with a coherent end, every
  // complete response line must be valid JSON, and without corruption
  // the lines are the handler's exact answers to a prefix of the stream
  // (all of it when the plan resets neither direction).
  const std::vector<std::string> requests = {"one", "two", "three", "four"};
  std::string stream;
  for (const auto& r : requests) stream += r + "\n";
  ConnectionLimits limits;
  limits.max_line = 1024;

  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    TransportFaultPlan plan = TransportFaultPlan::random(seed);
    plan.eagain_every = 2 + static_cast<std::uint32_t>(seed % 3);
    FaultyIo io(stream, plan);
    ConnFsm fsm(io, limits, "s");
    pump_to_completion(fsm);
    ASSERT_TRUE(fsm.finished()) << "seed " << seed;
    const ConnectionEnd end = fsm.end();
    EXPECT_TRUE(end == ConnectionEnd::kPeerClosed ||
                end == ConnectionEnd::kOversized ||
                end == ConnectionEnd::kReadError ||
                end == ConnectionEnd::kWriteError)
        << "seed " << seed;

    const bool corrupted = plan.corrupt_read_at < stream.size();
    const auto lines = split_lines(io.output());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      ASSERT_TRUE(obs::parse_json(lines[i]).ok)
          << "seed " << seed << " line " << i << ": " << lines[i];
      if (!corrupted) {
        ASSERT_LT(i, requests.size()) << "seed " << seed;
        EXPECT_EQ(lines[i], echo_handler(requests[i])) << "seed " << seed;
      }
    }
    if (!corrupted && !resets(plan)) {
      EXPECT_EQ(lines.size(), requests.size()) << "seed " << seed;
    }
  }
}

TEST(ServeConnection, EngineResponsesSurviveTransportFaultsBitIdentically) {
  // End-to-end property the chaos harness relies on: a well-formed
  // request whose response lands despite transport faults carries the
  // same bytes as the fault-free answer. The error envelope stands in for
  // Engine::handle_line (a pure function of the line, no Monte Carlo), so
  // 200 seeds stay fast.
  ConnectionLimits limits;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    TransportFaultPlan plan = TransportFaultPlan::random(seed);
    plan.corrupt_read_at = TransportFaultPlan::kNever;  // keep bytes honest
    plan.eagain_every = 2 + static_cast<std::uint32_t>(seed % 3);
    FaultyIo io(kCheckLine + "\n", plan);
    ConnFsm fsm(io, limits, "s");
    pump_to_completion(fsm, envelope_handler);
    EXPECT_TRUE(fsm.finished()) << "seed " << seed;
    const std::string& out = io.output();
    EXPECT_EQ(out, kEnvelopeGolden.substr(0, out.size())) << "seed " << seed;
    if (!resets(plan)) {
      EXPECT_EQ(out, kEnvelopeGolden) << "seed " << seed;
    }
  }
}

// ---- ConnFsm: the reactor's non-blocking framing machine ---------------
//
// The FSM never waits, so a FaultyIo plan's injected EAGAINs act as
// readiness-edge boundaries: every EAGAIN ends one on_readable()/
// on_writable() pump exactly like the kernel exhausting an epoll edge.

TEST(ServeConnFsm, PipelinedFrameSplitAcrossManyReadinessEdges) {
  // Three pipelined requests, with every second recv/send ending the
  // readiness edge and 5-byte chunks: same bytes out as one delivery.
  const std::string input =
      "{\"id\":1}\n{\"id\":2}\r\n\n{\"id\":3}\n";
  ConnectionLimits limits;
  TransportFaultPlan plan;
  plan.max_read_chunk = 5;
  plan.eagain_every = 2;
  FaultyIo io(input, plan);
  ConnFsm fsm(io, limits, "fsm");

  const int edges = pump_to_completion(fsm);
  EXPECT_TRUE(fsm.finished());
  EXPECT_EQ(fsm.end(), ConnectionEnd::kPeerClosed);
  // The plan actually fragmented the stream into multiple edges.
  EXPECT_GT(edges, 3);
  EXPECT_EQ(io.output(), kPipelinedGolden);
}

TEST(ServeConnFsm, ByteByByteFrameUnderEintrStorm) {
  const std::string input = "{\"type\":\"ping\",\"id\":42}\n";
  ConnectionLimits limits;
  TransportFaultPlan plan;
  plan.max_read_chunk = 1;  // one byte per recv
  plan.eintr_per_op = 3;    // three EINTRs before every recv/send lands
  plan.eagain_every = 3;    // and frequent edge exhaustion on top
  FaultyIo io(input, plan);
  ConnFsm fsm(io, limits, "fsm");

  pump_to_completion(fsm);
  EXPECT_TRUE(fsm.finished());
  EXPECT_GT(io.eintr_injected(), 0u);
  EXPECT_EQ(io.output(), kPingGolden);
}

TEST(ServeConnFsm, OversizedLineAnswers413AfterEarlierPipelinedResponses) {
  ConnectionLimits limits;
  limits.max_line = 32;
  const std::string small = "{\"id\":1}";
  const std::string huge(200, 'x');
  FaultyIo io(small + "\n" + huge + "\n", TransportFaultPlan{});
  ConnFsm fsm(io, limits, "fsm");

  // Defer the small request's completion: the 413 must queue behind it,
  // not jump the pipeline.
  std::vector<std::pair<std::string, std::uint64_t>> submitted;
  fsm.on_readable([&](std::string_view line, std::uint64_t slot) {
    submitted.emplace_back(std::string(line), slot);
  });
  ASSERT_EQ(submitted.size(), 1u);
  EXPECT_FALSE(fsm.reading());  // oversized stopped the read side
  fsm.on_writable();
  EXPECT_EQ(io.output(), "");  // nothing released while slot 0 is pending

  fsm.complete(submitted[0].second, echo_handler(submitted[0].first));
  fsm.on_writable();
  EXPECT_TRUE(fsm.finished());
  EXPECT_EQ(fsm.end(), ConnectionEnd::kOversized);
  EXPECT_EQ(io.output(), kOversizedAfterPipelinedGolden);
}

TEST(ServeConnFsm, OutOfOrderCompletionsReleaseInSlotOrder) {
  const std::string input =
      "{\"id\":0}\n{\"id\":1}\n{\"id\":2}\n{\"id\":3}\n";
  ConnectionLimits limits;
  FaultyIo io(input, TransportFaultPlan{});
  ConnFsm fsm(io, limits, "fsm");

  std::vector<std::pair<std::string, std::uint64_t>> submitted;
  fsm.on_readable([&](std::string_view line, std::uint64_t slot) {
    submitted.emplace_back(std::string(line), slot);
  });
  ASSERT_EQ(submitted.size(), 4u);
  EXPECT_EQ(fsm.pending(), 4u);

  // Complete 2, 0, 3, 1: bytes must still come out as 0, 1, 2, 3.
  for (const std::size_t k : {2u, 0u, 3u, 1u}) {
    fsm.complete(submitted[k].second, echo_handler(submitted[k].first));
    fsm.on_writable();
  }
  EXPECT_TRUE(fsm.finished());
  // The partial release points were in order too: after completing only
  // slot 2 nothing could flush, which the in-order golden proves.
  EXPECT_EQ(io.output(), kFourGolden);
}

TEST(ServeConnFsm, TrailingFragmentAtEofIsDroppedUnanswered) {
  const std::string input = "{\"id\":1}\n{\"never-finished\":";
  ConnectionLimits limits;
  FaultyIo io(input, TransportFaultPlan{});
  ConnFsm fsm(io, limits, "fsm");

  pump_to_completion(fsm);
  EXPECT_TRUE(fsm.finished());
  EXPECT_EQ(io.output(), kFragmentGolden);
}

TEST(ServeConnFsm, CrlfLineAtTheCapGetsTheSameAnswerAtEveryChunking) {
  // "12345678\r\n" is an 8-byte request once its CR is stripped, so at
  // max_line = 8 it is answered. A split just before the newline leaves
  // a 9-byte fragment ending in CR; the verdict must not depend on where
  // TCP split the bytes.
  ConnectionLimits limits;
  limits.max_line = 8;
  for (const std::size_t chunk : {0u, 1u, 2u, 3u, 4u, 5u, 8u, 9u, 10u}) {
    TransportFaultPlan plan;
    plan.max_read_chunk = chunk;
    ConnectionEnd end = ConnectionEnd::kOversized;
    EXPECT_EQ(serve_stream("12345678\r\n", plan, limits, &end),
              "{\"echo\":\"12345678\"}\n")
        << "chunk " << chunk;
    EXPECT_EQ(end, ConnectionEnd::kPeerClosed) << "chunk " << chunk;
    // One byte longer is oversized at every chunking: exactly one 413.
    EXPECT_EQ(serve_stream("123456789\n", plan, limits, &end), kOver8Golden)
        << "chunk " << chunk;
    EXPECT_EQ(serve_stream("123456789\r\n", plan, limits, &end),
              kOver8Golden)
        << "chunk " << chunk;
    EXPECT_EQ(end, ConnectionEnd::kOversized) << "chunk " << chunk;
  }
}

TEST(ServeConnFsm, RandomFaultPlansMatchTheBlockingLoopByteForByte) {
  // 200 seeded fault plans over a pipelined stream, each layered with
  // injected readiness edges: any responses the FSM manages to produce
  // must be the golden prefix, and the whole golden when the plan resets
  // neither direction (short writes plus EINTR still deliver everything).
  // Corruption is excluded here (it garbles the echoed payload); the
  // ServeConnection sweeps above cover it.
  const std::string input = "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n";
  ConnectionLimits limits;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    TransportFaultPlan plan = TransportFaultPlan::random(seed);
    plan.corrupt_read_at = TransportFaultPlan::kNever;
    // >= 2: every-single-call EAGAIN would never let a byte through.
    plan.eagain_every = 2 + static_cast<std::uint32_t>(seed % 3);
    FaultyIo io(input, plan);
    ConnFsm fsm(io, limits, "fsm");
    pump_to_completion(fsm);
    EXPECT_TRUE(fsm.finished()) << "seed " << seed;
    const std::string& out = io.output();
    EXPECT_EQ(out, kSweepGolden.substr(0, out.size())) << "seed " << seed;
    if (!resets(plan)) {
      EXPECT_EQ(out, kSweepGolden) << "seed " << seed;
    }
  }
}

}  // namespace
