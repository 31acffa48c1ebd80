// Tests for the query layer (query/): the frozen bytes of the daemon's
// compute handlers, the protocol-name mapping, ring sizing, the shared
// parameter blocks and the range rules both front ends enforce.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tokenring/obs/json.hpp"
#include "tokenring/planner/planner.hpp"
#include "tokenring/query/query.hpp"
#include "tokenring/serve/engine.hpp"
#include "tokenring/serve/wire.hpp"

namespace {

using namespace tokenring;

// ---- frozen goldens ---------------------------------------------------------

struct ComputeGolden {
  const char* request;
  const char* result;
};

// Engine::compute_* bytes, captured from the build before the query layer
// existed (when the handlers re-derived tokenring_tool's subcommands): all
// three protocols, 802.5 sets with and without misses, a faultcheck set
// infeasible even fault-free ("margin":null), deadlines below the period,
// and two small advise queries. tool_test.cpp freezes the CLI output for
// the same scenarios.
constexpr ComputeGolden kComputeGoldens[] = {
    {R"({"type":"check","protocol":"fddi","bandwidth_mbps":100,)"
     R"("streams":[{"station":0,"period_ms":50,"payload_bits":10000},)"
     R"({"station":1,"period_ms":100,"payload_bits":20000}]})",
     R"({"protocol":"fddi","schedulable":true,"ttrt_ms":0.4043206805162048,)"
     R"("allocated_ms":0.003872680261228842,)"
     R"("available_ms":0.3948111762623431})"},
    {R"({"type":"check","protocol":"ieee8025","bandwidth_mbps":16,)"
     R"("streams":[{"station":0,"period_ms":50,"payload_bits":10000},)"
     R"({"station":1,"period_ms":100,"payload_bits":20000}]})",
     R"({"protocol":"ieee8025","schedulable":true,"blocking_us":78,)"
     R"("misses":[]})"},
    {R"({"type":"check","protocol":"modified8025","bandwidth_mbps":4,)"
     R"("streams":[{"station":0,"period_ms":50,"payload_bits":10000},)"
     R"({"station":1,"period_ms":100,"payload_bits":20000}]})",
     R"({"protocol":"modified8025","schedulable":true,"blocking_us":312,)"
     R"("misses":[]})"},
    {R"({"type":"check","protocol":"ieee8025","bandwidth_mbps":100,)"
     R"("streams":[{"station":0,"period_ms":10,"payload_bits":2000000},)"
     R"({"station":1,"period_ms":10,"payload_bits":2000000}]})",
     R"({"protocol":"ieee8025","schedulable":false,"blocking_us":12.48,)"
     R"("misses":[{"station":0,"augmented_ms":26.738606559918907,)"
     R"("period_ms":10},{"station":1,"augmented_ms":26.738606559918907,)"
     R"("period_ms":10}]})"},
    {R"({"type":"check","protocol":"fddi","bandwidth_mbps":16,)"
     R"("streams":[{"station":0,"period_ms":10,"payload_bits":2000000},)"
     R"({"station":1,"period_ms":10,"payload_bits":2000000}]})",
     R"({"protocol":"fddi","schedulable":false,"ttrt_ms":0.3970453910305689,)"
     R"("allocated_ms":10.430666666666665,"available_ms":0.3422808867767072})"},
    {R"({"type":"check","protocol":"modified8025","bandwidth_mbps":16,)"
     R"("streams":[{"station":0,"period_ms":20,"payload_bits":50000,)"
     R"("deadline_ms":12},{"station":1,"period_ms":40,"payload_bits":80000,)"
     R"("deadline_ms":40},{"station":2,"period_ms":100,)"
     R"("payload_bits":200000,"deadline_ms":60}]})",
     R"({"protocol":"modified8025","schedulable":true,"blocking_us":78,)"
     R"("misses":[]})"},
    {R"({"type":"check","protocol":"ieee8025","bandwidth_mbps":4,)"
     R"("streams":[{"station":0,"period_ms":20,"payload_bits":50000,)"
     R"("deadline_ms":12},{"station":1,"period_ms":40,"payload_bits":80000,)"
     R"("deadline_ms":40},{"station":2,"period_ms":100,)"
     R"("payload_bits":200000,"deadline_ms":60}]})",
     R"({"protocol":"ieee8025","schedulable":false,"blocking_us":312,)"
     R"("misses":[{"station":0,"augmented_ms":15.750378562658838,)"
     R"("period_ms":20},{"station":1,"augmented_ms":25.20723912589222,)"
     R"("period_ms":40},{"station":2,"augmented_ms":62.96834712244495,)"
     R"("period_ms":100}]})"},
    {R"({"type":"check","protocol":"ieee8025","bandwidth_mbps":4,)"
     R"("streams":[{"station":0,"period_ms":10,"payload_bits":6000},)"
     R"({"station":1,"period_ms":20,"payload_bits":9000},{"station":2,)"
     R"("period_ms":50,"payload_bits":60000},{"station":3,"period_ms":100,)"
     R"("payload_bits":120000}]})",
     R"({"protocol":"ieee8025","schedulable":false,"blocking_us":312,)"
     R"("misses":[{"station":3,"augmented_ms":37.96403349965751,)"
     R"("period_ms":100}]})"},
    {R"({"type":"faultcheck","protocol":"fddi","bandwidth_mbps":100,)"
     R"("streams":[{"station":0,"period_ms":50,"payload_bits":10000},)"
     R"({"station":1,"period_ms":100,"payload_bits":20000}]})",
     R"({"protocol":"fddi","noise_ms":1,"schedulable":true,)"
     R"("margins":[{"fault_kind":"token_loss",)"
     R"("recovery_us":814.3003695401331,"margin":40},)"
     R"({"fault_kind":"frame_corruption","recovery_us":6.24,"margin":119},)"
     R"({"fault_kind":"noise_burst","recovery_us":1814.300369540133,)"
     R"("margin":22},{"fault_kind":"station_crash",)"
     R"("recovery_us":8.048512761585219,"margin":119},)"
     R"({"fault_kind":"duplicate_token","recovery_us":8.048512761585219,)"
     R"("margin":119}]})"},
    {R"({"type":"faultcheck","protocol":"modified8025","bandwidth_mbps":16,)"
     R"("noise_ms":2,"streams":[{"station":0,"period_ms":50,)"
     R"("payload_bits":10000},{"station":1,"period_ms":100,)"
     R"("payload_bits":20000}]})",
     R"({"protocol":"modified8025","noise_ms":2,"schedulable":true,)"
     R"("margins":[{"fault_kind":"token_loss",)"
     R"("recovery_us":41.889504253861745,"margin":607},)"
     R"({"fault_kind":"frame_corruption","recovery_us":39,"margin":630},)"
     R"({"fault_kind":"noise_burst","recovery_us":2041.8895042538616,)"
     R"("margin":23},{"fault_kind":"station_crash",)"
     R"("recovery_us":43.27900850772348,"margin":597},)"
     R"({"fault_kind":"duplicate_token","recovery_us":4.389504253861739,)"
     R"("margin":1132}]})"},
    {R"({"type":"faultcheck","protocol":"ieee8025","bandwidth_mbps":100,)"
     R"("streams":[{"station":0,"period_ms":10,"payload_bits":2000000},)"
     R"({"station":1,"period_ms":10,"payload_bits":2000000}]})",
     R"({"protocol":"ieee8025","noise_ms":1,"schedulable":false,)"
     R"("margins":[{"fault_kind":"token_loss",)"
     R"("recovery_us":7.449504253861739,"margin":null},)"
     R"({"fault_kind":"frame_corruption","recovery_us":6.24,"margin":null},)"
     R"({"fault_kind":"noise_burst","recovery_us":1007.4495042538618,)"
     R"("margin":null},{"fault_kind":"station_crash",)"
     R"("recovery_us":8.419008507723477,"margin":null},)"
     R"({"fault_kind":"duplicate_token","recovery_us":1.4495042538617389,)"
     R"("margin":null}]})"},
    {R"({"type":"faultcheck","protocol":"fddi","bandwidth_mbps":100,)"
     R"("noise_ms":0.5,"streams":[{"station":0,"period_ms":20,)"
     R"("payload_bits":50000,"deadline_ms":12},{"station":1,"period_ms":40,)"
     R"("payload_bits":80000,"deadline_ms":40},{"station":2,"period_ms":100,)"
     R"("payload_bits":200000,"deadline_ms":60}]})",
     R"({"protocol":"fddi","noise_ms":0.5,"schedulable":true,)"
     R"("margins":[{"fault_kind":"token_loss",)"
     R"("recovery_us":470.95704182326193,"margin":15},)"
     R"({"fault_kind":"frame_corruption","recovery_us":6.24,"margin":46},)"
     R"({"fault_kind":"noise_burst","recovery_us":970.957041823262,)"
     R"("margin":9},{"fault_kind":"station_crash",)"
     R"("recovery_us":11.632769142377825,"margin":45},)"
     R"({"fault_kind":"duplicate_token","recovery_us":11.632769142377825,)"
     R"("margin":45}]})"},
    {R"({"type":"faultcheck","protocol":"modified8025","bandwidth_mbps":16,)"
     R"("streams":[{"station":0,"period_ms":10,"payload_bits":6000},)"
     R"({"station":1,"period_ms":20,"payload_bits":9000},{"station":2,)"
     R"("period_ms":50,"payload_bits":60000},{"station":3,"period_ms":100,)"
     R"("payload_bits":120000}]})",
     R"({"protocol":"modified8025","noise_ms":1,"schedulable":true,)"
     R"("margins":[{"fault_kind":"token_loss",)"
     R"("recovery_us":43.279008507723475,"margin":114},)"
     R"({"fault_kind":"frame_corruption","recovery_us":39,"margin":121},)"
     R"({"fault_kind":"noise_burst","recovery_us":1043.2790085077233,)"
     R"("margin":8},{"fault_kind":"station_crash",)"
     R"("recovery_us":46.05801701544696,"margin":111},)"
     R"({"fault_kind":"duplicate_token","recovery_us":5.779008507723478,)"
     R"("margin":211}]})"},
    {R"({"type":"advise","stations":10,"sets":4,"bandwidths_mbps":[16,100],)"
     R"("seed":3})",
     R"({"recommendations":[{"bandwidth_mbps":16,)"
     R"("ieee8025":0.6370473403762931,"modified8025":0.7058107910843929,)"
     R"("fddi":0.8436704735567973,"resil_8025":324.5,"resil_fddi":3.25,)"
     R"("recommend":"FDDI timed token"},{"bandwidth_mbps":100,)"
     R"("ieee8025":0.5019644393118742,"modified8025":0.7064753335171619,)"
     R"("fddi":0.9348030166499389,"resil_8025":1601.25,"resil_fddi":7.75,)"
     R"("recommend":"FDDI timed token"}]})"},
    {R"({"type":"advise","stations":20,"sets":8,"bandwidths_mbps":[4,622],)"
     R"("seed":7,"mean_period_ms":50,"period_ratio":4})",
     R"({"recommendations":[{"bandwidth_mbps":4,)"
     R"("ieee8025":0.5978074467151754,"modified8025":0.6610583368568977,)"
     R"("fddi":0.5442431892143477,"resil_8025":46.875,"resil_fddi":0.125,)"
     R"("recommend":"Modified IEEE 802.5"},{"bandwidth_mbps":622,)"
     R"("ieee8025":0.04981785556720841,"modified8025":0.07461217962841986,)"
     R"("fddi":0.9475810646927678,"resil_8025":867.75,"resil_fddi":6.125,)"
     R"("recommend":"FDDI timed token"}]})"},

};

std::string compute(const std::string& line) {
  const obs::JsonParseResult doc = obs::parse_json(line);
  EXPECT_TRUE(doc.ok) << line;
  serve::Request request;
  std::string error;
  EXPECT_TRUE(serve::parse_request(doc.value, request, error)) << error;
  switch (request.type) {
    case serve::RequestType::kCheck:
      return serve::Engine::compute_check(request.check);
    case serve::RequestType::kFaultcheck:
      return serve::Engine::compute_faultcheck(request.check);
    default:
      return serve::Engine::compute_advise(request.advise);
  }
}

TEST(QueryGolden, ComputeBytesMatchTheFrozenGoldens) {
  for (const ComputeGolden& golden : kComputeGoldens) {
    EXPECT_EQ(compute(golden.request), golden.result) << golden.request;
  }
}

// ---- protocol names, ring sizing, parameter blocks --------------------------

TEST(Query, ProtocolNamesRoundTrip) {
  for (planner::Protocol p :
       {planner::Protocol::kIeee8025, planner::Protocol::kModified8025,
        planner::Protocol::kFddi}) {
    EXPECT_EQ(planner::protocol_from_name(planner::protocol_name(p)), p);
  }
  EXPECT_EQ(planner::protocol_name(planner::Protocol::kModified8025),
            std::string("modified8025"));
  for (const char* bad : {"", "FDDI", "wifi", "fddi "}) {
    EXPECT_FALSE(planner::protocol_from_name(bad).has_value()) << bad;
  }
}

TEST(Query, RingSizeCoversEveryStreamAndStation) {
  msg::MessageSet one;
  one.add(msg::SyncStream{0.05, 1000.0, 0});
  EXPECT_EQ(query::ring_size_for(one), 2);  // a ring needs two stations
  msg::MessageSet sparse;
  sparse.add(msg::SyncStream{0.05, 1000.0, 0});
  sparse.add(msg::SyncStream{0.05, 1000.0, 9});
  EXPECT_EQ(query::ring_size_for(sparse), 10);
  msg::MessageSet dense;
  for (int i = 0; i < 5; ++i) dense.add(msg::SyncStream{0.05, 1000.0, 0});
  EXPECT_EQ(query::ring_size_for(dense), 5);
}

TEST(Query, AdmissionControllerAndCheckShareOneVerdict) {
  // Both take their parameter blocks from PlannerConfig.
  for (planner::Protocol p :
       {planner::Protocol::kIeee8025, planner::Protocol::kModified8025,
        planner::Protocol::kFddi}) {
    for (double payload : {1e4, 1e6, 3e6}) {
      query::CheckQuery q;
      q.protocol = p;
      q.set.add(msg::SyncStream{0.02, payload, 0});
      q.set.add(msg::SyncStream{0.05, payload, 1});
      const planner::AdmissionController controller(query::config_for(q));
      EXPECT_EQ(controller.feasible(q.set), query::check(q).schedulable)
          << planner::protocol_name(p) << " " << payload;
    }
  }
}

// ---- range rules ------------------------------------------------------------

TEST(Query, RangeRulesNameTheBoundTheyBreak) {
  using query::bandwidth_violation;
  EXPECT_EQ(bandwidth_violation(1e-300), nullptr);
  EXPECT_STREQ(bandwidth_violation(0.0), "must be > 0");
  EXPECT_STREQ(bandwidth_violation(-1.0), "must be >= 0");
  EXPECT_EQ(query::noise_violation(0.0), nullptr);
  EXPECT_STREQ(query::noise_violation(-1.0), "must be >= 0");
  EXPECT_EQ(query::mean_period_violation(0.5), nullptr);
  EXPECT_STREQ(query::mean_period_violation(0.0), "must be > 0");
  EXPECT_EQ(query::period_ratio_violation(1.0), nullptr);
  EXPECT_STREQ(query::period_ratio_violation(0.99), "must be >= 1");
  EXPECT_EQ(query::bandwidths_violation({4.0, 16.0}), nullptr);
  EXPECT_STREQ(query::bandwidths_violation({}),
               "must list at least one bandwidth");
  EXPECT_STREQ(query::bandwidths_violation({4.0, 0.0}),
               "entries must be > 0");
  EXPECT_STREQ(query::scenario_violation(msg::MessageSet()),
               "must hold at least one stream");
}

TEST(Query, DaemonRefusalTextsComeFromTheSharedRules) {
  const auto refusal = [](const std::string& line) {
    serve::Request request;
    std::string error;
    EXPECT_FALSE(
        serve::parse_request(obs::parse_json(line).value, request, error))
        << line;
    return error;
  };
  const std::string streams =
      R"("streams":[{"station":0,"period_ms":50,"payload_bits":1}])";
  EXPECT_EQ(refusal(R"({"type":"check","bandwidth_mbps":0,)" + streams + "}"),
            "\"bandwidth_mbps\" must be > 0");
  EXPECT_EQ(refusal(R"({"type":"check","bandwidth_mbps":-1,)" + streams + "}"),
            "\"bandwidth_mbps\" must be >= 0");
  EXPECT_EQ(refusal(R"({"type":"faultcheck","noise_ms":-1,)" + streams + "}"),
            "\"noise_ms\" must be >= 0");
  EXPECT_EQ(refusal(R"({"type":"check","streams":[]})"),
            "\"streams\" must be a non-empty array");
  EXPECT_EQ(refusal(R"({"type":"advise","mean_period_ms":0})"),
            "\"mean_period_ms\" must be > 0");
  EXPECT_EQ(refusal(R"({"type":"advise","period_ratio":0.5})"),
            "\"period_ratio\" must be >= 1");
  EXPECT_EQ(refusal(R"({"type":"advise","bandwidths_mbps":[]})"),
            "\"bandwidths_mbps\" must be a non-empty array");
  EXPECT_EQ(refusal(R"({"type":"advise","bandwidths_mbps":[4,0]})"),
            "\"bandwidths_mbps\" entries must be positive numbers");
  EXPECT_EQ(refusal(R"({"type":"check","protocol":"wifi",)" + streams + "}"),
            "\"protocol\" must be ieee8025|modified8025|fddi");
}

// ---- fault margins beside multi-hour periods --------------------------------
//
// Two streams under modified 802.5 at 100 Mbps: the 50 ms stream decides
// every fault margin, so no margin may depend on the other stream's period.
// The search bracket ceil(longest deadline / outage) + 2 passes INT_MAX
// beside a period of hours; it used to be cast to int, which made the
// bracket negative and the margin 0 (token_loss from P = 2e7 ms,
// duplicate_token from 1e7 ms).

std::string long_period_streams(const std::string& period_ms) {
  return R"("streams":[{"station":0,"period_ms":)" + period_ms +
         R"(,"payload_bits":1000},{"station":1,"period_ms":50,)"
         R"("payload_bits":2000}])";
}

query::FaultcheckResult long_period_faultcheck(const std::string& period_ms) {
  const std::string line =
      R"({"type":"faultcheck","protocol":"modified8025",)"
      R"("bandwidth_mbps":100,)" + long_period_streams(period_ms) + "}";
  serve::Request request;
  std::string error;
  EXPECT_TRUE(
      serve::parse_request(obs::parse_json(line).value, request, error))
      << error;
  return query::faultcheck(request.check);
}

int margin_of(const query::FaultcheckResult& result, fault::FaultKind kind) {
  for (const auto& [k, report] : result.margins) {
    if (k == kind) return report.margin;
  }
  ADD_FAILURE() << "no " << fault::to_string(kind) << " row";
  return -2;
}

TEST(Query, FaultMarginsBesideMultiHourPeriodsStayTrue) {
  const query::FaultcheckResult reference = long_period_faultcheck("1e5");
  ASSERT_EQ(margin_of(reference, fault::FaultKind::kTokenLoss), 3649);
  ASSERT_EQ(margin_of(reference, fault::FaultKind::kDuplicateToken), 6497);
  for (const char* period_ms : {"1e7", "2e7", "1e300"}) {
    SCOPED_TRACE(std::string("period_ms ") + period_ms);
    const query::FaultcheckResult got = long_period_faultcheck(period_ms);
    ASSERT_EQ(got.margins.size(), reference.margins.size());
    for (std::size_t k = 0; k < got.margins.size(); ++k) {
      EXPECT_EQ(got.margins[k].second.margin,
                reference.margins[k].second.margin)
          << fault::to_string(got.margins[k].first);
    }
  }
}

TEST(Query, DaemonFaultMarginsBesideMultiHourPeriodsStayTrue) {
  serve::Engine engine(serve::Engine::Options{});
  for (const char* period_ms : {"1e7", "2e7", "1e300"}) {
    SCOPED_TRACE(std::string("period_ms ") + period_ms);
    const std::string response = engine.handle_line(
        R"({"type":"faultcheck","protocol":"modified8025",)"
        R"("bandwidth_mbps":100,)" + long_period_streams(period_ms) + "}",
        "test");
    const obs::JsonParseResult doc = obs::parse_json(response);
    ASSERT_TRUE(doc.ok) << response;
    ASSERT_EQ(doc.value.find("status")->as_int64(), 200) << response;
    int seen = 0;
    for (const obs::JsonValue& row :
         doc.value.find("result")->find("margins")->items()) {
      const std::string kind = row.find("fault_kind")->as_string();
      const std::int64_t margin = row.find("margin")->as_int64();
      if (kind == "token_loss") {
        EXPECT_EQ(margin, 3649);
        ++seen;
      } else if (kind == "duplicate_token") {
        EXPECT_EQ(margin, 6497);
        ++seen;
      }
    }
    EXPECT_EQ(seen, 2) << response;
  }
}

// ---- counts past 2^63 -----------------------------------------------------
//
// The visit count q_i = floor(D_i / TTRT) and the frame counts L_i, K_i are
// integers held in double, so a count past 2^63 still yields a true
// verdict, the same through the query layer and the daemon.

std::string one_stream_check(const char* protocol, const char* period_ms,
                             const char* payload_bits) {
  return std::string(R"({"type":"check","protocol":")") + protocol +
         R"(","bandwidth_mbps":100,"streams":[{"station":0,"period_ms":)" +
         period_ms + R"(,"payload_bits":)" + payload_bits + "}]}";
}

query::CheckResult check_line(const std::string& line) {
  serve::Request request;
  std::string error;
  EXPECT_TRUE(
      serve::parse_request(obs::parse_json(line).value, request, error))
      << error;
  return query::check(request.check);
}

/// The daemon's verdict on `line`; fails the test unless it answers 200.
bool daemon_schedulable(serve::Engine& engine, const std::string& line) {
  const std::string response = engine.handle_line(line, "test");
  const obs::JsonParseResult doc = obs::parse_json(response);
  EXPECT_TRUE(doc.ok) << response;
  if (!doc.ok) return false;
  EXPECT_EQ(doc.value.find("status")->as_int64(), 200) << response;
  return doc.value.find("result")->find("schedulable")->as_bool();
}

TEST(Query, FddiVisitCountsPast2To63StaySchedulable) {
  // One 1000-bit stream: the paper's TTRT rule gives q = sqrt(P / Theta),
  // which passes 2^63 between P = 1e35 and 1e36 ms at 100 Mbps.
  serve::Engine engine(serve::Engine::Options{});
  for (const char* period_ms : {"1e35", "1e36", "1e40", "1e300"}) {
    SCOPED_TRACE(std::string("period_ms ") + period_ms);
    const std::string line = one_stream_check("fddi", period_ms, "1000");
    const query::CheckResult r = check_line(line);
    EXPECT_TRUE(r.schedulable);
    ASSERT_EQ(r.ttp.reports.size(), 1u);
    const analysis::TtpStreamReport& report = r.ttp.reports[0];
    EXPECT_TRUE(report.deadline_feasible);
    EXPECT_EQ(report.q, std::floor(report.stream.deadline() / r.ttp.ttrt));
    if (std::string(period_ms) != "1e35") {
      EXPECT_GT(report.q, 0x1p63);
    }
    EXPECT_TRUE(daemon_schedulable(engine, line));
  }
}

TEST(Query, PdpFrameCountsPast2To63AreNotSchedulable) {
  // 5e21 bits is ~9.8e18 64-byte frames, past 2^63; both variants must
  // miss with a positive cost instead of failing a precondition.
  serve::Engine engine(serve::Engine::Options{});
  for (const char* protocol : {"ieee8025", "modified8025"}) {
    for (const char* payload_bits : {"1e21", "5e21", "1e300"}) {
      SCOPED_TRACE(std::string(protocol) + " payload_bits " + payload_bits);
      const std::string line = one_stream_check(protocol, "100", payload_bits);
      const query::CheckResult r = check_line(line);
      EXPECT_FALSE(r.schedulable);
      ASSERT_EQ(r.pdp.reports.size(), 1u);
      const analysis::PdpStreamReport& report = r.pdp.reports[0];
      EXPECT_GT(report.augmented_length, report.stream.period);
      EXPECT_TRUE(std::isfinite(report.augmented_length));
      EXPECT_EQ(report.frames, std::ceil(report.stream.payload_bits / 512.0));
      EXPECT_FALSE(daemon_schedulable(engine, line));
    }
  }
}

TEST(Query, MarginPastIntMaxIsRefusedByName) {
  // One stream of period 1e300 ms: every fault kind still passes at
  // INT_MAX faults per period, so no int margin is true.
  const std::string line =
      R"({"type":"faultcheck","protocol":"modified8025",)"
      R"("bandwidth_mbps":100,"streams":[{"station":0,"period_ms":1e300,)"
      R"("payload_bits":1000}]})";
  serve::Request request;
  std::string error;
  ASSERT_TRUE(
      serve::parse_request(obs::parse_json(line).value, request, error));
  const std::string expected =
      "the token_loss fault margin exceeds 2147483647 faults per period";
  try {
    query::faultcheck(request.check);
    ADD_FAILURE() << "faultcheck answered a margin past INT_MAX";
  } catch (const fault::MarginOutOfRange& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }

  serve::Engine engine(serve::Engine::Options{});
  const obs::JsonParseResult doc =
      obs::parse_json(engine.handle_line(line, "test"));
  ASSERT_TRUE(doc.ok);
  EXPECT_EQ(doc.value.find("status")->as_int64(), 400);
  EXPECT_EQ(doc.value.find("error")->as_string(), expected);
}

}  // namespace
