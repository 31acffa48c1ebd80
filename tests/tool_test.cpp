// End-to-end tests of the tokenring_tool CLI binary: exercises argument
// parsing, exit codes, and the scenario-file round trip through the real
// executable (path injected by CMake as TOKENRING_TOOL_PATH), freezes its
// output, and checks that it agrees with the serve daemon's engine.

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tokenring/common/rng.hpp"
#include "tokenring/msg/generator.hpp"
#include "tokenring/msg/io.hpp"
#include "tokenring/obs/json.hpp"
#include "tokenring/serve/engine.hpp"

namespace {

using namespace tokenring;

#ifndef TOKENRING_TOOL_PATH
#error "TOKENRING_TOOL_PATH must be defined by the build"
#endif

struct RunResult {
  int exit_code = -1;
  std::string output;
};

/// Run `program args`; `output` is stdout, with stderr merged in unless
/// `stdout_only`.
RunResult run_program(const std::string& program, const std::string& args,
                      bool stdout_only = false) {
  const std::string cmd = program + " " + args +
                          (stdout_only ? " 2>/dev/null" : " 2>&1");
  std::array<char, 4096> buf{};
  RunResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) return result;
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe)) {
    result.output += buf.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

RunResult run_tool(const std::string& args, bool stdout_only = false) {
  return run_program(TOKENRING_TOOL_PATH, args, stdout_only);
}

std::string temp_path(const std::string& name) {
  // ctest runs each gtest case as its own process, possibly in parallel;
  // the pid keeps concurrent cases from clobbering each other's files.
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "_" + name))
      .string();
}

void write_scenario(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  out << "station,period_ms,payload_bits\n" << body;
}

class ToolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    light_ = temp_path("tool_test_light.csv");
    heavy_ = temp_path("tool_test_heavy.csv");
    empty_ = temp_path("tool_test_empty.csv");
    write_scenario(light_, "0,50,10000\n1,100,20000\n");
    write_scenario(heavy_, "0,10,2000000\n1,10,2000000\n");  // 40x overload
    write_scenario(empty_, "");  // header only
  }
  void TearDown() override {
    std::remove(light_.c_str());
    std::remove(heavy_.c_str());
    std::remove(empty_.c_str());
  }

  /// One range refusal as each front end sees it: the CLI must exit 1
  /// naming `named`, the daemon must answer `request` with a 400.
  struct RangeRefusal {
    std::string cli_args;
    std::string named;
    std::string request;
  };
  std::vector<RangeRefusal> range_refusals() const {
    const std::string streams =
        R"("streams":[{"station":0,"period_ms":50,"payload_bits":10000}])";
    return {
        {"check --file=" + light_ + " --bandwidth-mbps=0", "--bandwidth-mbps",
         R"({"type":"check","bandwidth_mbps":0,)" + streams + "}"},
        {"faultcheck --file=" + light_ + " --bandwidth-mbps=-4",
         "--bandwidth-mbps",
         R"({"type":"faultcheck","bandwidth_mbps":-4,)" + streams + "}"},
        {"faultcheck --file=" + light_ + " --noise-ms=-1", "--noise-ms",
         R"({"type":"faultcheck","noise_ms":-1,)" + streams + "}"},
        {"check --file=" + empty_ + " --protocol=ieee8025", empty_,
         R"({"type":"check","protocol":"ieee8025","streams":[]})"},
        {"faultcheck --file=" + empty_, "--file",
         R"({"type":"faultcheck","streams":[]})"},
        {"advise --mean-period-ms=0", "--mean-period-ms",
         R"({"type":"advise","mean_period_ms":0})"},
        {"advise --mean-period-ms=-5", "--mean-period-ms",
         R"({"type":"advise","mean_period_ms":-5})"},
        {"advise --period-ratio=0.5", "--period-ratio",
         R"({"type":"advise","period_ratio":0.5})"},
        {"advise --bandwidths-mbps=4,0", "--bandwidths-mbps",
         R"({"type":"advise","bandwidths_mbps":[4,0]})"},
        {"advise --stations=0", "--stations",
         R"({"type":"advise","stations":0})"},
        {"advise --stations=1001", "--stations",
         R"({"type":"advise","stations":1001})"},
    };
  }

  std::string light_;
  std::string heavy_;
  std::string empty_;
};

TEST_F(ToolTest, NoArgsPrintsUsage) {
  const auto r = run_tool("");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(ToolTest, UnknownCommandPrintsUsage) {
  EXPECT_EQ(run_tool("frobnicate").exit_code, 1);
}

TEST_F(ToolTest, CheckSchedulableExitsZero) {
  const auto r =
      run_tool("check --file=" + light_ + " --protocol=fddi --bandwidth-mbps=100");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("SCHEDULABLE"), std::string::npos);
}

TEST_F(ToolTest, CheckOverloadedExitsTwo) {
  const auto r =
      run_tool("check --file=" + heavy_ + " --protocol=fddi --bandwidth-mbps=100");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("NOT SCHEDULABLE"), std::string::npos);
}

TEST_F(ToolTest, CheckAllProtocols) {
  for (const char* proto : {"ieee8025", "modified8025", "fddi"}) {
    const auto r = run_tool("check --file=" + light_ + " --protocol=" + proto +
                            " --bandwidth-mbps=100");
    EXPECT_EQ(r.exit_code, 0) << proto << ": " << r.output;
  }
}

TEST_F(ToolTest, CheckBadProtocolFails) {
  const auto r = run_tool("check --file=" + light_ + " --protocol=wifi");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown protocol"), std::string::npos);
}

TEST_F(ToolTest, CheckMissingFileFails) {
  const auto r = run_tool("check --file=/does/not/exist.csv");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos);
}

TEST_F(ToolTest, CheckRejectsStationWithNoRoomForTheRingSize) {
  // The ring holds station + 1 stations; INT_MAX used to overflow it.
  const std::string path = temp_path("tool_test_station_max.csv");
  write_scenario(path, "2147483647,50,10000\n");
  const auto r = run_tool("check --file=" + path +
                          " --protocol=fddi --bandwidth-mbps=100");
  std::remove(path.c_str());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("room for the ring size"), std::string::npos)
      << r.output;
}

TEST_F(ToolTest, BadNumbersExitOneNamingTheFlagOrLine) {
  // Each is refused with exit 1, never truncated, wrapped or aborted.
  const std::string bad_row = temp_path("tool_test_bad_row.csv");
  write_scenario(bad_row, "0,50ms,10000x\n");
  const std::pair<std::string, std::string> cases[] = {
      {"advise --sets=1e3", "--sets"},
      {"advise --sets=-1", "--sets"},
      {"advise --bandwidths-mbps=4,x", "--bandwidths-mbps"},
      {"check --file=" + light_ + " --bandwidth-mbps=100x",
       "--bandwidth-mbps"},
      {"check --file=" + bad_row, "line 2"},
      {"generate --stations=4294967298", "--stations"},
      {"serve --port=70000", "--port"},
      {"serve --idle-timeout-ms=4294967297", "--idle-timeout-ms"},
      {"serve --max-request-bytes=-1", "--max-request-bytes"},
      {"serve --reactors=-1", "--reactors"},
      {"simulate --file=" + light_ + " --seed=-1", "--seed"},
  };
  for (const auto& [args, named] : cases) {
    const auto r = run_tool(args);
    EXPECT_EQ(r.exit_code, 1) << args << ": " << r.output;
    EXPECT_NE(r.output.find(named), std::string::npos) << args << ": "
                                                      << r.output;
  }
  // The range rules the daemon enforces with a 400 (query/query.hpp).
  for (const RangeRefusal& refusal : range_refusals()) {
    const auto r = run_tool(refusal.cli_args);
    EXPECT_EQ(r.exit_code, 1) << refusal.cli_args << ": " << r.output;
    EXPECT_NE(r.output.find(refusal.named), std::string::npos)
        << refusal.cli_args << ": " << r.output;
    EXPECT_EQ(r.output.find(".cpp:"), std::string::npos) << r.output;
  }
  std::remove(bad_row.c_str());
}

TEST_F(ToolTest, BoundaryNumbersAreStillAccepted) {
  const auto gen = run_tool("generate --stations=1 --utilization=0.1 --seed=0");
  EXPECT_EQ(gen.exit_code, 0) << gen.output;
  const auto advise = run_tool(
      "advise --stations=2 --sets=1 --bandwidths-mbps=100 --seed=0 --jobs=0");
  EXPECT_EQ(advise.exit_code, 0) << advise.output;
}

TEST_F(ToolTest, CheckRequiresFileFlag) {
  EXPECT_EQ(run_tool("check").exit_code, 1);
}

TEST_F(ToolTest, PlanPrintsAllocationTable) {
  const auto r = run_tool("plan --file=" + light_ + " --bandwidth-mbps=100");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("TTRT"), std::string::npos);
  EXPECT_NE(r.output.find("resp_bound_ms"), std::string::npos);
  EXPECT_NE(r.output.find("async capacity left"), std::string::npos);
}

TEST_F(ToolTest, SimulateCleanRunExitsZero) {
  const auto r = run_tool("simulate --file=" + light_ +
                          " --protocol=modified8025 --bandwidth-mbps=16 "
                          "--horizon-ms=300");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("misses=0"), std::string::npos);
}

TEST_F(ToolTest, SimulateOverloadExitsTwo) {
  const auto r = run_tool("simulate --file=" + heavy_ +
                          " --protocol=fddi --bandwidth-mbps=100 "
                          "--horizon-ms=100");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST_F(ToolTest, AdviseShowsRecommendations) {
  const auto r = run_tool(
      "advise --stations=16 --bandwidths-mbps=4,200 --sets=10");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("recommend"), std::string::npos);
  // Low bandwidth -> PDP family; high -> FDDI (the paper's conclusion).
  EXPECT_NE(r.output.find("Modified IEEE 802.5"), std::string::npos);
  EXPECT_NE(r.output.find("FDDI timed token"), std::string::npos);
  // Fault-resilience columns ride along.
  EXPECT_NE(r.output.find("resil_8025"), std::string::npos);
  EXPECT_NE(r.output.find("resil_fddi"), std::string::npos);
}

TEST_F(ToolTest, FaultcheckListsKindsAndExitsZeroWhenSchedulable) {
  const auto r = run_tool("faultcheck --file=" + light_ +
                          " --protocol=fddi --bandwidth-mbps=100");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("SCHEDULABLE"), std::string::npos);
  for (const char* kind : {"token_loss", "frame_corruption", "noise_burst",
                           "station_crash", "duplicate_token"}) {
    EXPECT_NE(r.output.find(kind), std::string::npos) << kind;
  }
  EXPECT_NE(r.output.find("margin"), std::string::npos);
}

TEST_F(ToolTest, FaultcheckOverloadedExitsTwo) {
  const auto r = run_tool("faultcheck --file=" + heavy_ +
                          " --protocol=modified8025 --bandwidth-mbps=100");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("NOT SCHEDULABLE"), std::string::npos);
}

TEST_F(ToolTest, FaultcheckRequiresFileFlag) {
  EXPECT_EQ(run_tool("faultcheck").exit_code, 1);
}

TEST_F(ToolTest, GenerateRoundTripsThroughCheck) {
  const std::string path = temp_path("tool_test_generated.csv");
  const auto gen = run_tool("generate --stations=8 --utilization=0.2 "
                            "--bandwidth-mbps=100 --file=" + path);
  EXPECT_EQ(gen.exit_code, 0) << gen.output;
  const auto check = run_tool("check --file=" + path +
                              " --protocol=fddi --bandwidth-mbps=100");
  EXPECT_EQ(check.exit_code, 0) << check.output;
  std::remove(path.c_str());
}

TEST_F(ToolTest, GenerateToStdoutIsValidCsv) {
  const auto r = run_tool("generate --stations=4 --utilization=0.1");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output.rfind("station,period_ms,payload_bits", 0), 0u);
}

TEST_F(ToolTest, HelpListsEveryCommand) {
  const auto r = run_tool("help");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* cmd :
       {"check", "faultcheck", "plan", "simulate", "advise", "generate"}) {
    EXPECT_NE(r.output.find(cmd), std::string::npos) << cmd;
  }
}

TEST_F(ToolTest, HelpForOneCommandShowsItsFlags) {
  const auto r = run_tool("help simulate");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("--trace-jsonl"), std::string::npos);
  EXPECT_NE(r.output.find("--format"), std::string::npos);
}

TEST_F(ToolTest, HelpListsServeCommand) {
  const auto r = run_tool("help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("serve"), std::string::npos);
  const auto detail = run_tool("help serve");
  EXPECT_EQ(detail.exit_code, 0);
  EXPECT_NE(detail.output.find("--port"), std::string::npos);
  EXPECT_NE(detail.output.find("--rate"), std::string::npos);
}

TEST_F(ToolTest, SubcommandHelpFlagExitsZero) {
  // --help is a successful outcome for every subcommand, distinct from a
  // flag error; scripts rely on the exit code to tell them apart.
  const auto r = run_tool("check --help");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("--protocol"), std::string::npos);
}

TEST_F(ToolTest, UnknownFlagExitsOneAndPointsAtHelp) {
  const auto r = run_tool("check --file=" + light_ + " --bogus=1");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("help check"), std::string::npos) << r.output;
}

TEST_F(ToolTest, MissingFlagValueExitsOneAndPointsAtHelp) {
  const auto r = run_tool("advise --stations");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("help advise"), std::string::npos) << r.output;
}

TEST_F(ToolTest, JsonFormatEmitsManifestOnStdout) {
  const auto r = run_tool("check --file=" + light_ +
                          " --protocol=fddi --format=json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.rfind("{", 0), 0u) << r.output;
  EXPECT_NE(r.output.find("\"schema\": \"tokenring.run_manifest/1\""),
            std::string::npos);
  EXPECT_NE(r.output.find("\"tool\": \"tokenring_tool check\""),
            std::string::npos);
  // Human banner is suppressed: nothing outside the JSON document.
  EXPECT_EQ(r.output.find("SCHEDULABLE ("), std::string::npos);
}

TEST_F(ToolTest, ManifestFileIsWrittenInTableMode) {
  const std::string path = temp_path("tool_test_manifest.json");
  const auto r = run_tool("check --file=" + light_ +
                          " --protocol=fddi --out=" + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("SCHEDULABLE"), std::string::npos);  // still human
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string manifest((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(manifest.find("tokenring.run_manifest/1"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ToolTest, SimulateWritesJsonlTrace) {
  const std::string path = temp_path("tool_test_trace.jsonl");
  const auto r = run_tool("simulate --file=" + light_ +
                          " --protocol=fddi --horizon-ms=50 "
                          "--trace-jsonl=" + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"at_s\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"kind\":"), std::string::npos) << line;
  }
  EXPECT_GT(lines, 0u);
  std::remove(path.c_str());
}

TEST_F(ToolTest, BadFormatValueFails) {
  const auto r = run_tool("check --file=" + light_ + " --format=xml");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown --format"), std::string::npos);
}

TEST_F(ToolTest, ExampleRefusesAStationCountBeyondInt) {
#ifndef PROTOCOL_SELECTION_PATH
  GTEST_SKIP() << "examples are not built";
#else
  // 2^32 + 2 stations used to be truncated to a 2-station ring.
  const auto r = run_program(PROTOCOL_SELECTION_PATH, "--stations=4294967298");
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("--stations"), std::string::npos) << r.output;
#endif
}

// ---- frozen goldens ---------------------------------------------------------

struct CliGolden {
  const char* scenario;  // scenario file key; "" = none (advise)
  const char* args;
  int exit_code;
  const char* out;  // stdout
};

// Scenario files of the goldens: A light, B 40x overloaded, C constrained
// deadlines (D < P on stations 0 and 2), D one 802.5 miss at 4 Mbps.
const std::map<std::string, std::string> kGoldenScenarios = {
    {"A", "station,period_ms,payload_bits\n0,50,10000\n1,100,20000\n"},
    {"B", "station,period_ms,payload_bits\n0,10,2000000\n1,10,2000000\n"},
    {"C",
     "station,period_ms,payload_bits,deadline_ms\n0,20,50000,12\n"
     "1,40,80000,40\n2,100,200000,60\n"},
    {"D",
     "station,period_ms,payload_bits\n0,10,6000\n1,20,9000\n2,50,60000\n"
     "3,100,120000\n"},
};

// tokenring_tool stdout and exit code, captured from the build before the
// query layer existed; query_test.cpp freezes the daemon's compute bytes
// for the same scenarios.
const CliGolden kCliGoldens[] = {
    {"A", "check --protocol=fddi --bandwidth-mbps=100 --format=table", 0,
     R"(fddi: SCHEDULABLE (TTRT 0.404 ms, allocated 0.004 / available 0.395 ms)
)"},
    {"A", "check --protocol=ieee8025 --bandwidth-mbps=16 --format=table", 0,
     R"(ieee8025: SCHEDULABLE (blocking 78.0 us)
)"},
    {"A", "check --protocol=modified8025 --bandwidth-mbps=4 --format=table", 0,
     R"(modified8025: SCHEDULABLE (blocking 312.0 us)
)"},
    {"B", "check --protocol=ieee8025 --bandwidth-mbps=100 --format=table", 2,
     R"(ieee8025: NOT SCHEDULABLE (blocking 12.5 us)
  station 0 misses: C'=26.739 ms in P=10.0 ms
  station 1 misses: C'=26.739 ms in P=10.0 ms
)"},
    {"B", "check --protocol=fddi --bandwidth-mbps=16 --format=table", 2,
     R"(fddi: NOT SCHEDULABLE (TTRT 0.397 ms, allocated 10.431 / available 0.342 ms)
)"},
    {"C", "check --protocol=modified8025 --bandwidth-mbps=16 --format=table", 0,
     R"(modified8025: SCHEDULABLE (blocking 78.0 us)
)"},
    {"C", "check --protocol=ieee8025 --bandwidth-mbps=4 --format=table", 2,
     R"(ieee8025: NOT SCHEDULABLE (blocking 312.0 us)
  station 0 misses: C'=15.750 ms in P=20.0 ms
  station 1 misses: C'=25.207 ms in P=40.0 ms
  station 2 misses: C'=62.968 ms in P=100.0 ms
)"},
    {"D", "check --protocol=ieee8025 --bandwidth-mbps=4 --format=table", 2,
     R"(ieee8025: NOT SCHEDULABLE (blocking 312.0 us)
  station 3 misses: C'=37.964 ms in P=100.0 ms
)"},
    {"A", "faultcheck --protocol=fddi --bandwidth-mbps=100 --format=table", 0,
     R"(fddi at 100 Mbps: SCHEDULABLE fault-free
|       fault_kind | recovery_us | margin |
|------------------|-------------|--------|
|       token_loss |       814.3 |     40 |
| frame_corruption |         6.2 |    119 |
|      noise_burst |      1814.3 |     22 |
|    station_crash |         8.0 |    119 |
|  duplicate_token |         8.0 |    119 |
(margin = max faults of that kind per period the fault-aware
 criterion still guarantees; '-' = infeasible even fault-free)
)"},
    {"A", "faultcheck --protocol=modified8025 --bandwidth-mbps=16"
     " --noise-ms=2 --format=table", 0,
     R"(modified8025 at 16 Mbps: SCHEDULABLE fault-free
|       fault_kind | recovery_us | margin |
|------------------|-------------|--------|
|       token_loss |        41.9 |    607 |
| frame_corruption |        39.0 |    630 |
|      noise_burst |      2041.9 |     23 |
|    station_crash |        43.3 |    597 |
|  duplicate_token |         4.4 |   1132 |
(margin = max faults of that kind per period the fault-aware
 criterion still guarantees; '-' = infeasible even fault-free)
)"},
    {"B", "faultcheck --protocol=ieee8025 --bandwidth-mbps=100"
     " --format=table", 2,
     R"(ieee8025 at 100 Mbps: NOT SCHEDULABLE fault-free
|       fault_kind | recovery_us | margin |
|------------------|-------------|--------|
|       token_loss |         7.4 |      - |
| frame_corruption |         6.2 |      - |
|      noise_burst |      1007.4 |      - |
|    station_crash |         8.4 |      - |
|  duplicate_token |         1.4 |      - |
(margin = max faults of that kind per period the fault-aware
 criterion still guarantees; '-' = infeasible even fault-free)
)"},
    {"C", "faultcheck --protocol=fddi --bandwidth-mbps=100"
     " --noise-ms=0.5 --format=table", 0,
     R"(fddi at 100 Mbps: SCHEDULABLE fault-free
|       fault_kind | recovery_us | margin |
|------------------|-------------|--------|
|       token_loss |       471.0 |     15 |
| frame_corruption |         6.2 |     46 |
|      noise_burst |       971.0 |      9 |
|    station_crash |        11.6 |     45 |
|  duplicate_token |        11.6 |     45 |
(margin = max faults of that kind per period the fault-aware
 criterion still guarantees; '-' = infeasible even fault-free)
)"},
    {"D", "faultcheck --protocol=modified8025 --bandwidth-mbps=16"
     " --format=table", 0,
     R"(modified8025 at 16 Mbps: SCHEDULABLE fault-free
|       fault_kind | recovery_us | margin |
|------------------|-------------|--------|
|       token_loss |        43.3 |    114 |
| frame_corruption |        39.0 |    121 |
|      noise_burst |      1043.3 |      8 |
|    station_crash |        46.1 |    111 |
|  duplicate_token |         5.8 |    211 |
(margin = max faults of that kind per period the fault-aware
 criterion still guarantees; '-' = infeasible even fault-free)
)"},
    {"A", "plan --bandwidth-mbps=100 --format=table", 0,
     R"(FDDI plan at 100 Mbps: TTRT 0.404 ms (schedulable)
| station |  P_ms |   q | h_us | visits | resp_bound_ms | slack_ms |
|---------|-------|-----|------|--------|---------------|----------|
|       0 |  50.0 | 123 | 1.94 |    122 |         49.73 |     0.27 |
|       1 | 100.0 | 247 | 1.93 |    246 |         99.87 |     0.13 |
async capacity left: 98.2%
)"},
    {"B", "plan --bandwidth-mbps=100 --format=table", 2,
     R"(FDDI plan at 100 Mbps: TTRT 0.181 ms (NOT schedulable)
| station | P_ms |  q |   h_us | visits | resp_bound_ms | slack_ms |
|---------|------|----|--------|--------|---------------|----------|
|       0 | 10.0 | 55 | 371.49 |     54 |          9.94 |     0.06 |
|       1 | 10.0 | 55 | 371.49 |     54 |          9.94 |     0.06 |
async capacity left: 0.0%
)"},
    {"C", "plan --bandwidth-mbps=100 --format=table", 0,
     R"(FDDI plan at 100 Mbps: TTRT 0.231 ms (schedulable)
| station |  P_ms |   q |  h_us | visits | resp_bound_ms | slack_ms |
|---------|-------|-----|-------|--------|---------------|----------|
|       0 |  20.0 |  51 | 11.12 |     50 |         11.80 |     0.20 |
|       1 |  40.0 | 172 |  5.80 |    171 |         39.81 |     0.19 |
|       2 | 100.0 | 259 |  8.87 |    258 |         59.95 |     0.05 |
async capacity left: 86.9%
)"},
    {"D", "plan --bandwidth-mbps=100 --format=table", 0,
     R"(FDDI plan at 100 Mbps: TTRT 0.238 ms (schedulable)
| station |  P_ms |   q | h_us | visits | resp_bound_ms | slack_ms |
|---------|-------|-----|------|--------|---------------|----------|
|       0 |  10.0 |  42 | 2.58 |     41 |          9.99 |     0.01 |
|       1 |  20.0 |  84 | 2.20 |     83 |         19.98 |     0.02 |
|       2 |  50.0 | 210 | 3.99 |    209 |         49.96 |     0.04 |
|       3 | 100.0 | 420 | 3.98 |    419 |         99.91 |     0.09 |
async capacity left: 92.3%
)"},
    {"A", "simulate --protocol=fddi --bandwidth-mbps=100"
     " --horizon-ms=200 --format=table", 0,
     R"(released=6 completed=6 misses=0 (ratio 0)
response time [ms]: mean=44.6401 max=67.1318; normalized (r/P): mean=0.669298 max=0.672336
token rotation @station0 [ms]: mean=0.272792 max=0.410803
async frames sent=31376
)"},
    {"B", "simulate --protocol=ieee8025 --bandwidth-mbps=100"
     " --horizon-ms=50 --format=table", 2,
     R"(released=12 completed=1 misses=10 (ratio 0.833333)
response time [ms]: mean=29.1071 max=29.1071; normalized (r/P): mean=2.91071 max=2.91071
async frames sent=1
)"},
    {"C", "simulate --protocol=modified8025 --bandwidth-mbps=16"
     " --horizon-ms=200 --format=table", 0,
     R"(released=20 completed=17 misses=0 (ratio 0)
response time [ms]: mean=8.00577 max=29.0087; normalized (r/P): mean=0.214092 max=0.290087
async frames sent=2448
)"},
    {"D", "simulate --protocol=ieee8025 --bandwidth-mbps=4"
     " --horizon-ms=200 --format=table", 2,
     R"(released=39 completed=35 misses=2 (ratio 0.0512821)
response time [ms]: mean=11.4586 max=185.319; normalized (r/P): mean=0.312946 max=1.85319
async frames sent=1
)"},
    {"", "advise --stations=10 --sets=4 --bandwidths-mbps=16,100"
     " --seed=3 --format=table", 0,
     R"(| BW_Mbps | ieee8025 | modified8025 |  fddi | resil_8025 | resil_fddi |        recommend |
|---------|----------|--------------|-------|------------|------------|------------------|
|      16 |    0.637 |        0.706 | 0.844 |      324.5 |        3.2 | FDDI timed token |
|     100 |    0.502 |        0.706 | 0.935 |     1601.2 |        7.8 | FDDI timed token |
(resil_* = mean token losses per period absorbed at 70% of each
 sampled set's schedulability boundary)
)"},
    {"", "advise --stations=20 --sets=8 --bandwidths-mbps=4,622"
     " --seed=7 --mean-period-ms=50 --period-ratio=4 --format=table", 0,
     R"(| BW_Mbps | ieee8025 | modified8025 |  fddi | resil_8025 | resil_fddi |           recommend |
|---------|----------|--------------|-------|------------|------------|---------------------|
|       4 |    0.598 |        0.661 | 0.544 |       46.9 |        0.1 | Modified IEEE 802.5 |
|     622 |    0.050 |        0.075 | 0.948 |      867.8 |        6.1 |    FDDI timed token |
(resil_* = mean token losses per period absorbed at 70% of each
 sampled set's schedulability boundary)
)"},
    {"A", "check --protocol=fddi --bandwidth-mbps=100 --format=csv", 0,
     R"(protocol,schedulable
fddi,yes
)"},
    {"A", "check --protocol=ieee8025 --bandwidth-mbps=16 --format=csv", 0,
     R"(protocol,schedulable
ieee8025,yes
)"},
    {"A", "check --protocol=modified8025 --bandwidth-mbps=4 --format=csv", 0,
     R"(protocol,schedulable
modified8025,yes
)"},
    {"B", "check --protocol=ieee8025 --bandwidth-mbps=100 --format=csv", 2,
     R"(protocol,schedulable
ieee8025,no
)"},
    {"B", "check --protocol=fddi --bandwidth-mbps=16 --format=csv", 2,
     R"(protocol,schedulable
fddi,no
)"},
    {"C", "check --protocol=modified8025 --bandwidth-mbps=16 --format=csv", 0,
     R"(protocol,schedulable
modified8025,yes
)"},
    {"C", "check --protocol=ieee8025 --bandwidth-mbps=4 --format=csv", 2,
     R"(protocol,schedulable
ieee8025,no
)"},
    {"D", "check --protocol=ieee8025 --bandwidth-mbps=4 --format=csv", 2,
     R"(protocol,schedulable
ieee8025,no
)"},
    {"A", "faultcheck --protocol=fddi --bandwidth-mbps=100 --format=csv", 0,
     R"(fault_kind,recovery_us,margin
token_loss,814.3,40
frame_corruption,6.2,119
noise_burst,1814.3,22
station_crash,8.0,119
duplicate_token,8.0,119
)"},
    {"A", "faultcheck --protocol=modified8025 --bandwidth-mbps=16"
     " --noise-ms=2 --format=csv", 0,
     R"(fault_kind,recovery_us,margin
token_loss,41.9,607
frame_corruption,39.0,630
noise_burst,2041.9,23
station_crash,43.3,597
duplicate_token,4.4,1132
)"},
    {"B", "faultcheck --protocol=ieee8025 --bandwidth-mbps=100 --format=csv", 2,
     R"(fault_kind,recovery_us,margin
token_loss,7.4,-
frame_corruption,6.2,-
noise_burst,1007.4,-
station_crash,8.4,-
duplicate_token,1.4,-
)"},
    {"C", "faultcheck --protocol=fddi --bandwidth-mbps=100"
     " --noise-ms=0.5 --format=csv", 0,
     R"(fault_kind,recovery_us,margin
token_loss,471.0,15
frame_corruption,6.2,46
noise_burst,971.0,9
station_crash,11.6,45
duplicate_token,11.6,45
)"},
    {"D", "faultcheck --protocol=modified8025 --bandwidth-mbps=16"
     " --format=csv", 0,
     R"(fault_kind,recovery_us,margin
token_loss,43.3,114
frame_corruption,39.0,121
noise_burst,1043.3,8
station_crash,46.1,111
duplicate_token,5.8,211
)"},
    {"A", "plan --bandwidth-mbps=100 --format=csv", 0,
     R"(station,P_ms,q,h_us,visits,resp_bound_ms,slack_ms
0,50.0,123,1.94,122,49.73,0.27
1,100.0,247,1.93,246,99.87,0.13
)"},
    {"B", "plan --bandwidth-mbps=100 --format=csv", 2,
     R"(station,P_ms,q,h_us,visits,resp_bound_ms,slack_ms
0,10.0,55,371.49,54,9.94,0.06
1,10.0,55,371.49,54,9.94,0.06
)"},
    {"C", "plan --bandwidth-mbps=100 --format=csv", 0,
     R"(station,P_ms,q,h_us,visits,resp_bound_ms,slack_ms
0,20.0,51,11.12,50,11.80,0.20
1,40.0,172,5.80,171,39.81,0.19
2,100.0,259,8.87,258,59.95,0.05
)"},
    {"D", "plan --bandwidth-mbps=100 --format=csv", 0,
     R"(station,P_ms,q,h_us,visits,resp_bound_ms,slack_ms
0,10.0,42,2.58,41,9.99,0.01
1,20.0,84,2.20,83,19.98,0.02
2,50.0,210,3.99,209,49.96,0.04
3,100.0,420,3.98,419,99.91,0.09
)"},
    {"A", "simulate --protocol=fddi --bandwidth-mbps=100"
     " --horizon-ms=200 --format=csv", 0,
     R"(released,completed,misses,miss_ratio,mean_response_ms,token_rotation_ms,async_frames,max_queue_depth
6,6,0,0.0000,44.6401,0.2728,31376,1
)"},
    {"B", "simulate --protocol=ieee8025 --bandwidth-mbps=100"
     " --horizon-ms=50 --format=csv", 2,
     R"(released,completed,misses,miss_ratio,mean_response_ms,token_rotation_ms,async_frames,max_queue_depth
12,1,10,0.8333,29.1071,0.0000,1,6
)"},
    {"C", "simulate --protocol=modified8025 --bandwidth-mbps=16"
     " --horizon-ms=200 --format=csv", 0,
     R"(released,completed,misses,miss_ratio,mean_response_ms,token_rotation_ms,async_frames,max_queue_depth
20,17,0,0.0000,8.0058,0.0000,2448,1
)"},
    {"D", "simulate --protocol=ieee8025 --bandwidth-mbps=4"
     " --horizon-ms=200 --format=csv", 2,
     R"(released,completed,misses,miss_ratio,mean_response_ms,token_rotation_ms,async_frames,max_queue_depth
39,35,2,0.0513,11.4586,0.0000,1,2
)"},
    {"", "advise --stations=10 --sets=4 --bandwidths-mbps=16,100"
     " --seed=3 --format=csv", 0,
     R"(BW_Mbps,ieee8025,modified8025,fddi,resil_8025,resil_fddi,recommend
16,0.637,0.706,0.844,324.5,3.2,FDDI timed token
100,0.502,0.706,0.935,1601.2,7.8,FDDI timed token
)"},
    {"", "advise --stations=20 --sets=8 --bandwidths-mbps=4,622"
     " --seed=7 --mean-period-ms=50 --period-ratio=4 --format=csv", 0,
     R"(BW_Mbps,ieee8025,modified8025,fddi,resil_8025,resil_fddi,recommend
4,0.598,0.661,0.544,46.9,0.1,Modified IEEE 802.5
622,0.050,0.075,0.948,867.8,6.1,FDDI timed token
)"},

};

TEST(ToolGolden, ScenarioCommandsMatchTheFrozenGoldens) {
  std::map<std::string, std::string> paths;
  for (const auto& [key, csv] : kGoldenScenarios) {
    paths[key] = temp_path("tool_golden_" + key + ".csv");
    std::ofstream(paths[key]) << csv;
  }
  for (const CliGolden& golden : kCliGoldens) {
    std::string args = golden.args;
    if (*golden.scenario != '\0') args += " --file=" + paths[golden.scenario];
    const auto r = run_tool(args, /*stdout_only=*/true);
    EXPECT_EQ(r.exit_code, golden.exit_code) << args;
    EXPECT_EQ(r.output, golden.out) << args;
  }
  for (const auto& [key, path] : paths) std::remove(path.c_str());
}

// ---- daemon = CLI -----------------------------------------------------------

/// The "streams" array of a scenario CSV, reusing its number tokens so
/// both front ends parse the same text.
std::string streams_json(const std::string& csv) {
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);
  std::vector<std::string> columns;
  std::istringstream header(line);
  for (std::string c; std::getline(header, c, ',');) columns.push_back(c);
  std::string out = "[";
  while (std::getline(in, line)) {
    std::istringstream row(line);
    out += out.size() > 1 ? ",{" : "{";
    std::size_t i = 0;
    for (std::string cell; std::getline(row, cell, ','); ++i) {
      out += (i > 0 ? ",\"" : "\"") + columns.at(i) + "\":" + cell;
    }
    out += "}";
  }
  return out + "]";
}

/// Rows of a CSV table printed by the tool, header included.
std::vector<std::vector<std::string>> csv_rows(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    rows.emplace_back();
    std::istringstream row(line);
    for (std::string cell; std::getline(row, cell, ',');) {
      rows.back().push_back(cell);
    }
  }
  return rows;
}

TEST_F(ToolTest, DaemonAndCliAgreeOnGeneratedScenarios) {
  serve::Engine::Options options;
  options.jobs = 1;
  serve::Engine engine(options);
  const auto result_of = [&](const std::string& line) {
    const auto doc = obs::parse_json(engine.handle_line(line, "test"));
    EXPECT_TRUE(doc.ok) << line;
    EXPECT_EQ(doc.value.find("status")->as_int64(), 200) << line;
    return *doc.value.find("result");
  };

  const char* const kProtocols[] = {"ieee8025", "modified8025", "fddi"};
  const char* const kBandwidths[] = {"4", "16", "100", "622"};
  const double kUtilizations[] = {0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 1.3};
  const char* const kNoise[] = {"0", "0.5", "1", "2"};
  std::map<std::string, std::set<bool>> verdicts;
  int constrained = 0;
  Rng rng(17);
  const std::string path = temp_path("tool_test_agree.csv");
  for (int i = 0; i < 36; ++i) {
    const std::string protocol = kProtocols[i % 3];
    const std::string bw = kBandwidths[(i / 3) % 4];
    msg::GeneratorConfig g;
    g.num_streams = 2 + i % 5;
    g.deadline_fraction = i % 4 == 1 ? 0.6 : 1.0;
    constrained += i % 4 == 1;
    msg::MessageSet set = msg::MessageSetGenerator(g).generate(rng);
    set = set.scaled(kUtilizations[(i / 3 + i) % 7] /
                     set.utilization(mbps(std::stod(bw))));
    const std::string csv = msg::to_csv(set);
    std::ofstream(path) << csv;
    const std::string flags = " --file=" + path + " --protocol=" + protocol +
                              " --bandwidth-mbps=" + bw + " --format=csv";
    const std::string query = R"("protocol":")" + protocol +
                              R"(","bandwidth_mbps":)" + bw +
                              R"(,"streams":)" + streams_json(csv);
    const std::string where = protocol + " @" + bw + "\n" + csv;

    const auto cli = run_tool("check" + flags, /*stdout_only=*/true);
    const auto daemon = result_of(R"({"type":"check",)" + query + "}");
    const bool ok = daemon.find("schedulable")->as_bool();
    verdicts[protocol].insert(ok);
    EXPECT_EQ(cli.exit_code, ok ? 0 : 2) << where;
    EXPECT_EQ(cli.output, "protocol,schedulable\n" + protocol +
                              (ok ? ",yes\n" : ",no\n"))
        << where;

    const std::string noise = kNoise[i % 4];
    const auto fcli = run_tool("faultcheck" + flags + " --noise-ms=" + noise,
                               /*stdout_only=*/true);
    const auto fdaemon = result_of(R"({"type":"faultcheck","noise_ms":)" +
                                   noise + "," + query + "}");
    EXPECT_EQ(fcli.exit_code, fdaemon.find("schedulable")->as_bool() ? 0 : 2)
        << where;
    const auto rows = csv_rows(fcli.output);
    const auto& margins = fdaemon.find("margins")->items();
    ASSERT_EQ(rows.size(), margins.size() + 1) << fcli.output;
    for (std::size_t k = 0; k < margins.size(); ++k) {
      const obs::JsonValue& m = margins[k];
      ASSERT_EQ(rows[k + 1].size(), 3u) << fcli.output;
      EXPECT_EQ(rows[k + 1][0], m.find("fault_kind")->as_string()) << where;
      const obs::JsonValue& margin = *m.find("margin");
      EXPECT_EQ(rows[k + 1][2], margin.is_number()
                                    ? std::to_string(margin.as_int64())
                                    : std::string("-"))
          << where;
    }
  }
  std::remove(path.c_str());
  // The draw covers both sides of every protocol's boundary and some
  // constrained deadlines.
  for (const char* protocol : kProtocols) {
    EXPECT_EQ(verdicts[protocol].size(), 2u) << protocol;
  }
  EXPECT_GT(constrained, 0);

  // Every range refusal is a 400 from the daemon (and exit 1 from the CLI,
  // BadNumbersExitOneNamingTheFlagOrLine).
  for (const RangeRefusal& refusal : range_refusals()) {
    const auto doc = obs::parse_json(engine.handle_line(refusal.request, "t"));
    EXPECT_EQ(doc.value.find("status")->as_int64(), 400) << refusal.request;
  }
}

}  // namespace
