// End-to-end tests of the tokenring_tool CLI binary: exercises argument
// parsing, exit codes, and the scenario-file round trip through the real
// executable (path injected by CMake as TOKENRING_TOOL_PATH).

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

namespace {

#ifndef TOKENRING_TOOL_PATH
#error "TOKENRING_TOOL_PATH must be defined by the build"
#endif

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_tool(const std::string& args) {
  const std::string cmd =
      std::string(TOKENRING_TOOL_PATH) + " " + args + " 2>&1";
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
    write_scenario(light_, "0,50,10000\n1,100,20000\n");
    write_scenario(heavy_, "0,10,2000000\n1,10,2000000\n");  // 40x overload
  }
  void TearDown() override {
    std::remove(light_.c_str());
    std::remove(heavy_.c_str());
  }
  std::string light_;
  std::string heavy_;
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

}  // namespace
