#include "report.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "tokenring/obs/json.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {

std::vector<Sample> repeat_for(double seconds,
                               const std::function<bool(Sample&)>& rep) {
  const std::uint64_t stop =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<Sample> reps;
  do {
    Sample sample;
    const bool go_on = rep(sample);
    reps.push_back(std::move(sample));
    if (!go_on) break;
  } while (now_ns() < stop);
  return reps;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string provenance_json(std::size_t nproc) {
  std::ostringstream os;
  tokenring::obs::JsonWriter w(os);
  w.begin_object();
  w.key("build_type").value_string(PERFBENCH_BUILD_TYPE);
  w.key("compiler").value_string(PERFBENCH_COMPILER);
  w.key("cxx_flags").value_string(PERFBENCH_CXX_FLAGS);
  w.key("cpu_model").value_string(cpu_model());
  w.key("nproc").value_uint(nproc);
  w.end_object();
  return os.str();
}

void print_result(std::ostream& os, const Result& result) {
  tokenring::obs::JsonWriter w(os);
  w.begin_object();
  w.key("correct").value_bool(result.correct());
  w.key("attempted").value_uint(result.attempted);
  w.key("failed").value_uint(result.failed);
  w.key("metrics").begin_object();
  if (result.correct()) {
    for (const auto& [name, value] : result.metrics) {
      w.key(name).value_number(value);
    }
  }
  w.end_object();
  w.key("gate_failures").begin_array();
  for (const auto& g : result.gate_failures) w.value_string(g);
  w.end_array();
  w.key("notes").begin_array();
  for (const auto& n : result.notes) w.value_string(n);
  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace perfbench
