// perfbench: the repository benchmark's workload program.
//
//   perfbench --workload <fig1_sweep|serve_mix|sim_validation> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <spans.jsonl>]
//
// Prints a provenance line, then one JSON result line (see report.hpp).
// run.py builds this binary, attaches units from BENCHMARK.json and
// prints the contract's final line.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "report.hpp"
#include "tokenring/exec/executor.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <fig1_sweep|serve_mix|"
               "sim_validation> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::WorkloadArgs args;
  args.nproc = tokenring::exec::default_jobs();
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(args.seconds > 0.0)) return usage();

  perfbench::Result result;
  try {
    if (workload == "fig1_sweep") {
      result = perfbench::run_fig1_sweep(args);
    } else if (workload == "serve_mix") {
      result = perfbench::run_serve_mix(args);
    } else if (workload == "sim_validation") {
      result = perfbench::run_sim_validation(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << '\n';
    return 1;
  }
  std::cout << "{\"provenance\":" << perfbench::provenance_json(args.nproc)
            << "}\n";
  perfbench::print_result(std::cout, result);
  return 0;
}
