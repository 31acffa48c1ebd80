#include "calibrate.hpp"

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTableSize = 4096;  // 32 KiB: stays in L1/L2
constexpr std::size_t kIterations = 5'000'000;

volatile double reference_sink = 0.0;  // written by the calling thread only

/// A latency-bound chain of multiplies, divides and floor/ceil over a
/// small table: the same kind of work as the response-time analysis and
/// the simulators, none of their code.
double reference_loop() {
  std::vector<double> table(kTableSize);
  for (std::size_t i = 0; i < kTableSize; ++i) {
    table[i] = 1.0 + static_cast<double>(i % 97) * 0.013;
  }
  double x = 0.5;
  double acc = 0.0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    const double t = table[(i * 2654435761u) & (kTableSize - 1)];
    x = x * t + 0.25;
    x -= std::floor(x / 3.0) * 3.0;
    acc += std::ceil(x * 7.0 / t);
  }
  return acc;
}

}  // namespace

double reference_pass_ns(std::size_t threads) {
  const std::uint64_t t0 = now_ns();
  std::vector<double> results(threads);
  std::vector<std::thread> others;
  for (std::size_t t = 1; t < threads; ++t) {
    others.emplace_back([&results, t] { results[t] = reference_loop(); });
  }
  results[0] = reference_loop();
  for (auto& t : others) t.join();
  const double ns = static_cast<double>(now_ns() - t0);
  for (double r : results) reference_sink = reference_sink + r;
  return ns;
}

double HostSpeed::time(std::size_t threads,
                       const std::function<void()>& body) {
  std::vector<double>& passes = passes_ns_[threads];
  passes.push_back(reference_pass_ns(threads));
  const std::uint64_t t0 = now_ns();
  body();
  const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  passes.push_back(reference_pass_ns(threads));
  return seconds;
}

double HostSpeed::rescale(double seconds, std::size_t threads) const {
  return seconds * kReferenceNominalNs / median(passes_ns_.at(threads));
}

std::string HostSpeed::describe() const {
  std::ostringstream out;
  out << "reference pass median [ms]:";
  for (const auto& [threads, passes] : passes_ns_) {
    out << ' ' << median(passes) * 1e-6 << " on " << threads << " thread(s) ("
        << passes.size() << " passes);";
  }
  return out.str();
}

}  // namespace perfbench
