// Tests of the benchmark's own machinery: order statistics and the
// ten-beyond rule, the rate-ladder search, span self-time arithmetic, and
// the traced kernel factories' bit-identity with the unwrapped ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "kernel_probe.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "tokenring/experiments/setup.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = one_to(100);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
  // Order of the input does not matter.
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 0.0), std::invalid_argument);
}

TEST(Percentile, Median) {
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Percentile, TenBeyondRule) {
  EXPECT_EQ(samples_beyond(100, 0.99), 1u);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(0, 0.99), 0u);
  EXPECT_FALSE(tail_resolved(999, 0.99));
  EXPECT_TRUE(tail_resolved(1000, 0.99));
  EXPECT_TRUE(tail_resolved(20, 0.5));
  EXPECT_FALSE(tail_resolved(19, 0.5));
}

TEST(Percentile, MedianByKey) {
  const Sample m = median_by_key({{{"a", 1.0}, {"b", 10.0}},
                                  {{"a", 3.0}},
                                  {{"a", 2.0}, {"b", 20.0}}});
  EXPECT_EQ(m.at("a"), 2.0);
  EXPECT_EQ(m.at("b"), 15.0);
}

TEST(RateLadder, RungsAreAtMostFivePercentApart) {
  const auto rungs = rate_ladder(100.0, 400.0, 1.05);
  ASSERT_GE(rungs.size(), 2u);
  EXPECT_EQ(rungs.front(), 100.0);
  EXPECT_GE(rungs.back(), 400.0);
  for (std::size_t i = 1; i < rungs.size(); ++i) {
    EXPECT_LE(rungs[i] / rungs[i - 1], 1.05 + 1e-12);
  }
  EXPECT_THROW(rate_ladder(100.0, 400.0, 1.10), std::invalid_argument);
}

/// Synthetic M/M/1-style server: p99 sojourn = ln(100) / (mu - lambda).
/// A rung passes when the queue is stable and the p99 meets the limit.
struct SyntheticServer {
  double capacity;  // requests/s
  double limit_s;
  int probes = 0;

  bool passes(double rate) {
    ++probes;
    if (rate >= capacity) return false;  // backlog grows without bound
    return std::log(100.0) / (capacity - rate) <= limit_s;
  }
};

TEST(RateLadder, BinarySearchFindsTheHighestPassingRung) {
  const auto rungs = rate_ladder(500.0, 8000.0, 1.05);
  for (double capacity : {900.0, 2500.0, 4000.0, 7900.0}) {
    for (double limit_ms : {5.0, 20.0, 100.0}) {
      SyntheticServer model{capacity, limit_ms * 1e-3};
      int expected = -1;
      for (std::size_t i = 0; i < rungs.size(); ++i) {
        if (model.passes(rungs[i])) expected = static_cast<int>(i);
      }
      model.probes = 0;
      const int found = highest_passing_rung(
          rungs, [&](double rate) { return model.passes(rate); });
      EXPECT_EQ(found, expected) << capacity << " req/s, " << limit_ms << " ms";
      EXPECT_LE(model.probes,
                static_cast<int>(std::ceil(std::log2(rungs.size() + 1.0))));
    }
  }
}

TEST(RateLadder, EdgeCases) {
  const std::vector<double> rungs = {1.0, 2.0, 3.0};
  EXPECT_EQ(highest_passing_rung(rungs, [](double) { return false; }), -1);
  EXPECT_EQ(highest_passing_rung(rungs, [](double) { return true; }), 2);
}

SpanRecord span(std::uint64_t id, std::uint64_t parent, const char* name,
                std::uint64_t start, std::uint64_t end) {
  return {id, parent, name, start, end, 0, 0};
}

TEST(SelfTime, SubtractsTheUnionOfChildIntervals) {
  const std::vector<SpanRecord> spans = {
      span(1, 0, "parent", 0, 100),
      span(2, 1, "child", 10, 30),
      span(3, 1, "child", 20, 40),    // overlaps the first child
      span(4, 1, "child", 90, 120),   // runs past the parent: clipped
      span(5, 2, "grandchild", 12, 18),
  };
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100u - 30u - 10u);
  EXPECT_EQ(self[1], 20u - 6u);
  EXPECT_EQ(self[2], 20u);
  EXPECT_EQ(self[3], 30u);
  EXPECT_EQ(self[4], 6u);

  const auto totals = totals_by_name(spans);
  EXPECT_EQ(totals.at("child").count, 3u);
  EXPECT_EQ(totals.at("child").total_ns, 70u);
  EXPECT_EQ(totals.at("child").self_ns, 64u);
  EXPECT_EQ(totals.at("parent").self_ns, 60u);
}

TEST(SelfTime, ChildrenCoveringTheParentLeaveNoSelfTime) {
  const auto self = self_times_ns({span(1, 0, "p", 0, 10),
                                   span(2, 1, "c", 0, 6),
                                   span(3, 1, "c", 5, 10)});
  EXPECT_EQ(self[0], 0u);
}

TEST(Trace, RecordsSpansFromManyThreads) {
  Trace trace;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&trace, t] {
      for (int i = 0; i < 100; ++i) {
        const ScopedSpan outer(&trace, "outer", 0,
                               static_cast<std::uint64_t>(t));
        const ScopedSpan inner(&trace, "inner", outer.id());
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 800u);
  std::vector<std::uint64_t> ids;
  for (const auto& s : spans) {
    ids.push_back(s.id);
    EXPECT_LE(s.start_ns, s.end_ns);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(totals_by_name(spans).at("inner").count, 400u);
}

TEST(Trace, NullTraceRecordsNothing) {
  const ScopedSpan span(nullptr, "nothing");
  EXPECT_EQ(span.id(), 0u);
}

bool same_estimate(const tokenring::breakdown::BreakdownEstimate& a,
                   const tokenring::breakdown::BreakdownEstimate& b) {
  const double am = a.mean(), bm = b.mean(), ac = a.ci95(), bc = b.ci95();
  return std::memcmp(&am, &bm, sizeof am) == 0 &&
         std::memcmp(&ac, &bc, sizeof ac) == 0 &&
         a.degenerate_sets == b.degenerate_sets &&
         a.unbounded_sets == b.unbounded_sets &&
         a.utilization.count() == b.utilization.count();
}

TEST(TracedFactory, EstimatesAreBitIdenticalToTheUnwrappedFactory) {
  using tokenring::analysis::PdpVariant;
  tokenring::experiments::PaperSetup setup;
  setup.num_stations = 20;
  for (double bw_mbps : {4.0, 100.0}) {
    const auto bw = tokenring::mbps(bw_mbps);
    for (std::size_t jobs : {1u, 3u}) {
      const tokenring::exec::Executor executor(jobs);
      const std::vector<tokenring::breakdown::BatchScaleKernelFactory> plain = {
          setup.pdp_batch_kernel_factory(PdpVariant::kStandard8025, bw),
          setup.pdp_batch_kernel_factory(PdpVariant::kModified8025, bw),
          setup.ttp_batch_kernel_factory(bw)};
      for (std::size_t f = 0; f < plain.size(); ++f) {
        Trace trace;
        KernelCounts counts;
        const auto traced = traced_factory(
            plain[f], trace, f < 2 ? kPdpKernelSpans : kTtpKernelSpans, 0,
            counts);
        const auto a = tokenring::experiments::estimate_point(
            setup, plain[f], bw, 40, 7, executor, 16);
        const auto b = tokenring::experiments::estimate_point(
            setup, traced, bw, 40, 7, executor, 16);
        EXPECT_TRUE(same_estimate(a, b))
            << "factory " << f << " at " << bw_mbps << " Mbps, jobs " << jobs;
        EXPECT_EQ(counts.groups.load(), 3u);  // 40 trials in groups of 16
        EXPECT_GT(counts.evaluate_calls.load(), 0u);
        EXPECT_LE(counts.active_lanes.load(), counts.lanes_evaluated.load());
        const auto totals = totals_by_name(trace.spans());
        EXPECT_EQ(totals.at("breakdown.group").count, 3u);
        EXPECT_EQ(totals.at("breakdown.search").count, 3u);
      }
    }
  }
}

TEST(Result, AFailedGateReportsNoNumbers) {
  Result result;
  result.attempted = 3;
  result.failed = 1;
  result.set("serial_wall_s", 1.5);
  std::ostringstream ok;
  print_result(ok, result);
  EXPECT_NE(ok.str().find("\"serial_wall_s\":1.5"), std::string::npos);
  result.gate(false, "rows differ");
  std::ostringstream failed;
  print_result(failed, result);
  EXPECT_NE(failed.str().find("\"correct\":false"), std::string::npos);
  EXPECT_NE(failed.str().find("\"metrics\":{}"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
