// Tests for the experiment drivers. Sample counts are kept tiny: these
// tests pin the drivers' mechanics and the headline qualitative shapes, not
// publication-grade statistics (the bench binaries do that).

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tokenring/breakdown/monte_carlo.hpp"
#include "tokenring/breakdown/saturation.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/exec/executor.hpp"
#include "tokenring/experiments/allocation_study.hpp"
#include "tokenring/experiments/crossover_study.hpp"
#include "tokenring/experiments/fault_study.hpp"
#include "tokenring/experiments/deadline_study.hpp"
#include "tokenring/experiments/distribution_study.hpp"
#include "tokenring/experiments/fig1.hpp"
#include "tokenring/experiments/frame_size_study.hpp"
#include "tokenring/experiments/setup.hpp"
#include "tokenring/experiments/sim_validation_study.hpp"
#include "tokenring/experiments/station_count_study.hpp"
#include "tokenring/experiments/ttrt_study.hpp"
#include "tokenring/obs/registry.hpp"
#include "tokenring/sim/config.hpp"
#include "tokenring/sim/workload.hpp"

namespace tokenring::experiments {
namespace {

PaperSetup small_setup() {
  PaperSetup s;
  s.num_stations = 16;
  return s;
}

// ---- setup -----------------------------------------------------------------

TEST(Setup, GeneratorConfigEchoesFields) {
  const auto g = small_setup().generator_config();
  EXPECT_EQ(g.num_streams, 16);
  EXPECT_DOUBLE_EQ(g.mean_period, milliseconds(100));
}

TEST(Setup, ParamsFollowStandards) {
  const auto setup = small_setup();
  EXPECT_DOUBLE_EQ(
      setup.pdp_params(analysis::PdpVariant::kStandard8025).ring
          .per_station_bit_delay,
      4.0);
  EXPECT_DOUBLE_EQ(setup.ttp_params().ring.per_station_bit_delay, 75.0);
  EXPECT_DOUBLE_EQ(setup.ttp_params().frame.info_bits, 512.0);
}

TEST(Setup, PredicatesReactToScale) {
  const auto setup = small_setup();
  msg::MessageSetGenerator gen(setup.generator_config());
  Rng rng(1);
  const auto base = gen.generate(rng);
  const auto pdp =
      setup.pdp_predicate(analysis::PdpVariant::kModified8025, mbps(10));
  EXPECT_TRUE(pdp(base.scaled(0.01)));
  EXPECT_FALSE(pdp(base.scaled(1e6)));
  const auto ttp = setup.ttp_predicate(mbps(100));
  EXPECT_TRUE(ttp(base.scaled(0.01)));
  EXPECT_FALSE(ttp(base.scaled(1e6)));
}

TEST(Setup, EstimatePointDeterministic) {
  const auto setup = small_setup();
  const msg::MessageSetGenerator gen(setup.generator_config());
  const auto p = setup.ttp_predicate(mbps(100));
  breakdown::MonteCarloOptions options;
  options.num_sets = 5;
  const exec::Executor seq(1);
  const auto a =
      breakdown::estimate_breakdown_utilization(gen, p, mbps(100), 3, seq,
                                                options);
  const auto b =
      breakdown::estimate_breakdown_utilization(gen, p, mbps(100), 3, seq,
                                                options);
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
}

// ---- Figure 1 ----------------------------------------------------------------

TEST(Fig1, ReproducesHeadlineShape) {
  Fig1Config config;
  config.setup = small_setup();
  config.bandwidths_mbps = {2, 5, 20, 100, 500};
  config.sets_per_point = 12;
  const auto rows = run_fig1(config);
  ASSERT_EQ(rows.size(), 5u);

  const auto obs = analyze_fig1(rows);
  EXPECT_TRUE(obs.modified_dominates_standard);
  EXPECT_TRUE(obs.pdp_non_monotone);
  EXPECT_EQ(obs.low_bandwidth_winner, "pdp");
  EXPECT_EQ(obs.high_bandwidth_winner, "ttp");
  EXPECT_GT(obs.ttp_crossover_mbps, 2.0);
  EXPECT_LE(obs.ttp_crossover_mbps, 100.0);
  // FDDI ends high; PDP ends low.
  EXPECT_GT(rows.back().fddi, 0.7);
  EXPECT_LT(rows.back().modified8025, 0.2);
}

TEST(Fig1, RowsCarryConfidenceIntervals) {
  Fig1Config config;
  config.setup = small_setup();
  config.bandwidths_mbps = {20};
  config.sets_per_point = 8;
  const auto rows = run_fig1(config);
  EXPECT_GT(rows[0].fddi_ci, 0.0);
  EXPECT_GT(rows[0].modified8025_ci, 0.0);
}

TEST(Fig1, RowsAndSearchWorkAreFrozen) {
  // The paper's sweep (100 stations, the ten default bandwidths, seed 42)
  // at 16 sets per point: every row field bit for bit, captured before
  // the RTA fixpoint gained its warm start, and the work the breakdown
  // searches do. A change to the search or its RTA that moves a row
  // changes Figure 1; one that moves the probe or fixpoint-run count
  // changes the work done. The RTA counts are the budget of the warm
  // start, the deadline point and cost dominance together: the warm start
  // alone took 97'612 fixpoint runs and 340'148 iterations, and cold
  // starts 1'167'329 iterations.
  Fig1Config config;
  config.sets_per_point = 16;
  const std::vector<Fig1Row> golden = {
      {1, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0},
      {2, 0x1.5b9595fbf0979p-2, 0x1.fb679523990bdp-8, 0x1.a8907b2359dbp-2,
       0x1.b6d3b0302cbep-8, 0x0p+0, 0x0p+0},
      {5, 0x1.76d1f6b8bfb5ep-2, 0x1.95d07546b0f41p-9, 0x1.071acd98acf53p-1,
       0x1.e64c8a33cb913p-9, 0x1.f06582982f63ap-3, 0x1.39a978565b043p-7},
      {10, 0x1.293d69e49fb68p-2, 0x1.8c2440376b9afp-10, 0x1.a95e4e54b858ap-2,
       0x1.9a925501db8ddp-9, 0x1.c299e2df81e05p-2, 0x1.142c1df7d0134p-7},
      {20, 0x1.93959348c9a8cp-3, 0x1.4e0c583df8a8fp-10, 0x1.25fbda0482b7fp-2,
       0x1.784d81f1a18b7p-10, 0x1.2ed916ac04dd9p-1, 0x1.94dd6bb8a270bp-8},
      {50, 0x1.9769e4c374559p-4, 0x1.690374df73c9p-11, 0x1.2a60aa0fc04dp-3,
       0x1.bae9c3733c61cp-11, 0x1.77cb513183782p-1, 0x1.074ba3e17419ep-8},
      {100, 0x1.bce3f63e2c6b8p-5, 0x1.615b4b974acacp-12, 0x1.468c7d24e90a6p-4,
       0x1.d0c6c66af77f4p-12, 0x1.9c4cce15496a8p-1, 0x1.afddbe9a0276dp-9},
      {200, 0x1.d3256b7aa8483p-6, 0x1.6a2662f8398d8p-13, 0x1.56e2159d69342p-5,
       0x1.0658223d006b1p-12, 0x1.b5437f95cdb5ep-1, 0x1.391a904965e89p-9},
      {500, 0x1.810d238def8cep-7, 0x1.160dca8f30578p-14, 0x1.1ae88aa012d3cp-6,
       0x1.7869de357cdd4p-14, 0x1.c8c798409e4ffp-1, 0x1.f2ce071fba2a5p-10},
      {1000, 0x1.84416fd288034p-8, 0x1.1cfc1b0319de8p-15, 0x1.1d98dfa9c0892p-7,
       0x1.b44ae120d40adp-15, 0x1.d0c3eb58bcc0ep-1, 0x1.f76481599298ep-10},
  };
  const auto counter = [](const obs::MetricsSnapshot& snap,
                          const std::string& name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };

  const auto before = obs::Registry::global().snapshot();
  const auto rows = run_fig1(config);
  const auto after = obs::Registry::global().snapshot();
  const auto delta = [&](const std::string& name) {
    return counter(after, name) - counter(before, name);
  };

  ASSERT_EQ(config.setup.num_stations, 100);
  ASSERT_EQ(rows.size(), golden.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& got = rows[i];
    const auto& want = golden[i];
    SCOPED_TRACE(std::to_string(want.bandwidth_mbps) + " Mbps");
    EXPECT_EQ(got.bandwidth_mbps, want.bandwidth_mbps);
    EXPECT_EQ(got.ieee8025, want.ieee8025);
    EXPECT_EQ(got.ieee8025_ci, want.ieee8025_ci);
    EXPECT_EQ(got.modified8025, want.modified8025);
    EXPECT_EQ(got.modified8025_ci, want.modified8025_ci);
    EXPECT_EQ(got.fddi, want.fddi);
    EXPECT_EQ(got.fddi_ci, want.fddi_ci);
  }
  EXPECT_EQ(delta("breakdown.predicate_evals"), 12'040u);
  EXPECT_EQ(delta("breakdown.exact_probes"), 4'310u);
  EXPECT_EQ(delta("analysis.rta.fixpoint_runs"), 7'919u);
  EXPECT_EQ(delta("analysis.rta.iterations"), 70'422u);
  EXPECT_EQ(delta("analysis.rta.deadline_accepts"), 42'049u);
  EXPECT_EQ(delta("analysis.rta.quick_rejects"), 293u);
  EXPECT_EQ(delta("analysis.rta.hyperbolic_accepts"), 167'838u);
  EXPECT_EQ(delta("analysis.rta.hint_hits"), 1'847u);
  EXPECT_EQ(delta("analysis.rta_cap_hits"), 0u);
}

TEST(Fig1, DispatchIsOneSweep) {
  // Dispatch budget: the whole sweep (10 bandwidths x 3 protocols, one
  // batch group of 16 sets per point) is one parallel_for of 30 items at
  // every jobs count, so no point waits on another point's barrier and a
  // 4-worker pool has at least 2 x jobs items in its one call. Counting
  // the dispatch needs no real cores.
  Fig1Config config;
  config.sets_per_point = 16;
  const auto counter = [](const obs::MetricsSnapshot& snap,
                          const std::string& name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    config.jobs = jobs;
    const auto before = obs::Registry::global().snapshot();
    run_fig1(config);
    const auto after = obs::Registry::global().snapshot();
    const auto delta = [&](const std::string& name) {
      return counter(after, name) - counter(before, name);
    };
    EXPECT_EQ(delta("exec.parallel_for_calls"), 1u);
    EXPECT_EQ(delta("exec.parallel_for_tasks"), 30u);
    EXPECT_GE(delta("exec.parallel_for_tasks"), 2 * jobs);
  }
}

TEST(Fig1, Preconditions) {
  Fig1Config config;
  config.bandwidths_mbps = {};
  EXPECT_THROW(run_fig1(config), PreconditionError);
  EXPECT_THROW(analyze_fig1({Fig1Row{}}), PreconditionError);
}

// ---- TTRT study ----------------------------------------------------------------

TEST(TtrtStudy, SqrtRuleNearEmpiricalOptimum) {
  TtrtStudyConfig config;
  config.setup = small_setup();
  config.bandwidth_mbps = 100.0;
  config.sets_per_point = 15;
  const auto result = run_ttrt_study(config);
  ASSERT_EQ(result.rows.size(), config.ttrt_fractions.size());

  // The sqrt rule must beat the naive largest-valid-TTRT choice...
  EXPECT_GT(result.sqrt_rule_breakdown,
            result.rows.back().breakdown_mean);
  // ...and come close to the empirical grid optimum.
  EXPECT_GT(result.sqrt_rule_breakdown,
            0.9 * result.best_row.breakdown_mean);
  // The maximizer is an interior point (sensitivity!), not an endpoint.
  EXPECT_GT(result.best_row.fraction, config.ttrt_fractions.front());
  EXPECT_LT(result.best_row.fraction, config.ttrt_fractions.back());
}

TEST(TtrtStudy, RejectsBadFractions) {
  TtrtStudyConfig config;
  config.setup = small_setup();
  config.ttrt_fractions = {1.5};
  EXPECT_THROW(run_ttrt_study(config), PreconditionError);
}

// ---- frame size ------------------------------------------------------------------

TEST(FrameSizeStudy, OptimumGrowsWithBandwidth) {
  FrameSizeStudyConfig config;
  config.setup = small_setup();
  config.payload_bytes = {16, 64, 256, 1024};
  config.bandwidths_mbps = {4, 100};
  config.sets_per_point = 12;
  const auto rows = run_frame_size_study(config);
  ASSERT_EQ(rows.size(), 8u);
  // Larger frames pay off at higher bandwidth (F must stay above Theta).
  EXPECT_GE(best_payload_bytes(rows, 100.0), best_payload_bytes(rows, 4.0));
}

TEST(FrameSizeStudy, UnknownBandwidthThrows) {
  FrameSizeStudyConfig config;
  config.setup = small_setup();
  config.payload_bytes = {64};
  config.bandwidths_mbps = {4};
  config.sets_per_point = 2;
  const auto rows = run_frame_size_study(config);
  EXPECT_THROW(best_payload_bytes(rows, 999.0), PreconditionError);
}

// ---- distribution study ------------------------------------------------------------

TEST(DistributionStudy, WinnerStableAcrossParameterizations) {
  DistributionStudyConfig config;
  config.setup = small_setup();
  config.bandwidth_mbps = 200.0;  // deep in TTP territory
  config.mean_periods_ms = {50, 200};
  config.period_ratios = {2, 10};
  config.distributions = {msg::PeriodDistribution::kUniform};
  config.sets_per_point = 10;
  const auto rows = run_distribution_study(config);
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& r : rows) {
    EXPECT_GT(r.fddi, std::max(r.ieee8025, r.modified8025))
        << "mean=" << r.mean_period_ms << " ratio=" << r.period_ratio;
  }
}

TEST(DistributionStudy, DistributionNames) {
  EXPECT_STREQ(to_string(msg::PeriodDistribution::kUniform), "uniform");
  EXPECT_STREQ(to_string(msg::PeriodDistribution::kLogUniform), "log-uniform");
  EXPECT_STREQ(to_string(msg::PeriodDistribution::kEqual), "equal");
}

// ---- station count ------------------------------------------------------------------

TEST(StationCountStudy, MorStationsHurtPdpMoreThanTtp) {
  StationCountStudyConfig config;
  config.setup = small_setup();
  config.bandwidth_mbps = 100.0;
  config.station_counts = {8, 64};
  config.sets_per_point = 10;
  const auto rows = run_station_count_study(config);
  ASSERT_EQ(rows.size(), 2u);
  const double pdp_drop = rows[0].modified8025 - rows[1].modified8025;
  const double ttp_drop = rows[0].fddi - rows[1].fddi;
  EXPECT_GT(pdp_drop, 0.0);
  EXPECT_GT(pdp_drop, ttp_drop);
}

// ---- allocation study ------------------------------------------------------------------

TEST(AllocationStudy, LocalDominatesEverySchemeAtEveryLevel) {
  AllocationStudyConfig config;
  config.setup = small_setup();
  config.utilization_levels = {0.1, 0.3, 0.5};
  config.sets_per_point = 30;
  const auto rows = run_allocation_study(config);

  for (double u : config.utilization_levels) {
    double local_fraction = -1.0;
    for (const auto& r : rows) {
      if (r.scheme == analysis::AllocationScheme::kLocal && r.utilization == u) {
        local_fraction = r.feasible_fraction;
      }
    }
    ASSERT_GE(local_fraction, 0.0);
    for (const auto& r : rows) {
      if (r.utilization == u) {
        EXPECT_LE(r.feasible_fraction, local_fraction + 1e-12)
            << to_string(r.scheme) << " at U=" << u;
      }
    }
  }
}

TEST(AllocationStudy, FractionsAreProbabilities) {
  AllocationStudyConfig config;
  config.setup = small_setup();
  config.utilization_levels = {0.2};
  config.sets_per_point = 10;
  for (const auto& r : run_allocation_study(config)) {
    EXPECT_GE(r.feasible_fraction, 0.0);
    EXPECT_LE(r.feasible_fraction, 1.0);
  }
}

TEST(WorstCaseStudy, BoundHolds) {
  WorstCaseStudyConfig config;
  config.setup = small_setup();
  config.num_sets = 27;  // batch 5 below leaves a remainder chunk
  const auto result = run_worst_case_study(config);
  EXPECT_EQ(result.bound_violations, 0u);
  EXPECT_GT(result.analytical_bound, 0.25);   // near 1/3 at 100 Mbps
  EXPECT_LE(result.analytical_bound, 1.0 / 3.0 + 1e-12);
  // Every breakdown sample sits at or above the worst-case bound.
  EXPECT_GE(result.min_breakdown, result.analytical_bound - 1e-9);
  EXPECT_GE(result.mean_breakdown, result.min_breakdown);

  // The batch size is a throughput knob only: the result above (default
  // batch 64) is bit-identical at batch 1 and 5.
  for (std::size_t batch : {std::size_t{1}, std::size_t{5}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    config.batch = batch;
    const auto batched = run_worst_case_study(config);
    EXPECT_EQ(batched.analytical_bound, result.analytical_bound);
    EXPECT_EQ(batched.min_breakdown, result.min_breakdown);
    EXPECT_EQ(batched.mean_breakdown, result.mean_breakdown);
    EXPECT_EQ(batched.bound_violations, result.bound_violations);
  }
}

// ---- deadline study ------------------------------------------------------------------

TEST(DeadlineStudy, TightDeadlinesHurtTtpMoreThanPdp) {
  DeadlineStudyConfig config;
  config.setup = small_setup();
  config.bandwidths_mbps = {100};
  config.deadline_fractions = {1.0, 0.3};
  config.sets_per_point = 12;
  const auto rows = run_deadline_study(config);
  ASSERT_EQ(rows.size(), 2u);
  const auto& implicit = rows[0];
  const auto& tight = rows[1];
  // Everyone loses capacity under tighter deadlines...
  EXPECT_LT(tight.modified8025, implicit.modified8025);
  EXPECT_LT(tight.fddi, implicit.fddi);
  // ...but the timed token loses a larger fraction (paper Section 7).
  const double pdp_retained = tight.modified8025 / implicit.modified8025;
  const double ttp_retained = tight.fddi / implicit.fddi;
  EXPECT_GT(pdp_retained, ttp_retained);
}

TEST(DeadlineStudy, RowsAndSearchWorkAreFrozen) {
  // A small constrained-deadline study (100 stations, 10 and 100 Mbps,
  // seed 47, 8 sets per point): every row field bit for bit and the
  // probe count, captured before the RTA gained the deadline point and
  // cost dominance. Below D = P the hyperbolic screen never fires, so the
  // deadline point does all of the shortcut work there; before it, the
  // study took 131'753 fixpoint runs and 281'881 iterations.
  DeadlineStudyConfig config;
  config.sets_per_point = 8;
  config.deadline_fractions = {1.0, 0.8, 0.6, 0.4};
  const std::vector<DeadlineStudyRow> golden = {
      {0x1.4p+3, 0x1p+0, 0x1.28887e42e5809p-2, 0x1.abe82803aee49p-2,
       0x1.b02c82d706422p-2},
      {0x1.4p+3, 0x1.999999999999ap-1, 0x1.2405a07a35695p-2,
       0x1.a464222ac74acp-2, 0x1.2982c43b2ee5ep-2},
      {0x1.4p+3, 0x1.3333333333333p-1, 0x1.18242be20a6fep-2,
       0x1.8fbb68fb3b8cbp-2, 0x1.539dacb832562p-3},
      {0x1.4p+3, 0x1.999999999999ap-2, 0x1.e3468089dd912p-3,
       0x1.525472a45d768p-2, 0x1.f571deeb57bcbp-5},
      {0x1.9p+6, 0x1p+0, 0x1.c0cd8febd3069p-5, 0x1.4977af48dbe4ap-4,
       0x1.988b4b0c12826p-1},
      {0x1.9p+6, 0x1.999999999999ap-1, 0x1.b9e6e7993513bp-5,
       0x1.44221ad62fdcbp-4, 0x1.3e079076b7c04p-1},
      {0x1.9p+6, 0x1.3333333333333p-1, 0x1.a812956fc79ep-5,
       0x1.35fe78ebea66cp-4, 0x1.c7c3b3f6c5e8cp-2},
      {0x1.9p+6, 0x1.999999999999ap-2, 0x1.6cc777b906d0ap-5,
       0x1.0ae95ad210916p-4, 0x1.19e7c92d2ab6dp-2},
  };
  const auto counter = [](const obs::MetricsSnapshot& snap,
                          const std::string& name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };

  const auto before = obs::Registry::global().snapshot();
  const auto rows = run_deadline_study(config);
  const auto after = obs::Registry::global().snapshot();
  const auto delta = [&](const std::string& name) {
    return counter(after, name) - counter(before, name);
  };

  ASSERT_EQ(config.setup.num_stations, 100);
  ASSERT_EQ(rows.size(), golden.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& got = rows[i];
    const auto& want = golden[i];
    SCOPED_TRACE(std::to_string(want.bandwidth_mbps) + " Mbps, D/P " +
                 std::to_string(want.deadline_fraction));
    EXPECT_EQ(got.bandwidth_mbps, want.bandwidth_mbps);
    EXPECT_EQ(got.deadline_fraction, want.deadline_fraction);
    EXPECT_EQ(got.ieee8025, want.ieee8025);
    EXPECT_EQ(got.modified8025, want.modified8025);
    EXPECT_EQ(got.fddi, want.fddi);
  }
  EXPECT_EQ(delta("breakdown.predicate_evals"), 4'574u);
  EXPECT_EQ(delta("breakdown.exact_probes"), 1'577u);
  EXPECT_EQ(delta("analysis.rta.fixpoint_runs"), 2'035u);
  EXPECT_EQ(delta("analysis.rta.iterations"), 16'946u);
  EXPECT_EQ(delta("analysis.rta.deadline_accepts"), 72'120u);
  EXPECT_EQ(delta("analysis.rta.hyperbolic_accepts"), 15'955u);
  EXPECT_EQ(delta("analysis.rta_cap_hits"), 0u);
}

TEST(DeadlineStudy, ImplicitDeadlineRowMatchesPlainSetup) {
  DeadlineStudyConfig config;
  config.setup = small_setup();
  config.bandwidths_mbps = {100};
  config.deadline_fractions = {1.0};
  config.sets_per_point = 8;
  const auto rows = run_deadline_study(config);
  const msg::MessageSetGenerator gen(config.setup.generator_config());
  breakdown::MonteCarloOptions options;
  options.num_sets = 8;
  const auto plain = breakdown::estimate_breakdown_utilization(
                         gen, config.setup.ttp_predicate(mbps(100)),
                         mbps(100), config.seed, exec::Executor(1), options)
                         .mean();
  EXPECT_DOUBLE_EQ(rows[0].fddi, plain);
}

// ---- crossover study ------------------------------------------------------------------

TEST(CrossoverStudy, FindsInteriorCrossoverAtPaperishParameters) {
  CrossoverStudyConfig config;
  config.station_counts = {16};
  config.mean_periods_ms = {100};
  config.sets_per_point = 10;
  config.iterations = 8;
  const auto rows = run_crossover_study(config);
  ASSERT_EQ(rows.size(), 1u);
  const auto& r = rows[0];
  // The crossover is interior and in the paper's "1-10 vs 100" gap.
  EXPECT_GT(r.crossover_mbps, config.bw_low_mbps);
  EXPECT_LT(r.crossover_mbps, 200.0);
  // At the crossover the two protocols are within Monte Carlo noise.
  EXPECT_NEAR(r.pdp_at_crossover, r.ttp_at_crossover,
              0.15 * std::max(r.pdp_at_crossover, r.ttp_at_crossover));
}

TEST(CrossoverStudy, Preconditions) {
  CrossoverStudyConfig config;
  config.bw_high_mbps = config.bw_low_mbps;
  EXPECT_THROW(run_crossover_study(config), PreconditionError);
}

// ---- fault study -----------------------------------------------------------------------

TEST(FaultStudy, ZeroFaultRowsAreCleanAndLossesHurtTtpMore) {
  FaultStudyConfig config;
  config.setup.num_stations = 8;
  config.fault_counts = {0, 8};
  config.sets_per_point = 2;
  config.horizon_periods = 4.0;
  const auto rows = run_fault_study(config);
  ASSERT_EQ(rows.size(), 4u);  // 2 protocols x 1 kind x 2 counts

  double ttp_at_loss = -1.0;
  double pdp_at_loss = -1.0;
  for (const auto& r : rows) {
    EXPECT_EQ(r.kind, fault::FaultKind::kTokenLoss);
    if (r.faults == 0) {
      EXPECT_DOUBLE_EQ(r.miss_ratio, 0.0) << r.protocol;
      EXPECT_DOUBLE_EQ(r.outage, 0.0) << r.protocol;
    } else if (r.protocol == "fddi") {
      ttp_at_loss = r.miss_ratio;
      EXPECT_GT(r.outage, milliseconds(0.1));
    } else {
      pdp_at_loss = r.miss_ratio;
    }
  }
  // FDDI's claim-process outage costs at least as much as the 802.5
  // monitor's (usually strictly more).
  EXPECT_GE(ttp_at_loss, pdp_at_loss);
}

TEST(FaultStudy, SweepsKindsAndIsBitIdenticalAcrossJobs) {
  FaultStudyConfig config;
  config.setup.num_stations = 8;
  config.kinds = {fault::FaultKind::kTokenLoss,
                  fault::FaultKind::kFrameCorruption,
                  fault::FaultKind::kStationCrash};
  config.fault_counts = {0, 4};
  config.sets_per_point = 2;
  config.horizon_periods = 4.0;

  // Bit-identical, not approximately equal: plans come from per-trial
  // seed streams, the fold is in index order, and the batch size is a
  // throughput knob only.
  const auto expect_same_rows = [](const std::vector<FaultStudyRow>& a,
                                   const std::vector<FaultStudyRow>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].protocol, b[i].protocol);
      EXPECT_EQ(a[i].kind, b[i].kind);
      EXPECT_EQ(a[i].faults, b[i].faults);
      EXPECT_EQ(a[i].miss_ratio, b[i].miss_ratio);
      EXPECT_EQ(a[i].attributed_ratio, b[i].attributed_ratio);
      EXPECT_EQ(a[i].outage, b[i].outage);
    }
  };

  config.jobs = 1;
  const auto sequential = run_fault_study(config);
  ASSERT_EQ(sequential.size(), 12u);  // 2 protocols x 3 kinds x 2 counts
  config.jobs = 4;
  expect_same_rows(sequential, run_fault_study(config));

  // Batch 1 and 5 against the default 64, on one cell of 6 sets so that
  // batch 5 leaves a remainder chunk.
  FaultStudyConfig one_cell = config;
  one_cell.jobs = 1;
  one_cell.kinds = {fault::FaultKind::kTokenLoss};
  one_cell.fault_counts = {4};
  one_cell.sets_per_point = 6;
  const auto default_batch = run_fault_study(one_cell);
  for (std::size_t batch : {std::size_t{1}, std::size_t{5}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    one_cell.batch = batch;
    expect_same_rows(default_batch, run_fault_study(one_cell));
  }

  // Corruption's wasted slot is far cheaper than a full token-loss
  // recovery on the FDDI side.
  double loss_outage = 0.0, corruption_outage = 0.0;
  for (const auto& r : sequential) {
    if (r.protocol != "fddi" || r.faults == 0) continue;
    if (r.kind == fault::FaultKind::kTokenLoss) loss_outage = r.outage;
    if (r.kind == fault::FaultKind::kFrameCorruption) {
      corruption_outage = r.outage;
    }
  }
  EXPECT_GT(loss_outage, corruption_outage);
}

TEST(FaultStudy, DefaultRowsAndSimulatorWorkAreFrozen) {
  // The default study at 100 Mbps with every injectable fault kind (a
  // station crash brings its rejoin), captured from a Release build of
  // the staged engine before runs existed: every row field as hex floats,
  // and the simulator work the call does. Faults cut the medium's runs
  // and the token walk's visits mid-way, so this pins a run's first
  // refused step under each kind, as the sim-validation budget below pins
  // the fault-free study.
  struct GoldenRow {
    const char* protocol;
    fault::FaultKind kind;
    int faults;
    double miss_ratio;
    double attributed_ratio;
    Seconds outage;
  };
  constexpr auto kLoss = fault::FaultKind::kTokenLoss;
  constexpr auto kCorrupt = fault::FaultKind::kFrameCorruption;
  constexpr auto kNoise = fault::FaultKind::kNoiseBurst;
  constexpr auto kDup = fault::FaultKind::kDuplicateToken;
  constexpr auto kCrash = fault::FaultKind::kStationCrash;
  const std::vector<GoldenRow> golden = {
      {"modified8025", kLoss, 0, 0x0p+0, 0x0p+0, 0x0p+0},
      {"fddi", kLoss, 0, 0x0p+0, 0x0p+0, 0x0p+0},
      {"modified8025", kLoss, 1, 0x0p+0, 0x0p+0, 0x1.9c9ea5197e666p-17},
      {"fddi", kLoss, 1, 0x1.38d22d366088ep-9, 0x1p+0, 0x1.781be3a845cb3p-10},
      {"modified8025", kLoss, 2, 0x0p+0, 0x0p+0, 0x1.9c9ea5197ee66p-17},
      {"fddi", kLoss, 2, 0x1.d53b43d190cd5p-9, 0x1p+0, 0x1.781be3a845cc6p-10},
      {"modified8025", kLoss, 5, 0x0p+0, 0x0p+0, 0x1.9c9ea5197ee71p-17},
      {"fddi", kLoss, 5, 0x1.ae20fe2ac4bc3p-5, 0x1.e8ba2e8ba2e8cp-1, 0x1.781be3a845cacp-10},
      {"modified8025", kLoss, 10, 0x0p+0, 0x0p+0, 0x1.9c9ea5197f4p-17},
      {"fddi", kLoss, 10, 0x1.ae20fe2ac4bc3p-3, 0x1.c8ba2e8ba2e8cp-1, 0x1.781be3a845cc5p-10},
      {"modified8025", kCorrupt, 0, 0x0p+0, 0x0p+0, 0x0p+0},
      {"fddi", kCorrupt, 0, 0x0p+0, 0x0p+0, 0x0p+0},
      {"modified8025", kCorrupt, 1, 0x0p+0, 0x0p+0, 0x1.a2c2623abcccdp-18},
      {"fddi", kCorrupt, 1, 0x0p+0, 0x0p+0, 0x1.a2c2623abcccdp-18},
      {"modified8025", kCorrupt, 2, 0x0p+0, 0x0p+0, 0x1.a2c2623ab9ccdp-18},
      {"fddi", kCorrupt, 2, 0x0p+0, 0x0p+0, 0x1.a2c2623ab9ccdp-18},
      {"modified8025", kCorrupt, 5, 0x0p+0, 0x0p+0, 0x1.a2c2623ab7c9ap-18},
      {"fddi", kCorrupt, 5, 0x0p+0, 0x0p+0, 0x1.a2c2623ab7c9ap-18},
      {"modified8025", kCorrupt, 10, 0x0p+0, 0x0p+0, 0x1.a2c2623ab6385p-18},
      {"fddi", kCorrupt, 10, 0x0p+0, 0x0p+0, 0x1.a2c2623ab6385p-18},
      {"modified8025", kNoise, 0, 0x0p+0, 0x0p+0, 0x0p+0},
      {"fddi", kNoise, 0, 0x0p+0, 0x0p+0, 0x0p+0},
      {"modified8025", kNoise, 1, 0x0p+0, 0x0p+0, 0x1.095e1a794d9dap-10},
      {"fddi", kNoise, 1, 0x1.5fec72dd2c99fp-6, 0x1.e38e38e38e38ep-1, 0x1.3f20606bb036p-9},
      {"modified8025", kNoise, 2, 0x0p+0, 0x0p+0, 0x1.095e1a794d9f3p-10},
      {"fddi", kNoise, 2, 0x1.5625e1737995bp-5, 0x1.e2be2be2be2bep-1, 0x1.3f20606bb0386p-9},
      {"modified8025", kNoise, 5, 0x0p+0, 0x0p+0, 0x1.095e1a794d9e3p-10},
      {"fddi", kNoise, 5, 0x1.5fec72dd2c99fp-3, 0x1.ep-1, 0x1.3f20606bb0368p-9},
      {"modified8025", kNoise, 10, 0x0p+0, 0x0p+0, 0x1.095e1a794d9e6p-10},
      {"fddi", kNoise, 10, 0x1.1cb74b267ddc9p-1, 0x1.60afcb43057e6p-1, 0x1.3f20606bb035dp-9},
      {"modified8025", kDup, 0, 0x0p+0, 0x0p+0, 0x0p+0},
      {"fddi", kDup, 0, 0x0p+0, 0x0p+0, 0x0p+0},
      {"modified8025", kDup, 1, 0x0p+0, 0x0p+0, 0x1.a6961321e8ccdp-18},
      {"fddi", kDup, 1, 0x0p+0, 0x0p+0, 0x1.702f5e859b266p-15},
      {"modified8025", kDup, 2, 0x0p+0, 0x0p+0, 0x1.a6961321e799ap-18},
      {"fddi", kDup, 2, 0x0p+0, 0x0p+0, 0x1.702f5e859b2cdp-15},
      {"modified8025", kDup, 5, 0x0p+0, 0x0p+0, 0x1.a6961321e970ap-18},
      {"fddi", kDup, 5, 0x0p+0, 0x0p+0, 0x1.702f5e859ae8fp-15},
      {"modified8025", kDup, 10, 0x0p+0, 0x0p+0, 0x1.a6961321e999ap-18},
      {"fddi", kDup, 10, 0x1.38d22d366088ep-10, 0x1p+0, 0x1.702f5e859b029p-15},
      {"modified8025", kCrash, 0, 0x0p+0, 0x0p+0, 0x0p+0},
      {"fddi", kCrash, 0, 0x0p+0, 0x0p+0, 0x0p+0},
      {"modified8025", kCrash, 1, 0x1.3b74c1769aa5cp-10, 0x1p+0, 0x1.2fe741c068p-16},
      {"fddi", kCrash, 1, 0x1.3d5d991aa75c6p-8, 0x1p+0, 0x1.702f5e859bb33p-15},
      {"modified8025", kCrash, 2, 0x1.3a524387ac822p-10, 0x1p+0, 0x1.2fe741c068p-16},
      {"fddi", kCrash, 2, 0x1.63be887dfe25bp-7, 0x1p+0, 0x1.702f5e859b733p-15},
      {"modified8025", kCrash, 5, 0x0p+0, 0x0p+0, 0x1.23bf495c8c75cp-16},
      {"fddi", kCrash, 5, 0x1.bfc2f10dacae4p-6, 0x1p+0, 0x1.6175278a80614p-15},
      {"modified8025", kCrash, 10, 0x1.50f22e111c4c5p-7, 0x1p+0, 0x1.118354c6c3d0ap-16},
      {"fddi", kCrash, 10, 0x1.d24c2bb724193p-5, 0x1p+0, 0x1.4b5dd511d8448p-15},
  };
  const auto counter = [](const obs::MetricsSnapshot& snap,
                          const std::string& name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };

  FaultStudyConfig config;
  config.kinds = {kLoss, kCorrupt, kNoise, kDup, kCrash};
  const auto before = obs::Registry::global().snapshot();
  const auto rows = run_fault_study(config);
  const auto after = obs::Registry::global().snapshot();

  ASSERT_EQ(rows.size(), golden.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& got = rows[i];
    const auto& want = golden[i];
    SCOPED_TRACE(std::string(want.protocol) + " " +
                 fault::to_string(want.kind) + " x" +
                 std::to_string(want.faults));
    EXPECT_EQ(got.protocol, want.protocol);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.faults, want.faults);
    EXPECT_EQ(got.miss_ratio, want.miss_ratio);
    EXPECT_EQ(got.attributed_ratio, want.attributed_ratio);
    EXPECT_EQ(got.outage, want.outage);
  }
  EXPECT_EQ(counter(after, "sim.events") - counter(before, "sim.events"),
            29'103'631u);
  EXPECT_EQ(counter(after, "sim.runs") - counter(before, "sim.runs"), 250u);
}

// ---- simulation validation ------------------------------------------------------------

TEST(SimValidationStudy, SoundOnSmallSample) {
  SimValidationConfig config;
  config.setup.num_stations = 8;
  config.bandwidths_mbps = {100};
  config.sets_per_point = 3;
  const auto rows = run_sim_validation(config);
  ASSERT_EQ(rows.size(), 3u);  // 2 PDP variants + TTP
  for (const auto& r : rows) {
    EXPECT_EQ(r.false_negatives, 0u) << r.protocol;
    EXPECT_EQ(r.johnson_violations, 0u) << r.protocol;
    if (r.protocol == "fddi" && r.sets_tested > 0) {
      EXPECT_GT(r.max_intervisit_ratio, 0.0);
      EXPECT_LE(r.max_intervisit_ratio, 2.0 + 1e-9);
    }
  }

  // The batch size is a throughput knob only: rows at batch 1 and 5 are
  // bit-identical to the default 64. 6 sets so that batch 5 leaves a
  // remainder chunk; short runs, since only equality is checked here.
  SimValidationConfig batched = config;
  batched.sets_per_point = 6;
  batched.horizon_periods = 1.0;
  const auto default_batch = run_sim_validation(batched);
  for (std::size_t batch : {std::size_t{1}, std::size_t{5}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    batched.batch = batch;
    const auto other = run_sim_validation(batched);
    ASSERT_EQ(other.size(), default_batch.size());
    for (std::size_t i = 0; i < other.size(); ++i) {
      const auto& a = default_batch[i];
      const auto& b = other[i];
      EXPECT_EQ(a.protocol, b.protocol);
      EXPECT_EQ(a.bandwidth_mbps, b.bandwidth_mbps);
      EXPECT_EQ(a.sets_tested, b.sets_tested);
      EXPECT_EQ(a.degenerate_skipped, b.degenerate_skipped);
      EXPECT_EQ(a.false_negatives, b.false_negatives);
      EXPECT_EQ(a.outside_clean, b.outside_clean);
      EXPECT_EQ(a.johnson_violations, b.johnson_violations);
      EXPECT_EQ(a.max_intervisit_ratio, b.max_intervisit_ratio);
    }
  }
}

TEST(SimValidationStudy, DefaultRowsAndSimulatorWorkAreFrozen) {
  // The default study (seed 29, 10 sets per cell, 12 stations, 10 and
  // 100 Mbps), captured from the engine before its event queue was
  // rewritten: every row field, the FDDI inter-visit maxima bit for bit,
  // and the simulator work the call does. An engine change that moves any
  // of these changes what the study validates. Outside runs are
  // verdict-only (each stops at its first miss); frame trains count every
  // inline step as one event.
  struct GoldenRow {
    const char* protocol;
    double bandwidth_mbps;
    std::size_t sets_tested;
    std::size_t degenerate_skipped;
    std::size_t false_negatives;
    std::size_t outside_clean;
    std::size_t johnson_violations;
    double max_intervisit_ratio;
  };
  const std::vector<GoldenRow> golden = {
      {"ieee8025", 10, 10, 0, 0, 0, 0, 0.0},
      {"modified8025", 10, 10, 0, 0, 0, 0, 0.0},
      {"fddi", 10, 10, 0, 0, 0, 0, 0x1.f06f73b801a09p+0},
      {"ieee8025", 100, 10, 0, 0, 0, 0, 0.0},
      {"modified8025", 100, 10, 0, 0, 0, 0, 0.0},
      {"fddi", 100, 10, 0, 0, 0, 0, 0x1.f496aed43313bp+0},
  };
  const auto counter = [](const obs::MetricsSnapshot& snap,
                          const std::string& name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };

  const auto before = obs::Registry::global().snapshot();
  const auto rows = run_sim_validation(SimValidationConfig{});
  const auto after = obs::Registry::global().snapshot();

  ASSERT_EQ(rows.size(), golden.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& got = rows[i];
    const auto& want = golden[i];
    SCOPED_TRACE(std::string(want.protocol) + " @ " +
                 std::to_string(want.bandwidth_mbps) + " Mbps");
    EXPECT_EQ(got.protocol, want.protocol);
    EXPECT_EQ(got.bandwidth_mbps, want.bandwidth_mbps);
    EXPECT_EQ(got.sets_tested, want.sets_tested);
    EXPECT_EQ(got.degenerate_skipped, want.degenerate_skipped);
    EXPECT_EQ(got.false_negatives, want.false_negatives);
    EXPECT_EQ(got.outside_clean, want.outside_clean);
    EXPECT_EQ(got.johnson_violations, want.johnson_violations);
    EXPECT_EQ(got.max_intervisit_ratio, want.max_intervisit_ratio);
  }
  EXPECT_EQ(counter(after, "sim.events") - counter(before, "sim.events"),
            3'811'909u);
  EXPECT_EQ(counter(after, "sim.runs") - counter(before, "sim.runs"), 120u);
}

TEST(SimValidationStudy, VerdictRunsAgreeWithFullRunsOnTheDefaultStudy) {
  // Every inside and outside run of the default study, rebuilt from its
  // public pieces for both protocols: misses_a_deadline() must read
  // run().deadline_misses > 0. Every outside run misses, and its
  // verdict-only run must stop early, on fewer events.
  const SimValidationConfig config;
  const auto events = [] {
    const auto snap = obs::Registry::global().snapshot();
    const auto it = snap.counters.find("sim.events");
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  std::size_t runs = 0;
  const auto check = [&](const msg::MessageSet& set,
                         const sim::SimConfig& cfg, bool outside) {
    std::uint64_t before = events();
    const bool full = sim::make_simulator(set, cfg)->run().deadline_misses > 0;
    const std::uint64_t full_events = events() - before;
    before = events();
    EXPECT_EQ(sim::make_simulator(set, cfg)->misses_a_deadline(), full);
    const std::uint64_t verdict_events = events() - before;
    if (outside) {
      EXPECT_TRUE(full);
      EXPECT_LT(verdict_events, full_events);
    } else {
      EXPECT_EQ(verdict_events, full_events);
    }
    ++runs;
  };

  msg::MessageSetGenerator gen(config.setup.generator_config());
  Rng rng(config.seed);
  std::vector<msg::MessageSet> bases;
  for (std::size_t i = 0; i < config.sets_per_point; ++i) {
    bases.push_back(gen.generate(rng));
  }
  for (const double bw_mbps : config.bandwidths_mbps) {
    const BitsPerSecond bw = mbps(bw_mbps);
    for (const auto variant : {analysis::PdpVariant::kStandard8025,
                               analysis::PdpVariant::kModified8025}) {
      const auto params = config.setup.pdp_params(variant);
      const auto sats = breakdown::find_saturation_chunked(
          bases, config.setup.pdp_batch_kernel_factory(variant, bw), bw,
          config.batch);
      for (std::size_t i = 0; i < bases.size(); ++i) {
        ASSERT_TRUE(sats[i].found);
        for (const double scale :
             {config.inside_scale_pdp, config.outside_scale}) {
          const auto set = bases[i].scaled(sats[i].critical_scale * scale);
          auto cfg =
              sim::make_sim_config(set, params, bw, config.horizon_periods);
          cfg.seed = config.seed + i;
          check(set, cfg, scale == config.outside_scale);
        }
      }
    }
    const auto params = config.setup.ttp_params();
    const auto sats = breakdown::find_saturation_chunked(
        bases, config.setup.ttp_batch_kernel_factory(bw), bw, config.batch);
    for (std::size_t i = 0; i < bases.size(); ++i) {
      ASSERT_TRUE(sats[i].found);
      for (const double scale :
           {config.inside_scale_ttp, config.outside_scale}) {
        const auto set = bases[i].scaled(sats[i].critical_scale * scale);
        auto cfg =
            sim::make_sim_config(set, params, bw, config.horizon_periods);
        cfg.seed = config.seed + i;
        check(set, cfg, scale == config.outside_scale);
      }
    }
  }
  EXPECT_EQ(runs, 120u);
}

TEST(SimValidationStudy, Preconditions) {
  SimValidationConfig config;
  config.outside_scale = 0.5;
  EXPECT_THROW(run_sim_validation(config), PreconditionError);
}

}  // namespace
}  // namespace tokenring::experiments
