#include "tokenring/planner/advisor.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "tokenring/breakdown/saturation.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/exec/seed_stream.hpp"
#include "tokenring/fault/margins.hpp"

namespace tokenring::planner {

namespace {

/// Load (relative to each set's own boundary) at which the advisor probes
/// fault resilience. At the boundary itself the margin is 0 by definition;
/// 70% is the load the fault-tolerance experiments use.
constexpr double kResilienceLoad = 0.7;

struct ResilienceSample {
  double pdp = 0.0;
  double fddi = 0.0;
};

/// Mean token-loss resilience margins over `num_sets` sets drawn from
/// per-trial seed streams (deterministic for any executor jobs count). The
/// boundary searches run in lockstep SoA batches of `batch` lanes; groups
/// map to the executor and their per-trial samples fold in trial order, so
/// the means are bit-identical for every (jobs, batch) combination.
ResilienceSample estimate_resilience(const experiments::PaperSetup& setup,
                                     BitsPerSecond bw, std::size_t num_sets,
                                     std::uint64_t seed,
                                     const exec::Executor& executor,
                                     std::size_t batch) {
  TR_EXPECTS(batch >= 1);
  const auto pdp_params =
      setup.pdp_params(analysis::PdpVariant::kModified8025);
  const auto ttp_params = setup.ttp_params();
  const auto pdp_factory =
      setup.pdp_batch_kernel_factory(analysis::PdpVariant::kModified8025, bw);
  const auto ttp_factory = setup.ttp_batch_kernel_factory(bw);
  const std::size_t groups = (num_sets + batch - 1) / batch;
  const auto sample_group = [&](std::size_t g) {
    const std::size_t lo = g * batch;
    const std::size_t count = std::min(batch, num_sets - lo);
    msg::MessageSetGenerator generator(setup.generator_config());
    std::vector<msg::MessageSet> bases;
    bases.reserve(count);
    for (std::size_t j = 0; j < count; ++j) {
      Rng rng = exec::make_trial_rng(seed, lo + j);
      bases.push_back(generator.generate(rng));
    }
    const auto pdp_sats =
        breakdown::find_saturation_batch(bases, pdp_factory(bases), bw);
    const auto ttp_sats =
        breakdown::find_saturation_batch(bases, ttp_factory(bases), bw);
    std::vector<ResilienceSample> samples(count);
    for (std::size_t j = 0; j < count; ++j) {
      ResilienceSample s{-1.0, -1.0};
      if (pdp_sats[j].found) {
        const auto set =
            bases[j].scaled(pdp_sats[j].critical_scale * kResilienceLoad);
        s.pdp = fault::pdp_fault_margin(set, pdp_params, bw).margin;
      }
      if (ttp_sats[j].found) {
        const auto set =
            bases[j].scaled(ttp_sats[j].critical_scale * kResilienceLoad);
        s.fddi = fault::ttp_fault_margin(set, ttp_params, bw).margin;
      }
      samples[j] = s;
    }
    return samples;
  };
  const auto total = exec::map_reduce(
      executor, groups, ResilienceSample{}, sample_group,
      [](ResilienceSample acc, std::vector<ResilienceSample> samples) {
        // Per-trial fold in trial order: the same += sequence as a scalar
        // per-set sweep, whatever the group size.
        for (const ResilienceSample& s : samples) {
          acc.pdp += s.pdp;
          acc.fddi += s.fddi;
        }
        return acc;
      });
  const double n = static_cast<double>(num_sets);
  return {total.pdp / n, total.fddi / n};
}

}  // namespace

experiments::PaperSetup TrafficProfile::to_setup() const {
  experiments::PaperSetup setup;
  setup.num_stations = num_stations;
  setup.station_spacing_m = station_spacing_m;
  setup.mean_period = mean_period;
  setup.period_ratio = period_ratio;
  return setup;
}

double Recommendation::estimate(Protocol protocol) const {
  switch (protocol) {
    case Protocol::kIeee8025:
      return ieee8025;
    case Protocol::kModified8025:
      return modified8025;
    case Protocol::kFddi:
      return fddi;
  }
  return 0.0;
}

Recommendation recommend_protocol(const TrafficProfile& profile,
                                  BitsPerSecond bandwidth,
                                  std::size_t num_sets, std::uint64_t seed,
                                  const exec::Executor& executor,
                                  std::size_t batch) {
  TR_EXPECTS(bandwidth > 0.0);
  TR_EXPECTS(num_sets >= 1);
  TR_EXPECTS(batch >= 1);

  const auto setup = profile.to_setup();
  Recommendation rec;
  rec.ieee8025 =
      experiments::estimate_point(
          setup,
          setup.pdp_batch_kernel_factory(analysis::PdpVariant::kStandard8025,
                                         bandwidth),
          bandwidth, num_sets, seed, executor, batch)
          .mean();
  rec.modified8025 =
      experiments::estimate_point(
          setup,
          setup.pdp_batch_kernel_factory(analysis::PdpVariant::kModified8025,
                                         bandwidth),
          bandwidth, num_sets, seed, executor, batch)
          .mean();
  rec.fddi = experiments::estimate_point(
                 setup, setup.ttp_batch_kernel_factory(bandwidth), bandwidth,
                 num_sets, seed, executor, batch)
                 .mean();

  const auto resilience =
      estimate_resilience(setup, bandwidth, num_sets, seed, executor, batch);
  rec.modified8025_resilience = resilience.pdp;
  rec.fddi_resilience = resilience.fddi;

  struct Entry {
    Protocol protocol;
    double value;
  };
  Entry entries[] = {{Protocol::kIeee8025, rec.ieee8025},
                     {Protocol::kModified8025, rec.modified8025},
                     {Protocol::kFddi, rec.fddi}};
  std::sort(std::begin(entries), std::end(entries),
            [](const Entry& a, const Entry& b) { return a.value > b.value; });
  rec.best = entries[0].protocol;
  rec.margin = entries[1].value > 0.0 ? entries[0].value / entries[1].value
                                      : (entries[0].value > 0.0 ? 1e9 : 1.0);
  return rec;
}

}  // namespace tokenring::planner
