#include "tokenring/planner/advisor.hpp"

#include <algorithm>
#include <vector>

#include "tokenring/common/checks.hpp"
#include "tokenring/fault/margins.hpp"

namespace tokenring::planner {

namespace {

/// Load (relative to each set's own boundary) at which the advisor probes
/// fault resilience. At the boundary itself the margin is 0 by definition;
/// 70% is the load the fault-tolerance experiments use.
constexpr double kResilienceLoad = 0.7;

/// Sweep follow-up giving a trial's token-loss resilience margin at
/// kResilienceLoad times its own critical scale, or -1 when the search
/// found no boundary.
template <typename MarginAt>
breakdown::TrialFollowUp resilience_margin(MarginAt margin_at) {
  return [margin_at](const msg::MessageSet& base,
                     const breakdown::SaturationResult& sat) {
    if (!sat.found) return -1.0;
    return static_cast<double>(
        margin_at(base.scaled(sat.critical_scale * kResilienceLoad)).margin);
  };
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

std::vector<Recommendation> recommend_protocol(
    const TrafficProfile& profile, const std::vector<BitsPerSecond>& bandwidths,
    std::size_t num_sets, std::uint64_t seed, const exec::Executor& executor,
    std::size_t batch) {
  TR_EXPECTS(!bandwidths.empty());
  TR_EXPECTS(num_sets >= 1);
  TR_EXPECTS(batch >= 1);

  const auto setup = profile.to_setup();
  std::vector<breakdown::SweepPoint> points;
  for (const BitsPerSecond bandwidth : bandwidths) {
    TR_EXPECTS(bandwidth > 0.0);
    const std::size_t first = points.size();
    experiments::add_protocol_points(points, setup, bandwidth, num_sets,
                                     seed);
    // The resilience margins reuse each trial's drawn set and boundary.
    points[first + 1].follow_up = resilience_margin(
        [params = setup.pdp_params(analysis::PdpVariant::kModified8025),
         bandwidth](const msg::MessageSet& set) {
          return fault::pdp_fault_margin(set, params, bandwidth);
        });
    points[first + 2].follow_up = resilience_margin(
        [params = setup.ttp_params(), bandwidth](const msg::MessageSet& set) {
          return fault::ttp_fault_margin(set, params, bandwidth);
        });
  }
  const auto est = experiments::estimate_points(points, executor, batch);

  std::vector<Recommendation> recs;
  recs.reserve(bandwidths.size());
  const double n = static_cast<double>(num_sets);
  for (std::size_t first = 0; first < est.size(); first += 3) {
    Recommendation rec;
    rec.ieee8025 = est[first].mean();
    rec.modified8025 = est[first + 1].mean();
    rec.fddi = est[first + 2].mean();
    rec.modified8025_resilience = est[first + 1].follow_up_sum / n;
    rec.fddi_resilience = est[first + 2].follow_up_sum / n;

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
    rec.margin = entries[1].value > 0.0
                     ? entries[0].value / entries[1].value
                     : (entries[0].value > 0.0 ? 1e9 : 1.0);
    recs.push_back(rec);
  }
  return recs;
}

}  // namespace tokenring::planner
