#include "tokenring/experiments/setup.hpp"

#include <memory>
#include <utility>

#include "tokenring/analysis/kernels.hpp"

namespace tokenring::experiments {

msg::GeneratorConfig PaperSetup::generator_config() const {
  msg::GeneratorConfig g;
  g.num_streams = num_stations;
  g.mean_period = mean_period;
  g.period_ratio = period_ratio;
  g.period_dist = period_dist;
  g.payload_dist = payload_dist;
  g.deadline_fraction = deadline_fraction;
  return g;
}

analysis::PdpParams PaperSetup::pdp_params(analysis::PdpVariant variant) const {
  analysis::PdpParams p;
  p.ring = net::ieee8025_ring(num_stations, station_spacing_m);
  p.frame = net::frame_format_with_payload_bytes(frame_payload_bytes);
  p.variant = variant;
  return p;
}

analysis::TtpParams PaperSetup::ttp_params() const {
  analysis::TtpParams p;
  p.ring = net::fddi_ring(num_stations, station_spacing_m);
  p.frame = net::frame_format_with_payload_bytes(frame_payload_bytes);
  p.async_frame = net::frame_format_with_payload_bytes(frame_payload_bytes);
  return p;
}

breakdown::SchedulablePredicate PaperSetup::pdp_predicate(
    analysis::PdpVariant variant, BitsPerSecond bw) const {
  return [params = pdp_params(variant), bw](const msg::MessageSet& set) {
    return analysis::pdp_feasible(set, params, bw);
  };
}

breakdown::SchedulablePredicate PaperSetup::ttp_predicate(
    BitsPerSecond bw) const {
  return [params = ttp_params(), bw](const msg::MessageSet& set) {
    return analysis::ttp_feasible(set, params, bw);
  };
}

breakdown::ScaleKernelFactory PaperSetup::pdp_kernel_factory(
    analysis::PdpVariant variant, BitsPerSecond bw) const {
  return [params = pdp_params(variant), bw](const msg::MessageSet& base) {
    // The kernel carries mutable per-trial state (task buffer, failed-task
    // hint), so each trial gets its own heap instance shared into the
    // returned std::function; the factory itself stays const and
    // thread-safe.
    auto kernel = std::make_shared<analysis::PdpScaleKernel>(base, params, bw);
    return breakdown::ScaleKernel(
        [kernel](double scale) { return (*kernel)(scale); });
  };
}

namespace {

/// Wrap one batch kernel instance (which carries mutable scratch state)
/// into the std::function form, sharing it on the heap — the same pattern
/// the scalar PDP factory uses.
template <typename Kernel>
breakdown::BatchScaleKernel wrap_batch_kernel(std::shared_ptr<Kernel> kernel) {
  return [kernel = std::move(kernel)](std::span<const double> scales,
                                      std::span<const std::uint8_t> active,
                                      std::span<std::uint8_t> verdicts) {
    kernel->evaluate(scales, active, verdicts);
  };
}

}  // namespace

breakdown::BatchScaleKernelFactory PaperSetup::pdp_batch_kernel_factory(
    analysis::PdpVariant variant, BitsPerSecond bw) const {
  return [params = pdp_params(variant),
          bw](std::span<const msg::MessageSet> bases) {
    return wrap_batch_kernel(
        std::make_shared<analysis::PdpBatchKernel>(bases, params, bw));
  };
}

breakdown::BatchScaleKernelFactory PaperSetup::ttp_batch_kernel_factory(
    BitsPerSecond bw) const {
  return [params = ttp_params(), bw](std::span<const msg::MessageSet> bases) {
    return wrap_batch_kernel(
        std::make_shared<analysis::TtpBatchKernel>(bases, params, bw));
  };
}

breakdown::BatchScaleKernelFactory PaperSetup::ttp_batch_kernel_factory_at(
    BitsPerSecond bw, Seconds ttrt) const {
  return [params = ttp_params(), bw,
          ttrt](std::span<const msg::MessageSet> bases) {
    return wrap_batch_kernel(
        std::make_shared<analysis::TtpBatchKernel>(bases, params, bw, ttrt));
  };
}

breakdown::SweepPoint sweep_point(
    const PaperSetup& setup, breakdown::BatchScaleKernelFactory kernel_factory,
    BitsPerSecond bw, std::size_t num_sets, std::uint64_t seed) {
  return {msg::MessageSetGenerator(setup.generator_config()),
          std::move(kernel_factory), bw, seed, num_sets};
}

void add_protocol_points(std::vector<breakdown::SweepPoint>& points,
                         const PaperSetup& setup, BitsPerSecond bw,
                         std::size_t num_sets, std::uint64_t seed) {
  for (auto factory :
       {setup.pdp_batch_kernel_factory(analysis::PdpVariant::kStandard8025, bw),
        setup.pdp_batch_kernel_factory(analysis::PdpVariant::kModified8025, bw),
        setup.ttp_batch_kernel_factory(bw)}) {
    points.push_back(
        sweep_point(setup, std::move(factory), bw, num_sets, seed));
  }
}

std::vector<breakdown::BreakdownEstimate> estimate_points(
    std::span<const breakdown::SweepPoint> points,
    const exec::Executor& executor, std::size_t batch) {
  breakdown::MonteCarloOptions options;
  options.batch_size = batch;
  return breakdown::estimate_sweep(points, executor, options);
}

breakdown::BreakdownEstimate estimate_point(
    const PaperSetup& setup,
    const breakdown::BatchScaleKernelFactory& kernel_factory, BitsPerSecond bw,
    std::size_t num_sets, std::uint64_t seed, const exec::Executor& executor,
    std::size_t batch) {
  const breakdown::SweepPoint point =
      sweep_point(setup, kernel_factory, bw, num_sets, seed);
  return std::move(estimate_points({&point, 1}, executor, batch).front());
}

}  // namespace tokenring::experiments
