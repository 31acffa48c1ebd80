#include "kernel_probe.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace perfbench {

namespace {

/// One batch group's span ids and tallies. Owned by the kernel closure, so
/// it is destroyed with the kernel, which the estimator does on the same
/// pool thread right after the group's search and tally finish.
struct GroupState {
  Trace* trace = nullptr;
  KernelCounts* counts = nullptr;
  KernelSpanNames names{};
  std::uint64_t parent = 0;
  std::uint64_t tag = 0;
  std::uint64_t group_id = 0;
  std::uint64_t search_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t built_ns = 0;
  std::uint64_t evaluate_calls = 0;
  std::uint64_t lanes = 0;
  std::uint64_t active = 0;

  GroupState() = default;
  GroupState(const GroupState&) = delete;
  GroupState& operator=(const GroupState&) = delete;

  ~GroupState() {
    const std::uint64_t end = now_ns();
    trace->add({search_id, group_id, "breakdown.search", built_ns, end, tag});
    trace->add({group_id, parent, "breakdown.group", start_ns, end, tag});
    counts->evaluate_calls += evaluate_calls;
    counts->lanes_evaluated += lanes;
    counts->active_lanes += active;
  }
};

}  // namespace

tokenring::breakdown::BatchScaleKernelFactory traced_factory(
    tokenring::breakdown::BatchScaleKernelFactory inner, Trace& trace,
    KernelSpanNames names, std::uint64_t parent, KernelCounts& counts) {
  return [inner = std::move(inner), trace = &trace, names, parent,
          counts = &counts](std::span<const tokenring::msg::MessageSet> bases) {
    auto state = std::make_shared<GroupState>();
    state->trace = trace;
    state->counts = counts;
    state->names = names;
    state->parent = parent;
    state->tag = counts->groups.fetch_add(1);
    state->group_id = trace->reserve_id();
    state->start_ns = now_ns();
    tokenring::breakdown::BatchScaleKernel kernel = inner(bases);
    state->built_ns = now_ns();
    trace->add({trace->reserve_id(), state->group_id, names.build,
                state->start_ns, state->built_ns, state->tag});
    state->search_id = trace->reserve_id();

    return tokenring::breakdown::BatchScaleKernel(
        [kernel = std::move(kernel), state = std::move(state)](
            std::span<const double> scales,
            std::span<const std::uint8_t> active,
            std::span<std::uint8_t> verdicts) {
          const std::uint64_t t0 = now_ns();
          kernel(scales, active, verdicts);
          const std::uint64_t t1 = now_ns();
          state->trace->add({state->trace->reserve_id(), state->search_id,
                             state->names.evaluate, t0, t1, state->tag});
          ++state->evaluate_calls;
          state->lanes += scales.size();
          state->active += static_cast<std::uint64_t>(
              std::count_if(active.begin(), active.end(),
                            [](std::uint8_t a) { return a != 0; }));
        });
  };
}

}  // namespace perfbench
