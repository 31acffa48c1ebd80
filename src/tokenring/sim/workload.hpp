// Helpers turning analysis artifacts into ready-to-run simulation configs.
//
// Building a SimConfig by hand means selecting a TTRT, allocating
// synchronous bandwidths station by station, and sizing the horizon — the
// same boilerplate in every test, study and example. These helpers do it in
// one call, with the paper's parameter rules.

#pragma once

#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/msg/message_set.hpp"
#include "tokenring/sim/config.hpp"

namespace tokenring::sim {

/// Build a TTP simulation config for `set`: TTRT from the paper's rule,
/// local-scheme synchronous bandwidths (0 for unguaranteeable streams),
/// horizon = `horizon_periods` * max period. Phasing/async/trace fields
/// are left at their adversarial defaults and can be adjusted afterwards.
SimConfig make_sim_config(const msg::MessageSet& set,
                          const analysis::TtpParams& params, BitsPerSecond bw,
                          double horizon_periods = 4.0);

/// Build a PDP simulation config for `set` with the same conventions.
SimConfig make_sim_config(const msg::MessageSet& set,
                          const analysis::PdpParams& params, BitsPerSecond bw,
                          double horizon_periods = 4.0);

}  // namespace tokenring::sim
