// Unified simulation entry point.
//
// One SimConfig struct configures either protocol simulator; the
// make_simulator factory (or the run_simulation one-shot) picks the model
// from `protocol` and fills in the TTP parameters the paper derives from
// the message set (TTRT by the selection rule, local-scheme synchronous
// bandwidths) when the config leaves them empty. This replaces the old
// per-protocol PdpSimConfig/TtpSimConfig structs and the direct
// PdpSimulation/TtpSimulation constructors.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/fault/plan.hpp"
#include "tokenring/msg/message_set.hpp"
#include "tokenring/sim/async.hpp"
#include "tokenring/sim/metrics.hpp"
#include "tokenring/sim/trace.hpp"

namespace tokenring::sim {

/// Which protocol model a SimConfig drives. The two 802.5 variants
/// (standard vs modified) are selected by `pdp.variant`.
enum class Protocol {
  kPdp,  ///< priority-driven protocol (IEEE 802.5), Section 4
  kTtp,  ///< timed-token protocol (FDDI), Section 5
};

/// Default max-event guard installed when the config leaves `max_events`
/// at 0 — far above any legitimate run, so only genuine event storms trip
/// it.
inline constexpr std::size_t kDefaultMaxSimEvents = 50'000'000;

/// Simulation settings for either protocol. Protocol-specific fields are
/// ignored by the other model.
struct SimConfig {
  Protocol protocol = Protocol::kTtp;
  /// PDP ring/frame parameters and 802.5 variant (protocol == kPdp).
  analysis::PdpParams pdp;
  /// TTP ring/frame parameters (protocol == kTtp).
  analysis::TtpParams ttp;
  BitsPerSecond bandwidth = mbps(100);
  /// Negotiated TTRT [s] (TTP). <= 0 lets make_simulator pick it with the
  /// paper's selection rule (analysis::select_ttrt).
  Seconds ttrt = 0.0;
  /// Per-stream synchronous bandwidths h_i (TTP), aligned with the message
  /// set's stream order (NOT station-indexed: a station hosting several
  /// streams owns the sum of their allocations). Empty lets make_simulator
  /// allocate with the local scheme; unguaranteeable streams carry 0.
  std::vector<Seconds> sync_bandwidth_per_stream;
  /// Simulation horizon [s]. A few multiples of the longest period is
  /// enough to observe steady state under worst-case phasing.
  Seconds horizon = 1.0;
  /// true: adversarial phasing (PDP: all messages at the t=0 critical
  /// instant with an async frame already in flight; TTP: each message
  /// arrives just after the token leaves its station). false: random
  /// phases.
  bool worst_case_phasing = true;
  /// Asynchronous cross-traffic model. kSaturating matches the analyses'
  /// worst-case assumption.
  AsyncModel async_model = AsyncModel::kSaturating;
  /// Per-station Poisson arrival rate [frames/s]; used with kPoisson only.
  double async_frames_per_second = 0.0;
  /// Sporadic arrivals: extra uniform delay between releases, as a
  /// fraction of the period (inter-arrival in [P, (1+jitter)*P]). 0 =
  /// strictly periodic (the paper's model); the analyses stay valid upper
  /// bounds.
  double arrival_jitter = 0.0;
  /// Seed for random phasing, Poisson arrivals and sporadic jitter.
  std::uint64_t seed = 1;
  /// Optional event sink (see trace.hpp); null = no tracing. The sink must
  /// outlive the run and is invoked synchronously on the simulation
  /// thread.
  TraceSink* trace = nullptr;
  /// Failure injection; see fault/plan.hpp and the protocol recovery
  /// models in fault/recovery.hpp.
  fault::FaultPlan faults;
  /// Abort with EventStormError past this many simulation events; 0 picks
  /// the generous default guard (kDefaultMaxSimEvents).
  std::size_t max_events = 0;
  /// true (default): track token-rotation statistics (station-0 rotation
  /// times, per-station inter-visit maxima) exactly, which makes the TTP
  /// token walk step every visit of every rotation. false: skip rotation
  /// stats, letting the walk fast-forward fully idle stretches of ring
  /// time in O(1) (TTP, async kNone, no trace sink only); completion
  /// metrics remain exact but are no longer guaranteed bit-identical to a
  /// run that steps every lap (the skip replaces a chain of floating-point
  /// adds with one multiply).
  bool collect_rotation_stats = true;
};

/// A runnable protocol simulation built by make_simulator. Each one runs
/// once: call run() or misses_a_deadline() one time; a second run throws
/// PreconditionError.
class Simulation {
 public:
  virtual ~Simulation() = default;
  /// Execute the run and return aggregate metrics.
  virtual SimMetrics run() = 0;
  /// Verdict-only run: true iff run() would record a deadline miss. The
  /// same run, ended at its first late completion or crash-abandoned
  /// message, so it never executes more events than run().
  virtual bool misses_a_deadline() = 0;
  /// Largest token inter-visit time observed at any station (TTP; valid
  /// after run(), 0 for PDP). Drives the Johnson-bound validation check.
  virtual Seconds max_intervisit() const { return 0.0; }

 protected:
  /// Called first by every run: refuses a second one, whose clock, queue
  /// and metrics would start where the first run left them.
  void start_run();

 private:
  bool ran_ = false;
};

/// Build the simulator `config.protocol` selects. For TTP, fills an unset
/// TTRT with the paper's selection rule and an empty h_i vector with the
/// local allocation scheme. Streams may share stations; station indices
/// must lie in [0, ring.num_stations).
std::unique_ptr<Simulation> make_simulator(msg::MessageSet set,
                                           const SimConfig& config);

/// Convenience: build, run, and return metrics.
SimMetrics run_simulation(const msg::MessageSet& set, const SimConfig& config);

}  // namespace tokenring::sim
