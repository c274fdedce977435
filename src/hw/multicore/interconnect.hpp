// Shared-interconnect interference model for the multi-core platform.
//
// Static-partitioning hypervisors isolate CPU time per core, but partitions
// still meet in the shared LLC / interconnect / DRAM controller (the
// channels catalogued by the Arm mixed-criticality survey, arXiv:2303.11186).
// SharedInterconnect models that coupling deterministically:
//
//   - Demand accounting. Cores register memory-access demand against LLC
//     *colors* (page-color sets). Demand is accumulated per (core, color)
//     into fixed accounting epochs of the simulated clock.
//   - Contention charging. A burst of `accesses` issued by core c over color
//     mask m at time t pays
//
//         stall = base_access_ns * accesses
//               + conflict_access_ns * accesses * P / (P + half_load)
//
//     where P is the demand registered by *other* cores on the colors of m
//     during the *previous* epoch. The saturating P / (P + half_load) term
//     ramps from 0 (idle interconnect) towards 1 (saturated), and
//     half_load_accesses is the other-core demand at which half the maximum
//     conflict penalty applies.
//   - Cache coloring. Partitions with disjoint color masks never observe
//     each other's demand: P sums only overlapping colors (SP-IMPact's
//     coloring lever, arXiv:2501.16245).
//   - Bandwidth regulation. A MemGuard-style per-core budget clamps how much
//     demand a core may register per replenishment window; demand above the
//     budget is throttled at the regulator and never becomes pressure on
//     the interconnect. Budget 0 means unregulated.
//
// Determinism and core-relabel invariance: charges read only the previous
// epoch's finalized demand, so two bursts in the same epoch never influence
// each other regardless of merge order, and all accounting is commutative
// addition. Relabeling cores therefore permutes per-core state without
// changing any charge (see ARCHITECTURE.md, "Multi-core platform").
#pragma once

#include <cstdint>
#include <vector>

#include "sim/state_io.hpp"
#include "sim/time.hpp"

namespace rthv::hw {

/// MemGuard-style bandwidth regulation of one core.
struct CoreBandwidthBudget {
  /// Accesses the core may register per replenishment window; 0 = unregulated.
  std::uint64_t budget_accesses = 0;
  sim::Duration replenish_period = sim::Duration::us(100);
};

struct InterconnectConfig {
  std::uint32_t num_cores = 1;
  /// Number of LLC colors (page-color sets); at most 32 so partition color
  /// masks fit a 32-bit word.
  std::uint32_t num_colors = 16;
  /// Demand-accounting epoch. Charges observe the previous epoch's demand.
  sim::Duration epoch = sim::Duration::us(100);
  /// Uncontended interconnect cost per access. Defaults to 0: the paper's
  /// C_BH figures already include uncontended memory time.
  std::uint32_t base_access_ns = 0;
  /// Maximum *extra* cost per access under a saturated interconnect.
  std::uint32_t conflict_access_ns = 4;
  /// Other-core previous-epoch demand at which half of conflict_access_ns
  /// applies. Must be positive.
  std::uint64_t half_load_accesses = 2000;
  /// Fixed latency of a cross-core IRQ distributor message.
  sim::Duration route_latency = sim::Duration::us(1);
  /// Interconnect burst of one routed IRQ message (charged uncolored).
  std::uint64_t route_accesses = 8;
  /// Per-core regulation budgets, at most num_cores entries; cores beyond
  /// the vector are unregulated.
  std::vector<CoreBandwidthBudget> budgets;
};

class SharedInterconnect {
 public:
  explicit SharedInterconnect(const InterconnectConfig& config);

  SharedInterconnect(const SharedInterconnect&) = delete;
  SharedInterconnect& operator=(const SharedInterconnect&) = delete;

  [[nodiscard]] const InterconnectConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint32_t num_cores() const { return cfg_.num_cores; }

  /// All-ones mask over the configured colors (the "uncolored" mask).
  [[nodiscard]] std::uint32_t full_mask() const { return full_mask_; }

  /// Deterministic stall of a burst issued by `core` over `mask` at `now`.
  /// Pure with respect to demand (reads only the previous epoch); rolls the
  /// epoch frontier forward as a function of `now` only.
  [[nodiscard]] sim::Duration contention_stall(std::uint32_t core,
                                               std::uint32_t mask,
                                               std::uint64_t accesses,
                                               sim::TimePoint now);

  /// Registers `accesses` of demand from `core` over `mask` at `now`,
  /// clamped by the core's regulation budget. The granted portion becomes
  /// pressure visible to overlapping-color bursts in the *next* epoch.
  void register_demand(std::uint32_t core, std::uint32_t mask,
                       std::uint64_t accesses, sim::TimePoint now);

  /// contention_stall() followed by register_demand() for the same burst.
  [[nodiscard]] sim::Duration charge_and_register(std::uint32_t core,
                                                  std::uint32_t mask,
                                                  std::uint64_t accesses,
                                                  sim::TimePoint now);

  /// Delivery delay of one cross-core IRQ distributor message injected by
  /// `from_core` at `now`: fixed route latency plus an uncolored
  /// route_accesses burst charged and registered on the sending core.
  [[nodiscard]] sim::Duration route_delay(std::uint32_t from_core,
                                          std::uint32_t to_core,
                                          sim::TimePoint now);

  /// Other-core demand on `mask` during the previous epoch (the P of the
  /// charge formula) -- exposed for tests and the interference oracle.
  [[nodiscard]] std::uint64_t pressure(std::uint32_t core, std::uint32_t mask) const;

  struct Counters {
    std::uint64_t stall_ns_total = 0;       // contention stall charged
    std::uint64_t bursts_charged = 0;       // contention_stall() calls
    std::uint64_t accesses_registered = 0;  // demand granted by the regulator
    std::uint64_t accesses_throttled = 0;   // demand clamped by the regulator
    std::uint64_t routes = 0;               // cross-core messages delivered
    std::uint64_t epochs_rolled = 0;        // epoch-frontier advances
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // -- checkpoint/restore ---------------------------------------------------
  // Mutable accounting only (epoch frontier, demand tables, regulator
  // windows, counters); the configuration is structural.
  void snapshot_state(sim::StateWriter& w) const;
  void restore_state(sim::StateReader& r);

 private:
  /// Advances the epoch frontier to the epoch containing `now`.
  void roll(sim::TimePoint now);
  /// Mask bits outside the configured colors are ignored; a mask with no
  /// configured color left means "uncolored" (all colors). Configurations
  /// reject a non-zero partition mask of that kind (load_config,
  /// MulticoreSystem), so a configured system reaches it only by mask 0.
  [[nodiscard]] std::uint32_t normalize(std::uint32_t mask) const {
    const std::uint32_t m = mask & full_mask_;
    return m == 0 ? full_mask_ : m;
  }
  [[nodiscard]] std::uint64_t grant(std::uint32_t core, std::uint64_t accesses,
                                    sim::TimePoint now);

  InterconnectConfig cfg_;  // lint: transient(structural configuration)
  std::uint32_t full_mask_ = 0;  // lint: transient(derived from cfg_)
  std::uint64_t cur_epoch_ = 0;
  std::vector<std::uint64_t> prev_;  // [core * num_colors + color] demand, epoch-1
  std::vector<std::uint64_t> cur_;   // [core * num_colors + color] demand, epoch
  // Whether prev_/cur_ may hold non-zero demand: roll() clears a table only
  // when its flag is set, and pressure() of a clean previous epoch is 0.
  bool prev_dirty_ = false;  // lint: transient(derived from prev_ on restore)
  bool cur_dirty_ = false;   // lint: transient(derived from cur_ on restore)
  std::vector<std::uint64_t> window_;  // regulator window index per core
  std::vector<std::uint64_t> used_;    // demand granted in the window per core
  Counters counters_;
};

}  // namespace rthv::hw
