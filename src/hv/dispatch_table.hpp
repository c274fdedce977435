// Data-oriented dispatch tables for the IRQ hot path.
//
// Per-IRQ-source and per-line state is kept in struct-of-arrays form,
// indexed by dense ids, so the Fig. 4a/4b decision path (interpose vs
// direct, monitor admit, top-half latch) walks contiguous memory with no
// virtual calls and no per-IRQ allocation. Cold configuration (names,
// monitor ownership) stays on the hypervisor; only the fields the per-IRQ
// path touches live here.
//
// All arrays are sized during configuration (add()) -- nothing on the
// service path grows or allocates.
#pragma once

#include <cstdint>
#include <vector>

#include "hv/types.hpp"
#include "sim/time.hpp"

namespace rthv::mon {
class ActivationMonitor;
}

namespace rthv::hv {

/// Hot per-source state, parallel arrays indexed by IrqSourceId.
struct SourceTable {
  std::vector<PartitionId> subscriber;          // owning partition
  std::vector<sim::Duration> c_top;             // C_THi
  std::vector<sim::Duration> c_bottom;          // C_BHi (interpose budget)
  std::vector<mon::ActivationMonitor*> monitor; // borrowed; nullptr = none
  std::vector<std::uint64_t> next_seq;          // per-source sequence counter

  // Shared-interconnect coupling (all zero on single-core systems).
  std::vector<std::uint64_t> bh_accesses;  // burst of one bottom handler
  std::vector<sim::Duration> admit_d_min;  // d_min backing the delta^- check
  std::vector<sim::Duration> c_bh_eff;     // Eq. 13 C'_BH (inflation denominator)
  /// Accumulated normalized-clock shift from contention-inflated admissions:
  /// each admitted interposition with stall `charge` adds
  /// ceil(charge * d_min / C'_BH), and the monitor observes
  /// t' = raise - infl_acc so Eq. 14 stays an upper bound (see
  /// Hypervisor::normalized_observation).
  std::vector<sim::Duration> infl_acc;
  std::vector<std::int64_t> last_norm_ns;  // monotonicity clamp of t'

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(subscriber.size());
  }

  IrqSourceId add(PartitionId sub, sim::Duration top, sim::Duration bottom) {
    const auto id = static_cast<IrqSourceId>(subscriber.size());
    subscriber.push_back(sub);
    c_top.push_back(top);
    c_bottom.push_back(bottom);
    monitor.push_back(nullptr);
    next_seq.push_back(0);
    bh_accesses.push_back(0);
    admit_d_min.push_back(sim::Duration::zero());
    c_bh_eff.push_back(sim::Duration::zero());
    infl_acc.push_back(sim::Duration::zero());
    last_norm_ns.push_back(INT64_MIN);
    return id;
  }
};

/// Per-hardware-line state: dense line -> source mapping (the controller
/// has a small fixed number of lines). kNoSource marks unmapped lines.
struct LineTable {
  static constexpr IrqSourceId kNoSource = UINT32_MAX;

  std::vector<IrqSourceId> source;

  void resize(std::size_t num_lines) { source.assign(num_lines, kNoSource); }
  [[nodiscard]] IrqSourceId at(std::uint32_t line) const { return source[line]; }
};

}  // namespace rthv::hv
