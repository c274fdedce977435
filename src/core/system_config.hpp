// Declarative configuration of a complete hypervisor system.
//
// `paper_baseline()` reproduces the evaluation setup of Section 6: an
// ARM926ej-s @ 200 MHz, two application partitions with 6000 us TDMA slots
// plus a 2000 us housekeeping partition (T_TDMA = 14000 us), and one
// monitored IRQ source subscribed by partition 2 with C_TH = 5 us and
// C_BH = 40 us (direct latencies <= 50 us as in Fig. 6).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hv/hypervisor.hpp"
#include "hw/multicore/interconnect.hpp"
#include "hw/platform.hpp"
#include "mon/monitor.hpp"
#include "sim/time.hpp"

namespace rthv::core {

enum class MonitorKind : std::uint8_t {
  kNone,         // monitoring disabled (Fig. 6a)
  kDeltaMin,     // l = 1, single d_min (Fig. 6b/c)
  kDeltaVector,  // predefined delta^-[l]
  kLearning,     // self-learning with optional bound (Appendix A)
  kTokenBucket,  // token-bucket shaper (ablation alternative)
  kWindowCount,  // at most N admissions per sliding window
};

struct PartitionSpec {
  std::string name;
  sim::Duration slot_length;
  /// Give the partition a background guest task (busy load) so delayed
  /// bottom handlers actually compete with running code.
  bool background_load = true;

  /// Core hosting this partition. Single-core systems leave the default;
  /// MulticoreSystem splits partitions (and their schedule slots) per core.
  std::uint32_t core = 0;
  /// LLC color mask assigned to the partition (cache coloring). 0 and
  /// all-ones both mean "uncolored": the partition uses every color.
  std::uint32_t color_mask = 0xFFFF'FFFFu;
  /// Memory-access demand of the partition's guest code, registered on the
  /// interconnect per microsecond of executed guest/BH work. 0 = the
  /// partition generates no interconnect pressure.
  std::uint64_t mem_accesses_per_us = 0;
};

struct IrqSourceSpec {
  std::string name;
  std::uint32_t subscriber = 0;  // index into `partitions`
  sim::Duration c_top;
  sim::Duration c_bottom;

  MonitorKind monitor = MonitorKind::kNone;
  sim::Duration d_min;               // kDeltaMin; kTokenBucket: fill interval
  mon::DeltaVector delta_vector;     // kDeltaVector; kLearning: the bound
  std::size_t learning_depth = 5;    // kLearning: l
  std::uint64_t learning_events = 0; // kLearning: learning-phase length
  std::uint32_t bucket_depth = 1;    // kTokenBucket: burst capacity
  std::uint32_t window_events = 1;   // kWindowCount: N (window = d_min)

  /// UINTC-style direct delivery: the source's line bypasses the hypervisor
  /// (fixed hardware cost, no interposition, no slot wait); its monitor
  /// observes via a shadow channel but gates nothing. See
  /// hw::PlatformConfig::direct_delivery_cycles for the hardware cost.
  bool direct_delivery = false;

  /// Core whose interrupt distributor the device is wired to. When it
  /// differs from the subscriber partition's core, MulticoreSystem routes
  /// raises across the interconnect (route latency + an uncolored burst)
  /// before latching the line on the subscriber's core.
  std::uint32_t core = 0;
  /// Interconnect burst issued by one bottom-handler execution. Under
  /// contention the burst's stall inflates C'_BH, and the delta^- admission
  /// check accounts for that inflation (see hv::Hypervisor docs).
  std::uint64_t bh_accesses = 0;

  /// The delta^- vector the source's admission check enforces: {d_min} for
  /// kDeltaMin, delta_vector for kDeltaVector, empty for every other kind.
  [[nodiscard]] mon::DeltaVector enforced_deltas() const;
};

struct ScheduleSlot {
  std::uint32_t partition;  // index into `partitions`
  sim::Duration length;
};

struct SystemConfig {
  hw::PlatformConfig platform;
  hv::OverheadConfig overheads;
  std::vector<PartitionSpec> partitions;  // also the TDMA slot order
  /// Optional explicit TDMA schedule (e.g. a partition owning several
  /// slots per cycle -- "slot splitting"). Empty = one slot per partition
  /// in declaration order using PartitionSpec::slot_length.
  std::vector<ScheduleSlot> schedule;
  std::vector<IrqSourceSpec> sources;
  hv::TopHandlerMode mode = hv::TopHandlerMode::kOriginal;
  /// Background-task chunk size (guest preemption granularity).
  sim::Duration background_quantum = sim::Duration::ms(1);
  std::size_t irq_queue_capacity = 256;

  /// Shared-interconnect model (multi-core only). num_cores == 1 keeps the
  /// single-core HypervisorSystem semantics: no interconnect is built and
  /// no contention is charged anywhere. num_cores > 1 systems are
  /// assembled by core::MulticoreSystem, which validates that every core
  /// in [0, num_cores) hosts at least one partition.
  hw::InterconnectConfig interconnect;

  [[nodiscard]] std::uint32_t num_cores() const { return interconnect.num_cores; }

  [[nodiscard]] sim::Duration tdma_cycle() const;

  /// The evaluation setup of Section 6 with one unmonitored source.
  [[nodiscard]] static SystemConfig paper_baseline();
};

/// C_TH / C_BH used by paper_baseline(); exposed for benches and tests.
inline constexpr std::int64_t kBaselineTopUs = 5;
inline constexpr std::int64_t kBaselineBottomUs = 40;

}  // namespace rthv::core
