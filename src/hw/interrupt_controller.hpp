// Simulated interrupt controller (VIC-like).
//
// Fixed number of IRQ lines with level-style *pending* latches and a fixed
// line-number priority (lower line number = higher
// priority, as on the ARM PL190 used with the ARM926ej-s). Only the
// hypervisor talks to the controller directly -- partitions see "emulated"
// IRQs through per-partition event queues (paper Section 3).
//
// Delivery model: when a line becomes pending while CPU interrupts are
// enabled, the controller invokes the CPU's IRQ entry callback once. While
// the CPU runs with interrupts disabled (hypervisor IRQ context), raises
// only latch; the hypervisor polls `highest_pending()` before returning to
// partition context.
//
// Hot-path layout: per-line state lives in struct-of-arrays form (bitmask
// words for latches, a flat raise-timestamp array) and delivery goes
// through a raw function pointer. The one std::function, the lost-raise
// observer, is health reporting on a path that only lost raises take.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/state_io.hpp"
#include "sim/time.hpp"

namespace rthv::hw {

/// Index of a hardware interrupt line.
using IrqLine = std::uint32_t;

class InterruptController {
 public:
  /// IRQ entry: a plain function pointer plus context, invoked when a line
  /// is pending and the CPU has interrupts enabled. The handler runs with
  /// interrupts disabled; the controller will not re-invoke it until
  /// `set_cpu_irq_enabled(true)`.
  using RawIrqEntry = void (*)(void*);

  explicit InterruptController(std::uint32_t num_lines);

  [[nodiscard]] std::uint32_t num_lines() const { return num_lines_; }

  /// Attaches the simulator so raises can be timestamped inline. The
  /// platform wires this; controllers constructed standalone (unit tests)
  /// work without one, with raise_time() reporting "never".
  void set_clock(sim::Simulator* sim) { sim_ = sim; }

  void set_irq_entry_raw(RawIrqEntry entry, void* ctx) {
    irq_entry_raw_ = entry;
    irq_entry_ctx_ = ctx;
  }

  /// Observer invoked when a raise is lost to an already-set latch (the
  /// non-counting IRQ-flag hazard); used for health monitoring.
  using RaiseObserver = std::function<void(IrqLine)>;
  void set_lost_raise_observer(RaiseObserver observer) {
    lost_raise_observer_ = std::move(observer);
  }

  /// A device raises a line. The pending latch is *not* counting: raising an
  /// already-pending line is lost, exactly like real IRQ flags (the paper
  /// relies on this: "in most cases IRQ flags are not counting").
  /// Returns false if the raise was lost that way.
  /// Defined inline: raise/acknowledge/highest_pending sit on the per-IRQ
  /// hot path of every experiment.
  bool raise(IrqLine line) {
    assert(line < num_lines());
    ++raises_;
    if (bit(pending_, line)) {
      ++lost_raises_;
      ++lost_per_line_[line];
      if (lost_raise_observer_) lost_raise_observer_(line);
      return false;
    }
    set_bit(pending_, line, true);
    if (sim_ != nullptr) raise_time_[line] = sim_->now();
    maybe_deliver();
    return true;
  }

  /// Clears the pending latch of a line ("resetting the IRQ flag" -- done by
  /// the top handler).
  void acknowledge(IrqLine line) {
    assert(line < num_lines());
    set_bit(pending_, line, false);
  }

  [[nodiscard]] bool pending(IrqLine line) const {
    assert(line < num_lines());
    return bit(pending_, line);
  }

  /// Timestamp of the most recent raise on `line` (valid while the latch is
  /// pending; TimePoint::max() = never raised / no clock attached).
  [[nodiscard]] sim::TimePoint raise_time(IrqLine line) const {
    assert(line < num_lines());
    return raise_time_[line];
  }

  /// Highest-priority (lowest-numbered) pending line, if any. Priority
  /// resolution is a count-trailing-zeros per 64-line word -- O(1) for the
  /// common <= 64-line configurations, matching how a real VIC priority
  /// tree resolves.
  [[nodiscard]] std::optional<IrqLine> highest_pending() const {
    for (std::size_t w = 0; w < pending_.size(); ++w) {
      const std::uint64_t m = pending_[w];
      if (m != 0) {
        return static_cast<IrqLine>(w * 64 +
                                    static_cast<std::size_t>(std::countr_zero(m)));
      }
    }
    return std::nullopt;
  }

  /// CPU-side global interrupt enable. Re-enabling triggers delivery if
  /// anything is pending.
  void set_cpu_irq_enabled(bool on) {
    cpu_irq_enabled_ = on;
    if (on) maybe_deliver();
  }
  [[nodiscard]] bool cpu_irq_enabled() const { return cpu_irq_enabled_; }

  /// Total raises observed and raises lost to an already-set latch.
  [[nodiscard]] std::uint64_t raises() const { return raises_; }
  [[nodiscard]] std::uint64_t lost_raises() const { return lost_raises_; }
  [[nodiscard]] std::uint64_t lost_raises(IrqLine line) const;

  /// Checkpoint of the latches, timestamps and counters. Wiring (entry,
  /// observer, clock) is untouched; delivering_ is false whenever the
  /// simulator is between events, which is the only legal snapshot instant.
  void snapshot_state(sim::StateWriter& w) const {
    w.pod_vec(pending_);
    w.pod_vec(raise_time_);
    w.pod_vec(lost_per_line_);
    w.boolean(cpu_irq_enabled_);
    w.u64(raises_);
    w.u64(lost_raises_);
  }
  void restore_state(sim::StateReader& r) {
    r.pod_vec(pending_);
    r.pod_vec(raise_time_);
    r.pod_vec(lost_per_line_);
    cpu_irq_enabled_ = r.boolean();
    raises_ = r.u64();
    lost_raises_ = r.u64();
  }

 private:
  void maybe_deliver() {
    if (delivering_ || irq_entry_raw_ == nullptr) return;
    delivering_ = true;
    // The entry handler normally disables CPU interrupts and returns (the
    // hypervisor continues asynchronously); the loop also supports handlers
    // that re-enable interrupts synchronously and expect back-to-back
    // delivery of the remaining pending lines.
    while (cpu_irq_enabled_ && highest_pending().has_value()) {
      irq_entry_raw_(irq_entry_ctx_);
    }
    delivering_ = false;
  }

  [[nodiscard]] bool bit(const std::vector<std::uint64_t>& words, IrqLine line) const {
    return ((words[line >> 6U] >> (line & 63U)) & 1U) != 0;
  }
  void set_bit(std::vector<std::uint64_t>& words, IrqLine line, bool on) {
    const std::uint64_t mask = std::uint64_t{1} << (line & 63U);
    if (on) {
      words[line >> 6U] |= mask;
    } else {
      words[line >> 6U] &= ~mask;
    }
  }

  // Per-line state in struct-of-arrays form: pending latches as bitmask
  // words (priority resolution is a word-AND plus count-trailing-zeros
  // instead of a per-line scan), raise timestamps and loss counters as flat
  // arrays indexed by line.
  std::uint32_t num_lines_ = 0;  // lint: transient(structural line count fixed at construction)
  std::vector<std::uint64_t> pending_;
  std::vector<sim::TimePoint> raise_time_;
  std::vector<std::uint64_t> lost_per_line_;
  bool cpu_irq_enabled_ = true;
  bool delivering_ = false;  // re-entrancy guard  // lint: transient(only true inside maybe_deliver; snapshots run between events)
  sim::Simulator* sim_ = nullptr;  // lint: transient(simulator wiring fixed at attach)
  RawIrqEntry irq_entry_raw_ = nullptr;  // lint: transient(hypervisor wiring, re-established at system assembly)
  void* irq_entry_ctx_ = nullptr;  // lint: transient(hypervisor wiring, re-established at system assembly)
  RaiseObserver lost_raise_observer_;  // lint: transient(observability wiring, re-established at system assembly)
  std::uint64_t raises_ = 0;
  std::uint64_t lost_raises_ = 0;
};

}  // namespace rthv::hw
