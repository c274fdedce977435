// Per-class IRQ latency recording.
//
// Every completed bottom-handler invocation is classified the way the paper
// classifies them (Section 6.1): *direct* (arrived during the subscriber's
// own slot), *interposed* (executed in a foreign slot via the monitored
// path) or *delayed* (waited for the subscriber's next slot). A fourth
// class, *direct-hw*, covers the UINTC-style direct-delivery variant where
// hardware vectors the IRQ past the hypervisor entirely.
//
// The recorder is the system's one per-IRQ latency store: a single
// in-order sample log with a one-byte class tag per sample. Per-class
// views, and the irq.latency.* / irq.completed* metrics, are derived from
// that log on demand.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "sim/state_io.hpp"
#include "stats/summary.hpp"

namespace rthv::stats {

enum class HandlingClass : std::uint8_t {
  kDirect,
  kInterposed,
  kDelayed,
  kDirectHw,  // UINTC-style hardware direct delivery (no hypervisor path)
  kCount_,
};

[[nodiscard]] std::string_view to_string(HandlingClass c);

class LatencyRecorder {
 public:
  void record(HandlingClass cls, sim::Duration latency);

  /// Appends another recorder's samples (in their recorded order).
  void merge(const LatencyRecorder& other);

  /// The class's samples, in recorded order, filtered out of the log.
  [[nodiscard]] Summary of(HandlingClass cls) const;
  [[nodiscard]] const Summary& all() const { return all_; }

  /// Class tag of each sample of all(), index for index.
  [[nodiscard]] const std::vector<HandlingClass>& classes() const { return classes_; }

  [[nodiscard]] std::uint64_t count(HandlingClass cls) const {
    return counts_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] std::uint64_t total() const { return all_.count(); }

  /// Fraction of events in the class (0 if nothing recorded).
  [[nodiscard]] double fraction(HandlingClass cls) const;

  /// Checkpoint of the sample log, its class tags and the per-class counts.
  void snapshot_state(sim::StateWriter& w) const {
    all_.snapshot_state(w);
    w.pod_vec(classes_);
    w.pod(counts_);
  }
  void restore_state(sim::StateReader& r) {
    all_.restore_state(r);
    r.pod_vec(classes_);
    counts_ = r.pod<decltype(counts_)>();
  }

  /// Prints the paper-style one-line summary:
  /// "direct 40% | interposed 40% | delayed 20% | avg 1200us | max ...".
  void write_summary(std::ostream& os) const;

 private:
  Summary all_;
  std::vector<HandlingClass> classes_;
  std::array<std::uint64_t, static_cast<std::size_t>(HandlingClass::kCount_)> counts_{};
};

}  // namespace rthv::stats
