// delta^- based activation-pattern monitors.
//
// The paper gates interposed bottom-handler execution with the minimum-
// distance monitoring scheme of Neukirchner et al. (RTSS 2012): a monitor
// stores the timestamps of the last `l` activations in a tracebuffer and a
// vector delta[0..l-1] of minimum admissible distances, where delta[i] is
// the minimum distance between an activation and the activation i+1
// positions before it (delta[0] is the consecutive-event distance d_min).
//
// An activation at time t is *conforming* iff
//     for all i in [0, l-1]:  t - tracebuffer[i] >= delta[i].
// Conforming activations may be interposed into a foreign TDMA slot; the
// rest fall back to delayed handling. Every activation -- admitted or not --
// is recorded in the tracebuffer, exactly as Algorithm 1 of the paper does,
// so distances are always measured against the true arrival history.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/state_io.hpp"
#include "sim/time.hpp"

namespace rthv::mon {

/// Minimum-distance vector; entry i bounds the distance spanning i+1 gaps.
using DeltaVector = std::vector<sim::Duration>;

/// Throws std::invalid_argument, in every build mode, unless `deltas` is a
/// delta^- function: non-empty, non-negative and non-decreasing in the span
/// (a decreasing vector silently weakens the interference bound the
/// admitted pattern is supposed to guarantee).
void validate_delta_vector(const DeltaVector& deltas);

/// Interface the hypervisor's modified top handler calls ("Interposing IRQ
/// denied?" decision box in Fig. 4b).
class ActivationMonitor {
 public:
  virtual ~ActivationMonitor() = default;

  /// Records the activation at `now` and returns true iff interposed
  /// handling is permitted for it.
  virtual bool record_and_check(sim::TimePoint now) = 0;

  [[nodiscard]] std::uint64_t admitted() const { return admitted_; }
  [[nodiscard]] std::uint64_t denied() const { return denied_; }
  [[nodiscard]] std::uint64_t observed() const { return admitted_ + denied_; }

  /// delta^- distance between the two most recent observed activations
  /// (the consecutive-event distance the monitor just judged); empty until
  /// two activations have been observed. Observability only -- no monitor
  /// decision depends on it.
  [[nodiscard]] std::optional<sim::Duration> last_observed_distance() const {
    if (!has_distance_) return std::nullopt;
    return last_distance_;
  }

  /// Checkpoint of the monitor's full mutable state (tracebuffer, counters,
  /// warm-up progress). Derived classes append their state after the base
  /// counters; writer and reader sequences must mirror each other exactly.
  /// Snapshot/restore pairs must run on the same monitor configuration --
  /// deltas, depths and windows are structural.
  virtual void snapshot_state(sim::StateWriter& w) const { snapshot_base(w); }
  virtual void restore_state(sim::StateReader& r) { restore_base(r); }

 protected:
  void snapshot_base(sim::StateWriter& w) const {
    w.u64(admitted_);
    w.u64(denied_);
    w.pod(last_arrival_);
    w.pod(last_distance_);
    w.boolean(has_distance_);
    w.boolean(has_last_arrival_);
  }
  void restore_base(sim::StateReader& r) {
    admitted_ = r.u64();
    denied_ = r.u64();
    last_arrival_ = r.pod<sim::TimePoint>();
    last_distance_ = r.pod<sim::Duration>();
    has_distance_ = r.boolean();
    has_last_arrival_ = r.boolean();
  }
  /// Implementations call this from record_and_check for every activation,
  /// admitted or not, *before* counting the verdict. Branch-free on purpose:
  /// this runs once per IRQ, so the distance is computed unconditionally
  /// (garbage until the second activation, gated by has_distance_) instead
  /// of behind a first-activation branch.
  void observe_arrival(sim::TimePoint now) {
    last_distance_ = now - last_arrival_;
    has_distance_ = has_last_arrival_;
    last_arrival_ = now;
    has_last_arrival_ = true;
  }

  /// Branch-free verdict counting (both counters touched every activation).
  void count(bool admit) {
    admitted_ += admit;
    denied_ += !admit;
  }

 private:
  std::uint64_t admitted_ = 0;
  std::uint64_t denied_ = 0;
  sim::TimePoint last_arrival_;
  sim::Duration last_distance_;
  bool has_distance_ = false;
  bool has_last_arrival_ = false;
};

/// Algorithm 1's tracebuffer: the stamps of the last l activations, newest
/// first ([0] = most recent), kept as a plain shift buffer exactly as the
/// paper writes it. It only stores history; the delta^- vector it is judged
/// against is passed in, so the monitors, the adversary injector and the
/// worst-case trace generator all judge and generate patterns through this
/// one window. Every caller passes a vector with at least l entries.
class Tracebuffer {
 public:
  /// An empty window of depth 0; assign a sized one before record().
  Tracebuffer() = default;
  /// Throws std::invalid_argument for depth 0.
  explicit Tracebuffer(std::size_t depth);
  /// A window as deep as `deltas`; throws std::invalid_argument unless
  /// `deltas` is a delta^- function (see validate_delta_vector).
  explicit Tracebuffer(const DeltaVector& deltas);

  /// Shifts `t` in as the newest stamp; the oldest falls out once full.
  void record(sim::TimePoint t) {
    if (filled_ < stamps_.size()) ++filled_;
    for (std::size_t i = filled_ - 1; i > 0; --i) stamps_[i] = stamps_[i - 1];
    stamps_[0] = t;
  }

  /// Algorithm 1's check: an activation at `t` conforms iff
  /// t - stamps[i] >= deltas[i] for every filled entry i.
  [[nodiscard]] bool conforms(sim::TimePoint t, const DeltaVector& deltas) const {
    for (std::size_t i = 0; i < filled_; ++i) {
      if (t - stamps_[i] < deltas[i]) return false;
    }
    return true;
  }

  /// The earliest instant >= `t` at which an activation conforms.
  [[nodiscard]] sim::TimePoint earliest_conforming(sim::TimePoint t,
                                                   const DeltaVector& deltas) const {
    for (std::size_t i = 0; i < filled_; ++i) t = std::max(t, stamps_[i] + deltas[i]);
    return t;
  }

  /// The i-th most recent stamp; i < filled().
  [[nodiscard]] sim::TimePoint operator[](std::size_t i) const { return stamps_[i]; }
  /// Recorded activations, saturating at the depth l.
  [[nodiscard]] std::size_t filled() const { return filled_; }

  void snapshot_state(sim::StateWriter& w) const;
  void restore_state(sim::StateReader& r);

 private:
  std::vector<sim::TimePoint> stamps_;
  std::size_t filled_ = 0;
};

/// Monitor against a full delta^- vector: Algorithm 1's tracebuffer judged
/// against a fixed delta^-[l]. The l = 1 case, DeltaVectorMonitor({d_min}),
/// is the single-d_min monitor of the paper's Section 6.1 experiments.
class DeltaVectorMonitor final : public ActivationMonitor {
 public:
  /// Throws std::invalid_argument for a vector that is not a delta^-
  /// function (see Tracebuffer).
  explicit DeltaVectorMonitor(DeltaVector deltas);

  bool record_and_check(sim::TimePoint now) override {
    observe_arrival(now);
    const bool admit = window_.conforms(now, deltas_);
    window_.record(now);
    count(admit);
    return admit;
  }


  void snapshot_state(sim::StateWriter& w) const override {
    snapshot_base(w);
    window_.snapshot_state(w);
  }
  void restore_state(sim::StateReader& r) override {
    restore_base(r);
    window_.restore_state(r);
  }

 private:
  DeltaVector deltas_;  // lint: transient(configured vector; never mutated after construction)
  Tracebuffer window_;
};

/// A monitor that admits everything (models "monitoring disabled" while
/// keeping the counting interface).
class AlwaysAdmitMonitor final : public ActivationMonitor {
 public:
  bool record_and_check(sim::TimePoint now) override {
    observe_arrival(now);
    count(true);
    return true;
  }
};

/// Scales a delta vector so that the admissible long-term load becomes
/// `fraction` of the load the vector currently permits (load ~ 1/distance,
/// so distances are divided by the fraction). Used for the Appendix A
/// bounds that allow 25 % / 12.5 % / 6.25 % of the recorded load.
[[nodiscard]] DeltaVector scale_for_load_fraction(const DeltaVector& deltas, double fraction);

}  // namespace rthv::mon
