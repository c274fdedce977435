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

#include <cstdint>
#include <optional>
#include <vector>

#include "mon/admit_kernel.hpp"
#include "sim/state_io.hpp"
#include "sim/time.hpp"

namespace rthv::mon {

/// Minimum-distance vector; entry i bounds the distance spanning i+1 gaps.
using DeltaVector = std::vector<sim::Duration>;

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

/// The l = 1 special case of the scheme: a single minimum distance d_min
/// between consecutive activations (the configuration used in the paper's
/// Section 6.1 experiments). State is intentionally minimal -- the paper
/// reports 28 bytes of data overhead for the whole monitoring scheme.
class DeltaMinMonitor final : public ActivationMonitor {
 public:
  explicit DeltaMinMonitor(sim::Duration d_min);

  bool record_and_check(sim::TimePoint now) override;

  [[nodiscard]] sim::Duration d_min() const { return d_min_; }

  void snapshot_state(sim::StateWriter& w) const override {
    snapshot_base(w);
    w.boolean(has_previous_);
    w.pod(previous_);
  }
  void restore_state(sim::StateReader& r) override {
    restore_base(r);
    has_previous_ = r.boolean();
    previous_ = r.pod<sim::TimePoint>();
  }

 private:
  sim::Duration d_min_;  // lint: transient(configured bound; never mutated after construction)
  bool has_previous_ = false;
  sim::TimePoint previous_;
};

/// General l >= 1 monitor against a full delta^- vector.
///
/// The tracebuffer is a mirrored ring of 2l raw nanosecond stamps: logical
/// entry i (0 = most recent) lives at win_ns_[head_ + i], each push
/// decrements head_ (mod l) and writes the new stamp at both head_ and
/// head_ + l. The l-entry window starting at head_ is therefore always
/// contiguous and ordered, which is what lets record_and_check run the
/// branchless admit kernel instead of Algorithm 1's shift loop -- no data
/// moves per activation, two stores instead of l.
class DeltaVectorMonitor final : public ActivationMonitor {
 public:
  explicit DeltaVectorMonitor(DeltaVector deltas);

  // Defined inline so the hot callers (and the admission micro-benchmarks)
  // can keep the window base, delta pointer, and head index in registers
  // across consecutive activations instead of reloading them per call.
  bool record_and_check(sim::TimePoint now) override {
    observe_arrival(now);
    const std::int64_t t = now.count_ns();
    const bool admit = conforms(t);
    push(t);
    count(admit);
    return admit;
  }

  [[nodiscard]] const DeltaVector& deltas() const { return deltas_; }
  [[nodiscard]] std::size_t depth() const { return deltas_.size(); }

  /// Would an activation at `now` conform, without recording it?
  [[nodiscard]] bool peek(sim::TimePoint now) const;

  void snapshot_state(sim::StateWriter& w) const override {
    snapshot_base(w);
    w.pod_span(win_ns_.data(), win_ns_.size());
    w.u64(head_);
    w.u64(count_);
  }
  void restore_state(sim::StateReader& r) override {
    restore_base(r);
    r.pod_span(win_ns_.data(), win_ns_.size());
    head_ = r.u64();
    count_ = r.u64();
  }

 private:
  /// Admission check against the current window (no recording). The warm-up
  /// phase (fewer than l recorded activations) walks the partial window
  /// scalar-wise; a full window runs the branch-free admit_full.
  [[nodiscard]] bool conforms(std::int64_t now_ns) const {
    const std::int64_t* win = win_ns_.data() + head_;
    if (count_ == deltas_.size()) {
      return admit_full(win, delta_ns_.data(), count_, now_ns);
    }
    return admit_full_scalar(win, delta_ns_.data(), count_, now_ns);
  }

  void push(std::int64_t now_ns) {
    const std::size_t l = deltas_.size();
    head_ = head_ == 0 ? l - 1 : head_ - 1;
    win_ns_[head_] = now_ns;
    win_ns_[head_ + l] = now_ns;
    if (count_ < l) ++count_;
  }

  DeltaVector deltas_;  // lint: transient(configured vector; never mutated after construction)
  std::vector<std::int64_t> delta_ns_;  // raw mirror of deltas_, same order  // lint: transient(derived mirror of the configured vector)
  std::vector<std::int64_t> win_ns_;    // mirrored 2l tracebuffer ring
  std::size_t head_ = 0;                // window start; logical [0] = newest
  std::size_t count_ = 0;               // recorded activations, saturates at l
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
