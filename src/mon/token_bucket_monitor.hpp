// Token-bucket admission monitor -- an alternative shaper to the paper's
// delta^- scheme.
//
// The paper gates interposing with the minimum-distance monitor of
// [Neukirchner RTSS'12]; classic traffic shaping would use a token bucket:
// tokens accrue at `rate` (one token per `fill_interval`) up to `depth`,
// and an activation is admitted iff a token is available. A bucket of
// depth b admits short bursts of up to b back-to-back interpositions --
// which the delta^- monitor never does -- at the price of a weaker
// short-window interference bound:
//     I_bucket(dt) = (b + ceil(dt / fill_interval)) * C'_BH
// (analysis::token_bucket_interference) versus Eq. 14's ceil(dt/d_min) * C'_BH.
// The ablation bench compares the two under identical workloads.
#pragma once

#include <cstdint>

#include "mon/monitor.hpp"

namespace rthv::mon {

class TokenBucketMonitor final : public ActivationMonitor {
 public:
  /// @param fill_interval one token accrues per interval (the long-term
  ///                      admitted rate is 1 / fill_interval)
  /// @param depth         bucket capacity (maximum burst of admissions)
  /// Throws std::invalid_argument for a non-positive interval or depth 0.
  TokenBucketMonitor(sim::Duration fill_interval, std::uint32_t depth);

  bool record_and_check(sim::TimePoint now) override;

  [[nodiscard]] sim::Duration fill_interval() const { return fill_interval_; }
  [[nodiscard]] std::uint32_t depth() const { return depth_; }

  /// Tokens that would be available at `now` (diagnostic; does not mutate).
  [[nodiscard]] std::uint32_t tokens_at(sim::TimePoint now) const;

  void snapshot_state(sim::StateWriter& w) const override {
    snapshot_base(w);
    w.u64(tokens_);
    w.pod(last_refill_);
    w.boolean(started_);
  }
  void restore_state(sim::StateReader& r) override {
    restore_base(r);
    tokens_ = static_cast<std::uint32_t>(r.u64());
    last_refill_ = r.pod<sim::TimePoint>();
    started_ = r.boolean();
  }

 private:
  void refill(sim::TimePoint now);

  sim::Duration fill_interval_;  // lint: transient(configured rate; never mutated after construction)
  std::uint32_t depth_;  // lint: transient(configured bucket depth; never mutated after construction)
  std::uint32_t tokens_;
  sim::TimePoint last_refill_;
  bool started_ = false;
};

}  // namespace rthv::mon
