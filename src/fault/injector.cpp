#include "fault/injector.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/trace_event.hpp"
#include "obs/trace_ring.hpp"

namespace rthv::fault {

using sim::Duration;
using sim::TimePoint;

FaultInjector::FaultInjector(const InjectionSpec& spec, std::uint64_t seed)
    : spec_(spec), rng_(seed) {}

void FaultInjector::arm(InjectionContext& ctx) {
  if (spec_.kind != FaultKind::kDrift) {
    if (spec_.source >= ctx.config.sources.size()) {
      throw std::invalid_argument("fault plan: source index " +
                                  std::to_string(spec_.source) +
                                  " out of range (configured sources: " +
                                  std::to_string(ctx.config.sources.size()) + ")");
    }
    trace_partition_ = ctx.config.sources[spec_.source].subscriber;
    trace_source_ = spec_.source;
  }
  do_arm(ctx);
}

void FaultInjector::record_injection(InjectionContext& ctx, std::uint64_t arg1) {
  ++injected_;
  auto& ring = ctx.hv.trace_ring();
  RTHV_TRACE(ring, ctx.sim.now().count_ns(), obs::TracePoint::kFaultInject,
             obs::TraceCategory::kFault, trace_partition_, trace_source_,
             static_cast<std::uint64_t>(spec_.kind), arg1);
}

bool FaultInjector::raise_source_line(InjectionContext& ctx) {
  return ctx.platform.intc().raise(source_line());
}

// --- storm -------------------------------------------------------------------

void StormInjector::do_arm(InjectionContext& ctx) {
  const TimePoint first = std::max(spec_.start, ctx.sim.now());
  for (std::uint64_t b = 0; b < spec_.count; ++b) {
    const TimePoint burst = first + spec_.period * static_cast<std::int64_t>(b);
    for (std::uint64_t r = 0; r < spec_.burst_len; ++r) {
      const TimePoint t = burst + spec_.distance * static_cast<std::int64_t>(r);
      ctx.sim.schedule_at(t, [this, &ctx] {
        const bool delivered = raise_source_line(ctx);
        record_injection(ctx, delivered ? 1 : 0);
      });
    }
  }
}

// --- spurious ----------------------------------------------------------------

void SpuriousInjector::do_arm(InjectionContext& ctx) {
  ctx.sim.schedule_at(std::max(spec_.start, ctx.sim.now()),
                      [this, &ctx] { schedule_next(ctx, spec_.count); });
}

void SpuriousInjector::schedule_next(InjectionContext& ctx, std::uint64_t remaining) {
  if (remaining == 0) return;
  const auto gap = Duration::ns(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             rng_.exponential(static_cast<double>(spec_.mean.count_ns())))));
  ctx.sim.schedule_at(ctx.sim.now() + gap, [this, &ctx, remaining] {
    const bool delivered = raise_source_line(ctx);
    record_injection(ctx, delivered ? 1 : 0);
    schedule_next(ctx, remaining - 1);
  });
}

// --- drop --------------------------------------------------------------------

void DropInjector::do_arm(InjectionContext& ctx) {
  const TimePoint first = std::max(spec_.start, ctx.sim.now());
  for (std::uint64_t k = 0; k < spec_.count; ++k) {
    const TimePoint t = first + spec_.period * static_cast<std::int64_t>(k);
    ctx.sim.schedule_at(t, [this, &ctx] {
      // Clearing the latch of a raised-but-unserviced line makes the
      // interrupt vanish -- neither serviced nor counted as a lost raise,
      // exactly like a glitched flag reset.
      const bool was_pending = ctx.platform.intc().pending(source_line());
      if (was_pending) ctx.platform.intc().acknowledge(source_line());
      record_injection(ctx, was_pending ? 1 : 0);
    });
  }
}

// --- clock drift -------------------------------------------------------------

void ClockDriftInjector::do_arm(InjectionContext& ctx) {
  // The TDMA tick timer (IRQ line 0) is created inside Hypervisor::start(),
  // which runs synchronously before the simulator executes its first event,
  // so a scheduled installation always finds it.
  armed_ctx_ = &ctx;
  ctx.sim.schedule_at(std::max(spec_.start, ctx.sim.now()), [this, &ctx] {
    epoch_ns_ = ctx.sim.now().count_ns();
    install(ctx);
  });
}

hw::HwTimer* ClockDriftInjector::tick_timer(InjectionContext& ctx) const {
  for (std::size_t i = 0; i < ctx.platform.num_timers(); ++i) {
    auto& timer = ctx.platform.timer(i);
    if (timer.line() == 0) return &timer;
  }
  return nullptr;
}

void ClockDriftInjector::install(InjectionContext& ctx) {
  hw::HwTimer* timer = tick_timer(ctx);
  if (timer == nullptr) {
    throw std::logic_error("clock-drift injector: no TDMA tick timer found");
  }
  timer->set_deadline_transform(
      [this, &ctx](TimePoint deadline) { return transform(ctx, deadline); });
  installed_ = true;
}

void ClockDriftInjector::disarm(InjectionContext& ctx) {
  if (!installed_) return;
  if (hw::HwTimer* timer = tick_timer(ctx)) timer->set_deadline_transform({});
  installed_ = false;
}

void ClockDriftInjector::restore_state(sim::StateReader& r) {
  FaultInjector::restore_state(r);
  epoch_ns_ = r.i64();
  const bool was_installed = r.boolean();
  // Converge the live hook on the restored truth: a mutant engine's drift
  // injector may have replaced it, or disarm may have removed it, since the
  // snapshot was taken.
  if (was_installed && armed_ctx_ != nullptr) {
    install(*armed_ctx_);
  } else if (!was_installed && installed_ && armed_ctx_ != nullptr) {
    disarm(*armed_ctx_);
  }
  installed_ = was_installed;
}

TimePoint ClockDriftInjector::transform(InjectionContext& ctx, TimePoint deadline) {
  const std::int64_t elapsed = deadline.count_ns() - epoch_ns_;
  std::int64_t offset = elapsed / 1'000'000 * spec_.drift_ppm / 1'000 * 1'000;
  if (spec_.jitter.is_positive()) {
    const auto span = static_cast<std::uint64_t>(2 * spec_.jitter.count_ns());
    offset += static_cast<std::int64_t>(rng_.uniform_int(0, span)) -
              spec_.jitter.count_ns();
  }
  record_injection(ctx, static_cast<std::uint64_t>(offset < 0 ? -offset : offset));
  return deadline + Duration::ns(offset);
}

// --- slot overrun ------------------------------------------------------------

void SlotOverrunInjector::do_arm(InjectionContext& ctx) {
  // The fixed boundary grid of the schedule the hypervisor runs.
  const auto slots = ctx.config.tdma_slots();
  Duration cycle = Duration::zero();
  for (const auto& s : slots) cycle += s.length;
  if (!cycle.is_positive()) {
    throw std::invalid_argument("slot-overrun injector: schedule has no positive slots");
  }

  TimePoint boundary = TimePoint::origin();
  std::size_t index = 0;
  std::uint64_t scheduled = 0;
  while (scheduled < spec_.count) {
    boundary += slots[index].length;
    index = (index + 1) % slots.size();
    const TimePoint t = boundary - spec_.lead;
    if (t < spec_.start || t < ctx.sim.now()) continue;
    ctx.sim.schedule_at(t, [this, &ctx] {
      const bool delivered = raise_source_line(ctx);
      record_injection(ctx, delivered ? 1 : 0);
    });
    ++scheduled;
  }
}

// --- queue flood -------------------------------------------------------------

void FloodInjector::do_arm(InjectionContext& ctx) {
  const TimePoint first = std::max(spec_.start, ctx.sim.now());
  for (std::uint64_t k = 0; k < spec_.count; ++k) {
    const TimePoint t = first + spec_.distance * static_cast<std::int64_t>(k);
    ctx.sim.schedule_at(t, [this, &ctx] {
      const bool delivered = raise_source_line(ctx);
      record_injection(ctx, delivered ? 1 : 0);
    });
  }
}

// --- adversary ---------------------------------------------------------------

void AdversaryInjector::do_arm(InjectionContext& ctx) {
  deltas_ = ctx.config.sources[spec_.source].enforced_deltas();
  if (deltas_.empty()) {
    if (!spec_.distance.is_positive()) {
      throw std::invalid_argument(
          "adversary injector: source has no delta monitor; set distance_us to "
          "give the pattern a d_min");
    }
    deltas_.push_back(spec_.distance);
  }
  if (spec_.probe_every != 0 &&
      (!spec_.probe_under.is_positive() || spec_.probe_under >= deltas_[0])) {
    throw std::invalid_argument(
        "adversary injector: probe_under must be in (0, d_min)");
  }
  shadow_ = mon::Tracebuffer(deltas_);
  ctx.sim.schedule_at(std::max(spec_.start, ctx.sim.now()),
                      [this, &ctx] { schedule_next(ctx, spec_.count); });
}

void AdversaryInjector::schedule_next(InjectionContext& ctx, std::uint64_t remaining) {
  if (remaining == 0) return;
  const TimePoint now = ctx.sim.now();
  const bool probe = spec_.probe_every != 0 && shadow_.filled() > 0 &&
                     (raises_done_ + 1) % spec_.probe_every == 0;
  const TimePoint t =
      probe ? std::max(now, shadow_[0] + deltas_[0] - spec_.probe_under)
            : shadow_.earliest_conforming(now, deltas_);
  ctx.sim.schedule_at(t, [this, &ctx, remaining, probe] {
    ++raises_done_;
    // Every raise -- conforming or probing -- enters the shadow, because the
    // monitor records denied activations too. The shadow stays exact as long
    // as this injector is the source's only raiser (a lost raise would
    // desynchronize it, but conforming spacing >= d_min makes losses
    // impossible in practice).
    shadow_.record(ctx.sim.now());
    const bool delivered = raise_source_line(ctx);
    record_injection(ctx, probe ? 2 : (delivered ? 1 : 0));
    schedule_next(ctx, remaining - 1);
  });
}

// --- factory -----------------------------------------------------------------

std::unique_ptr<FaultInjector> make_injector(const InjectionSpec& spec,
                                             std::uint64_t seed) {
  switch (spec.kind) {
    case FaultKind::kStorm: return std::make_unique<StormInjector>(spec, seed);
    case FaultKind::kSpurious: return std::make_unique<SpuriousInjector>(spec, seed);
    case FaultKind::kDrop: return std::make_unique<DropInjector>(spec, seed);
    case FaultKind::kDrift: return std::make_unique<ClockDriftInjector>(spec, seed);
    case FaultKind::kOverrun: return std::make_unique<SlotOverrunInjector>(spec, seed);
    case FaultKind::kFlood: return std::make_unique<FloodInjector>(spec, seed);
    case FaultKind::kAdversary: return std::make_unique<AdversaryInjector>(spec, seed);
    case FaultKind::kCount_: break;
  }
  throw std::logic_error("unknown FaultKind");
}

}  // namespace rthv::fault
