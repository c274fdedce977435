#include "hw/interrupt_controller.hpp"

namespace rthv::hw {

namespace {
constexpr std::size_t words_for(std::uint32_t num_lines) {
  return (static_cast<std::size_t>(num_lines) + 63) / 64;
}
}  // namespace

InterruptController::InterruptController(std::uint32_t num_lines)
    : num_lines_(num_lines),
      pending_(words_for(num_lines), 0),
      direct_(words_for(num_lines), 0),
      raise_time_(num_lines, sim::TimePoint::max()),
      lost_per_line_(num_lines, 0) {
  assert(num_lines > 0);
}

std::uint64_t InterruptController::lost_raises(IrqLine line) const {
  assert(line < num_lines());
  return lost_per_line_[line];
}

void InterruptController::set_direct_delivery(IrqLine line, bool on) {
  assert(line < num_lines());
  assert((!on || sim_ != nullptr) && "direct delivery needs a clock to schedule");
  set_bit(direct_, line, on);
}

bool InterruptController::direct_delivery(IrqLine line) const {
  assert(line < num_lines());
  return bit(direct_, line);
}

void InterruptController::deliver_direct(IrqLine line) {
  assert(sim_ != nullptr);
  const sim::TimePoint raised = raise_time_[line];
  sim_->schedule_after(direct_cost_, [this, line, raised] {
    // The latch guards the non-counting raise semantics for the delivery
    // window; clear it as part of delivery (the "hardware" auto-acks).
    acknowledge(line);
    ++direct_deliveries_;
    if (direct_sink_ != nullptr) direct_sink_(direct_sink_ctx_, line, raised);
  });
}

}  // namespace rthv::hw
