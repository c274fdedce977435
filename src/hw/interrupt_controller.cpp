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
      raise_time_(num_lines, sim::TimePoint::max()),
      lost_per_line_(num_lines, 0) {
  assert(num_lines > 0);
}

std::uint64_t InterruptController::lost_raises(IrqLine line) const {
  assert(line < num_lines());
  return lost_per_line_[line];
}

}  // namespace rthv::hw
