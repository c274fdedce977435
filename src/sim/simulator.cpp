#include "sim/simulator.hpp"

namespace rthv::sim {

std::uint64_t Simulator::run_until(TimePoint horizon) {
  const std::uint64_t before = executed_;
  while (!queue_.empty() && queue_.next_time() <= horizon) step();
  if (horizon != TimePoint::max() && now_ < horizon) now_ = horizon;
  return executed_ - before;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // pop() hands back a copy of the callback with its slot already free, so
  // the callback may schedule into that very slot.
  auto [time, callback] = queue_.pop();
  now_ = time;
  ++executed_;
  callback();
  return true;
}

}  // namespace rthv::sim
