#include "exp/system_pool.hpp"

#include <utility>

namespace rthv::exp {

SystemPool::SystemPool(core::SystemConfig config) : config_(std::move(config)) {}

SystemPool::Lease SystemPool::acquire() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!free_.empty()) {
    const std::size_t index = free_.back();
    free_.pop_back();
    return Lease(this, index, slots_[index].get());
  }
  auto slot = std::make_unique<Slot>();
  slot->system = std::make_unique<core::HypervisorSystem>(config_);
  slot->pristine =
      std::make_unique<core::HypervisorSystem::SystemSnapshot>(slot->system->snapshot());
  ++constructed_;
  slots_.push_back(std::move(slot));
  return Lease(this, slots_.size() - 1, slots_.back().get());
}

core::HypervisorSystem& SystemPool::slot_begin_run(Slot& slot) {
  if (slot.fresh) {
    // A freshly constructed system is already in its pristine pre-start
    // state -- the first run is exactly a cold run.
    slot.fresh = false;
    return *slot.system;
  }
  slot.system->clear_traces();
  slot.system->restore(*slot.pristine);
  slot.warm_recycles.fetch_add(1, std::memory_order_relaxed);
  return *slot.system;
}

void SystemPool::release_slot(std::size_t index) {
  const std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(index);
}

core::HypervisorSystem& SystemPool::Lease::begin_run() {
  return slot_begin_run(*slot_);
}

void SystemPool::Lease::release() {
  if (pool_ != nullptr) {
    pool_->release_slot(index_);
    pool_ = nullptr;
    slot_ = nullptr;
  }
}

SystemPool::Stats SystemPool::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.constructed = constructed_;
  for (const auto& slot : slots_) {
    s.warm_recycles += slot->warm_recycles.load(std::memory_order_relaxed);
  }
  return s;
}

std::size_t SystemPool::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

}  // namespace rthv::exp
