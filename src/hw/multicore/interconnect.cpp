#include "hw/multicore/interconnect.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace rthv::hw {

namespace {

// Saturating u64 arithmetic: demand counters are unbounded in principle, so
// the charge math saturates instead of wrapping -- a wrapped stall would be
// a silently *smaller* charge, the unsafe direction.
std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = 0;
  return __builtin_mul_overflow(a, b, &r) ? UINT64_MAX : r;
}
std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = 0;
  return __builtin_add_overflow(a, b, &r) ? UINT64_MAX : r;
}

}  // namespace

SharedInterconnect::SharedInterconnect(const InterconnectConfig& config)
    : cfg_(config) {
  if (cfg_.num_cores == 0) {
    throw std::invalid_argument("SharedInterconnect: num_cores must be >= 1");
  }
  if (cfg_.num_colors == 0 || cfg_.num_colors > 32) {
    throw std::invalid_argument("SharedInterconnect: num_colors must be in [1, 32]");
  }
  if (!cfg_.epoch.is_positive()) {
    throw std::invalid_argument("SharedInterconnect: epoch must be positive");
  }
  if (cfg_.half_load_accesses == 0) {
    throw std::invalid_argument(
        "SharedInterconnect: half_load_accesses must be positive");
  }
  if (cfg_.budgets.size() > cfg_.num_cores) {
    throw std::invalid_argument(
        "SharedInterconnect: " + std::to_string(cfg_.budgets.size()) +
        " core budgets for " + std::to_string(cfg_.num_cores) + " cores");
  }
  for (const CoreBandwidthBudget& b : cfg_.budgets) {
    if (b.budget_accesses != 0 && !b.replenish_period.is_positive()) {
      throw std::invalid_argument(
          "SharedInterconnect: regulated cores need a positive replenish period");
    }
  }
  full_mask_ = cfg_.num_colors == 32
                   ? 0xFFFF'FFFFu
                   : ((std::uint32_t{1} << cfg_.num_colors) - 1u);
  const std::size_t cells =
      static_cast<std::size_t>(cfg_.num_cores) * cfg_.num_colors;
  prev_.assign(cells, 0);
  cur_.assign(cells, 0);
  window_.assign(cfg_.num_cores, 0);
  used_.assign(cfg_.num_cores, 0);
}

void SharedInterconnect::roll(sim::TimePoint now) {
  const std::uint64_t k =
      static_cast<std::uint64_t>(now.count_ns()) /
      static_cast<std::uint64_t>(cfg_.epoch.count_ns());
  if (k == cur_epoch_) return;
  assert(k > cur_epoch_ && "interconnect observed time running backwards");
  if (k == cur_epoch_ + 1) {
    prev_.swap(cur_);
    std::swap(prev_dirty_, cur_dirty_);
  } else if (prev_dirty_) {
    // At least one whole epoch passed with no traffic: the previous epoch's
    // demand is zero.
    std::fill(prev_.begin(), prev_.end(), 0);
    prev_dirty_ = false;
  }
  if (cur_dirty_) {
    std::fill(cur_.begin(), cur_.end(), 0);
    cur_dirty_ = false;
  }
  cur_epoch_ = k;
  ++counters_.epochs_rolled;
}

std::uint64_t SharedInterconnect::pressure(std::uint32_t core,
                                           std::uint32_t mask) const {
  if (!prev_dirty_) return 0;
  const std::uint32_t m = normalize(mask);
  std::uint64_t p = 0;
  for (std::uint32_t c = 0; c < cfg_.num_cores; ++c) {
    if (c == core) continue;
    const std::uint64_t* row = &prev_[static_cast<std::size_t>(c) * cfg_.num_colors];
    for (std::uint32_t bits = m; bits != 0; bits &= bits - 1) {
      p += row[__builtin_ctz(bits)];
    }
  }
  return p;
}

sim::Duration SharedInterconnect::contention_stall(std::uint32_t core,
                                                   std::uint32_t mask,
                                                   std::uint64_t accesses,
                                                   sim::TimePoint now) {
  assert(core < cfg_.num_cores);
  roll(now);
  if (accesses == 0) return sim::Duration::zero();
  ++counters_.bursts_charged;
  const std::uint64_t p = pressure(core, mask);
  std::uint64_t conflict = 0;
  if (p > 0) {
    // conflict_ns * accesses * p / (p + half_load), factored as
    // (c/den)*p + ((c%den)*p)/den so the intermediate products stay within
    // u64 for realistic demand and saturate (never wrap) beyond it.
    const std::uint64_t den = sat_add(p, cfg_.half_load_accesses);
    const std::uint64_t c = sat_mul(cfg_.conflict_access_ns, accesses);
    conflict = sat_add(sat_mul(c / den, p), sat_mul(c % den, p) / den);
  }
  const std::uint64_t total =
      sat_add(sat_mul(cfg_.base_access_ns, accesses), conflict);
  const std::int64_t stall_ns = static_cast<std::int64_t>(
      std::min<std::uint64_t>(total, static_cast<std::uint64_t>(INT64_MAX)));
  counters_.stall_ns_total += static_cast<std::uint64_t>(stall_ns);
  return sim::Duration::ns(stall_ns);
}

std::uint64_t SharedInterconnect::grant(std::uint32_t core,
                                        std::uint64_t accesses,
                                        sim::TimePoint now) {
  if (core >= cfg_.budgets.size()) return accesses;
  const CoreBandwidthBudget& b = cfg_.budgets[core];
  if (b.budget_accesses == 0) return accesses;
  const std::uint64_t w =
      static_cast<std::uint64_t>(now.count_ns()) /
      static_cast<std::uint64_t>(b.replenish_period.count_ns());
  if (w != window_[core]) {
    window_[core] = w;
    used_[core] = 0;
  }
  const std::uint64_t room =
      b.budget_accesses > used_[core] ? b.budget_accesses - used_[core] : 0;
  const std::uint64_t granted = std::min(accesses, room);
  used_[core] += granted;
  counters_.accesses_throttled += accesses - granted;
  return granted;
}

void SharedInterconnect::register_demand(std::uint32_t core, std::uint32_t mask,
                                         std::uint64_t accesses,
                                         sim::TimePoint now) {
  assert(core < cfg_.num_cores);
  roll(now);
  if (accesses == 0) return;
  const std::uint64_t granted = grant(core, accesses, now);
  if (granted == 0) return;
  counters_.accesses_registered += granted;
  // Spread the burst evenly over the set colors; the remainder lands on the
  // lowest set colors so the split is deterministic.
  const std::uint32_t m = normalize(mask);
  const std::uint32_t set = static_cast<std::uint32_t>(__builtin_popcount(m));
  const std::uint64_t per = granted / set;
  std::uint64_t rem = granted % set;
  std::uint64_t* row = &cur_[static_cast<std::size_t>(core) * cfg_.num_colors];
  for (std::uint32_t bits = m; bits != 0; bits &= bits - 1) {
    std::uint64_t share = per;
    if (rem > 0) {
      ++share;
      --rem;
    }
    row[__builtin_ctz(bits)] += share;
  }
  cur_dirty_ = true;
}

sim::Duration SharedInterconnect::charge_and_register(std::uint32_t core,
                                                      std::uint32_t mask,
                                                      std::uint64_t accesses,
                                                      sim::TimePoint now) {
  const sim::Duration stall = contention_stall(core, mask, accesses, now);
  register_demand(core, mask, accesses, now);
  return stall;
}

sim::Duration SharedInterconnect::route_delay(std::uint32_t from_core,
                                              std::uint32_t to_core,
                                              sim::TimePoint now) {
  assert(from_core < cfg_.num_cores && to_core < cfg_.num_cores);
  (void)to_core;  // symmetric interconnect: the hop cost is sender-side
  ++counters_.routes;
  return cfg_.route_latency +
         charge_and_register(from_core, full_mask_, cfg_.route_accesses, now);
}

void SharedInterconnect::snapshot_state(sim::StateWriter& w) const {
  w.u64(cur_epoch_);
  w.pod_vec(prev_);
  w.pod_vec(cur_);
  w.pod_vec(window_);
  w.pod_vec(used_);
  w.pod(counters_);
}

void SharedInterconnect::restore_state(sim::StateReader& r) {
  cur_epoch_ = r.u64();
  r.pod_vec(prev_);
  r.pod_vec(cur_);
  r.pod_vec(window_);
  r.pod_vec(used_);
  if (prev_.size() != cur_.size() ||
      prev_.size() != static_cast<std::size_t>(cfg_.num_cores) * cfg_.num_colors ||
      window_.size() != cfg_.num_cores || used_.size() != cfg_.num_cores) {
    throw std::logic_error(
        "SharedInterconnect::restore_state: core/color population changed");
  }
  const auto holds_demand = [](const std::vector<std::uint64_t>& t) {
    return std::any_of(t.begin(), t.end(), [](std::uint64_t v) { return v != 0; });
  };
  prev_dirty_ = holds_demand(prev_);
  cur_dirty_ = holds_demand(cur_);
  counters_ = r.pod<Counters>();
}

}  // namespace rthv::hw
