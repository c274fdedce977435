// Arena-pooled HypervisorSystem instances with snapshot warm-start.
//
// A batched campaign runs thousands of short, independent simulations of
// the *same* topology. Constructing a system per run costs allocations,
// string-keyed metric registration and guest/monitor assembly every time;
// the pool instead owns a small set of long-lived instances (one per
// concurrent worker) and recycles each one between runs by restoring a
// pristine pre-start snapshot -- a 10k-run campaign does O(pool)
// constructions, not O(runs).
//
// Warm-start contract: HypervisorSystem::restore() is restore-in-place on
// the SAME object graph (queued callbacks capture concrete `this`
// pointers), so one shared template snapshot cannot seed other instances.
// Instead every slot takes its OWN pristine snapshot right after
// construction; deterministic construction makes the slots equivalent, and
// the snapshot/restore round-trip is proven bit-identical by the batch
// differential tests. Recycling clears per-run trace drivers first
// (HypervisorSystem::clear_traces()) so the zero-driver pristine snapshot
// restores cleanly. Pooled systems are built from the config alone; a run
// that wants per-run switches (keep_completions, run-to-horizon) sets them
// after begin_run(), and the next restore resets them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/hypervisor_system.hpp"
#include "core/system_config.hpp"

namespace rthv::exp {

class SystemPool {
  struct Slot;  // defined below; leases cache a stable pointer to one

 public:
  struct Stats {
    std::uint64_t constructed = 0;    // full system constructions
    std::uint64_t warm_recycles = 0;  // pristine-snapshot restores
  };

  explicit SystemPool(core::SystemConfig config);

  SystemPool(const SystemPool&) = delete;
  SystemPool& operator=(const SystemPool&) = delete;

  /// RAII handle on one pooled instance. A worker holds its lease for a
  /// whole campaign; the slot returns to the free list on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), index_(other.index_), slot_(other.slot_) {
      other.pool_ = nullptr;
      other.slot_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = other.pool_;
        index_ = other.index_;
        slot_ = other.slot_;
        other.pool_ = nullptr;
        other.slot_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    /// Hands out the instance reset to its pristine pre-start state, ready
    /// for attach_trace() + run(). First use after construction skips the
    /// restore (a fresh system *is* pristine).
    [[nodiscard]] core::HypervisorSystem& begin_run();

    [[nodiscard]] bool valid() const { return pool_ != nullptr; }

   private:
    friend class SystemPool;
    // The Slot pointer is cached here so begin_run() never touches the
    // pool's slot vector, which another worker's acquire() may be growing.
    Lease(SystemPool* pool, std::size_t index, Slot* slot)
        : pool_(pool), index_(index), slot_(slot) {}
    void release();

    SystemPool* pool_ = nullptr;
    std::size_t index_ = 0;
    Slot* slot_ = nullptr;
  };

  /// Thread-safe. Reuses a free slot or constructs a new one.
  [[nodiscard]] Lease acquire();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const core::SystemConfig& config() const { return config_; }

 private:
  struct Slot {
    std::unique_ptr<core::HypervisorSystem> system;
    // Pristine pre-start snapshot of THIS instance (see warm-start contract
    // above).
    std::unique_ptr<core::HypervisorSystem::SystemSnapshot> pristine;
    bool fresh = true;  // constructed but never handed to a run
    // Relaxed: the counters are statistics, each written only by the worker
    // holding the slot's lease; atomics keep stats() data-race-free even
    // mid-campaign.
    std::atomic<std::uint64_t> warm_recycles{0};
  };

  static core::HypervisorSystem& slot_begin_run(Slot& slot);
  void release_slot(std::size_t index);

  core::SystemConfig config_;

  mutable std::mutex mutex_;  // guards slots_ growth, free_, constructed_
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::size_t> free_;
  std::uint64_t constructed_ = 0;
};

}  // namespace rthv::exp
