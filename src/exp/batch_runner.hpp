// Work-stealing batched campaign executor over pooled systems.
//
// BatchRunner::map(pool, count, fn) evaluates fn(0, system) ..
// fn(count-1, system) where `system` is a pooled HypervisorSystem reset to
// its pristine pre-start state before every call (see SystemPool). Run
// indices are grouped into fixed-size chunks and distributed over
// per-worker deques; a worker drains its own deque front-to-back and, when
// empty, steals a chunk from the *back* of another worker's deque -- the
// classic owner-FIFO/thief-LIFO split that keeps owners on their own cache-
// warm index range while idle workers take work farthest from the owner's
// current position. This replaces SweepRunner's one-task-per-run central
// FIFO: a 10k-run campaign enqueues count/chunk work items, not count, and
// tail imbalance is fixed by stealing instead of by luck.
//
// Determinism argument (the jobs-identity property): every run's inputs
// are a pure function of its index (seeds via derive_seed(), params via
// campaign tables) and of a pristine system state that is bit-identical on
// every slot (proven by the warm-start differential tests). Stealing only
// changes WHICH worker executes a chunk and WHEN -- never the per-index
// inputs -- and results land in a per-index slot merged in index order, so
// the output is bit-identical for any jobs count, chunk size, or steal
// interleaving. Errors rethrow lowest-index-first like a sequential run.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "exp/system_pool.hpp"
#include "exp/thread_pool.hpp"

namespace rthv::exp {

struct BatchOptions {
  /// Worker threads; 0 = ThreadPool::hardware_jobs(). Results are
  /// bit-identical for any value.
  std::size_t jobs = 1;
  /// Run indices per work item. Small chunks steal at finer grain (better
  /// tail balance), large chunks amortize deque traffic.
  std::size_t chunk = 16;
};

struct BatchStats {
  std::uint64_t runs = 0;
  std::uint64_t chunks = 0;
  std::uint64_t steals = 0;  // chunks executed by a non-owner worker
  SystemPool::Stats pool;

  /// Fraction of chunks executed by a thief rather than their owner; 0 on
  /// a single worker or a perfectly balanced campaign.
  [[nodiscard]] double steal_ratio() const {
    return chunks == 0 ? 0.0 : static_cast<double>(steals) / static_cast<double>(chunks);
  }
};

/// A contiguous run-index chunk [begin, end).
struct RunRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Splits `count` run indices into `chunk`-sized RunRanges and deals them
/// out as one contiguous shard per worker (worker 0 gets the lowest chunks).
/// Every index appears exactly once; empty shards are legal when
/// jobs > ceil(count/chunk).
[[nodiscard]] std::vector<std::vector<RunRange>> plan_shards(std::size_t count,
                                                             std::size_t chunk,
                                                             std::size_t jobs);

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  [[nodiscard]] std::size_t jobs() const { return options_.jobs; }

  /// Runs the campaign; returns results in run-index order. Stats of the
  /// last map() call are available from stats() afterwards.
  template <typename Fn>
  auto map(SystemPool& pool, std::size_t count, Fn fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t, core::HypervisorSystem&>> {
    using R = std::invoke_result_t<Fn&, std::size_t, core::HypervisorSystem&>;
    stats_ = BatchStats{};
    std::vector<std::optional<R>> produced(count);

    struct WorkDeque {
      std::mutex mutex;
      std::deque<RunRange> chunks;
    };

    const std::size_t jobs =
        count == 0 ? 1 : std::min(options_.jobs, (count + options_.chunk - 1) / options_.chunk);
    std::vector<WorkDeque> deques(jobs == 0 ? 1 : jobs);
    {
      const auto shards = plan_shards(count, options_.chunk, deques.size());
      for (std::size_t w = 0; w < shards.size(); ++w) {
        deques[w].chunks.assign(shards[w].begin(), shards[w].end());
      }
    }

    std::mutex error_mutex;
    std::size_t first_error_index = count;
    std::exception_ptr first_error;
    std::atomic<std::uint64_t> executed_chunks{0};
    std::atomic<std::uint64_t> stolen_chunks{0};

    auto worker_body = [&](std::size_t me) {
      // Acquired on the first chunk: a worker that finds the campaign
      // already drained constructs no system.
      SystemPool::Lease lease;
      for (;;) {
        std::optional<RunRange> range;
        bool stolen = false;
        {
          const std::lock_guard<std::mutex> lock(deques[me].mutex);
          if (!deques[me].chunks.empty()) {
            range = deques[me].chunks.front();
            deques[me].chunks.pop_front();
          }
        }
        if (!range) {
          for (std::size_t k = 1; k < deques.size() && !range; ++k) {
            WorkDeque& victim = deques[(me + k) % deques.size()];
            const std::lock_guard<std::mutex> lock(victim.mutex);
            if (!victim.chunks.empty()) {
              range = victim.chunks.back();
              victim.chunks.pop_back();
              stolen = true;
            }
          }
        }
        if (!range) break;  // every deque empty: the campaign is drained
        if (!lease.valid()) lease = pool.acquire();
        executed_chunks.fetch_add(1, std::memory_order_relaxed);
        if (stolen) stolen_chunks.fetch_add(1, std::memory_order_relaxed);
        for (std::size_t i = range->begin; i < range->end; ++i) {
          try {
            produced[i].emplace(fn(i, lease.begin_run()));
          } catch (...) {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (i < first_error_index) {
              first_error_index = i;
              first_error = std::current_exception();
            }
          }
        }
      }
    };

    if (deques.size() <= 1) {
      worker_body(0);
    } else {
      // One long-lived task per worker; the pool destructor joins them all.
      ThreadPool threads(deques.size());
      for (std::size_t w = 0; w < deques.size(); ++w) {
        threads.submit([&worker_body, w] { worker_body(w); });
      }
    }

    stats_.runs = count;
    stats_.chunks = executed_chunks.load(std::memory_order_relaxed);
    stats_.steals = stolen_chunks.load(std::memory_order_relaxed);
    stats_.pool = pool.stats();
    // Deterministic error reporting: rethrow the lowest-index failure,
    // matching what a sequential campaign would have thrown first.
    if (first_error) std::rethrow_exception(first_error);

    std::vector<R> results;
    results.reserve(count);
    for (auto& slot : produced) results.push_back(std::move(*slot));
    return results;
  }

  [[nodiscard]] const BatchStats& stats() const { return stats_; }

 private:
  BatchOptions options_;
  BatchStats stats_;
};

}  // namespace rthv::exp
