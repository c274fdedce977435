// The campaign engine: a deterministic, index-ordered parallel map over
// independent experiment runs.
//
// BatchRunner has two entry points over one scheduler:
//
//  - map(count, fn) evaluates fn(0) .. fn(count-1); fn constructs whatever
//    it simulates (fault plans, tracing, MulticoreSystem, the cold
//    reference for the pooled path);
//  - map(pool, count, fn) evaluates fn(i, system) where `system` is a pooled
//    HypervisorSystem reset to its pristine pre-start state before every
//    call (see SystemPool). Each worker takes one pool lease on its first
//    run, so a 10k-run campaign does O(workers) constructions, not O(runs).
//
// Scheduler: workers claim `chunk`-sized index ranges [k*chunk, (k+1)*chunk)
// from one shared atomic counter until the counter passes `count`. jobs == 1
// (or a single chunk) runs inline on the caller; otherwise the workers are
// plain std::threads joined before map() returns.
//
// Determinism argument (the jobs-identity property): every run's inputs are
// a pure function of its index (seeds via derive_seed(), params via campaign
// tables) and, on the pooled path, of a pristine system state that is
// bit-identical on every slot (proven by the warm-start differential tests).
// The schedule only changes WHICH worker executes an index and WHEN; run i
// writes its result once, straight into slot i of the returned vector, so
// the output is bit-identical for any jobs count or chunk size. Each slot
// has exactly one writer and the caller reads the vector only after every
// worker is joined. Errors rethrow lowest-index-first like a sequential
// run: a failure stops its worker and the hand-out of new chunks, and every
// index not yet run lies above it.
//
// Requirements on fn: invoking it concurrently from several threads must be
// safe (treat captured state as read-only, or write only to the slot of the
// run index). Its result type must be default-constructible (the slots
// exist before the runs) and must not be bool: std::vector<bool> packs
// neighbouring slots into one word, so two workers writing neighbouring
// results would race.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "exp/system_pool.hpp"

namespace rthv::exp {

/// std::thread::hardware_concurrency with a fallback of 1.
[[nodiscard]] std::size_t hardware_jobs();

struct BatchOptions {
  /// Worker threads; 0 = hardware_jobs(). Results are bit-identical for any
  /// value.
  std::size_t jobs = 1;
  /// Run indices per claim from the shared counter. Small chunks balance
  /// long, uneven runs; large chunks amortize the claim for short runs.
  std::size_t chunk = 16;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  [[nodiscard]] std::size_t jobs() const { return options_.jobs; }

  /// Construct-per-run campaign; returns fn(i) in run-index order.
  template <typename Fn>
  auto map(std::size_t count, Fn fn) -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    return schedule<R>(count, [&fn] { return [&fn](std::size_t i) { return fn(i); }; });
  }

  /// Pooled campaign; returns fn(i, system) in run-index order.
  template <typename Fn>
  auto map(SystemPool& pool, std::size_t count, Fn fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t, core::HypervisorSystem&>> {
    using R = std::invoke_result_t<Fn&, std::size_t, core::HypervisorSystem&>;
    return schedule<R>(count, [&pool, &fn] {
      // Acquired on the worker's first run: a worker that finds the
      // campaign already drained constructs no system.
      return [&pool, &fn, lease = SystemPool::Lease{}](std::size_t i) mutable {
        if (!lease.valid()) lease = pool.acquire();
        return fn(i, lease.begin_run());
      };
    });
  }

 private:
  /// Runs make_worker()(i) for every i in [0, count) and returns the results
  /// in index order. make_worker is called once per worker thread; the
  /// callable it returns holds that worker's private state.
  template <typename R, typename MakeWorker>
  std::vector<R> schedule(std::size_t count, const MakeWorker& make_worker) {
    static_assert(std::is_default_constructible_v<R>,
                  "BatchRunner: a run's result is written into a slot that exists before "
                  "the run, so its type must be default-constructible");
    static_assert(!std::is_same_v<R, bool>,
                  "BatchRunner: std::vector<bool> packs neighbouring slots into one word, so "
                  "concurrent writes of neighbouring results would race; return an integer");
    std::vector<R> results(count);
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::size_t first_error_index = count;
    std::exception_ptr first_error;

    const auto worker_body = [&] {
      auto run = make_worker();
      for (;;) {
        const std::size_t begin = next.fetch_add(options_.chunk, std::memory_order_relaxed);
        if (begin >= count) return;
        const std::size_t end = std::min(count, begin + options_.chunk);
        for (std::size_t i = begin; i < end; ++i) {
          try {
            results[i] = run(i);
          } catch (...) {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (i < first_error_index) {
              first_error_index = i;
              first_error = std::current_exception();
            }
            next.store(count, std::memory_order_relaxed);
            return;
          }
        }
      }
    };

    const std::size_t chunks = (count + options_.chunk - 1) / options_.chunk;
    const std::size_t workers = std::min(options_.jobs, chunks);
    if (workers <= 1) {
      worker_body();
    } else {
      std::vector<std::thread> threads;
      threads.reserve(workers);
      for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker_body);
      for (auto& thread : threads) thread.join();
    }
    if (first_error) std::rethrow_exception(first_error);
    return results;
  }

  BatchOptions options_;
};

}  // namespace rthv::exp
