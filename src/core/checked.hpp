// Checked tick arithmetic and always-compiled contract macros.
//
// The latency analysis (busy-window Eqs. 3-16, the interference bound
// I(dt) = ceil(dt / d_min) * C'_BH, delta^- extension) is pure 64-bit
// nanosecond arithmetic. A silently wrapped multiply would turn a divergent
// fixed point into a plausible-looking bound, so every tick-quantity
// multiply / add / ceiling division in src/analysis (and the monitors'
// delta^- updates) must go through this header instead of raw operators --
// tools/rthv_lint enforces that (rule `checked-arith`).
//
// Two failure vocabularies:
//   - TickOverflow / TickDomainError (both ArithmeticError): thrown by the
//     checked_* / ceil_div helpers in *all* build modes. Analysis callers
//     treat them like divergence: the bound is reported as "not computable"
//     rather than wrapped.
//   - RTHV_INVARIANT / RTHV_PRECONDITION: always-compiled condition checks.
//     Debug builds abort with a message (like assert, but never compiled
//     out silently); release builds count the violation in the process-wide
//     InvariantCounters registry, which can be published into an
//     obs::MetricsSnapshot as counters named "invariant/violations/<name>"
//     (see ARCHITECTURE.md section 10). Violations never occur on correct
//     runs, so the counters stay at zero and sweeps remain bit-identical
//     for any --jobs value.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace rthv::core {

/// Base class of all checked-arithmetic failures.
class ArithmeticError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A tick computation left the representable 64-bit range.
class TickOverflow final : public ArithmeticError {
 public:
  using ArithmeticError::ArithmeticError;
};

/// A tick computation was called outside its domain (zero / negative
/// divisor, non-convergent search, value not representable in the target
/// type of a checked_cast).
class TickDomainError final : public ArithmeticError {
 public:
  using ArithmeticError::ArithmeticError;
};

namespace detail {

[[noreturn]] inline void throw_overflow(const char* what) {
  throw TickOverflow(std::string("tick overflow in ") + what);
}

[[noreturn]] inline void throw_domain(const char* what) {
  throw TickDomainError(std::string("tick domain error in ") + what);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Raw integer helpers
// ---------------------------------------------------------------------------

[[nodiscard]] inline std::int64_t checked_add(std::int64_t a, std::int64_t b,
                                              const char* what = "add") {
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) detail::throw_overflow(what);
  return r;
}

[[nodiscard]] inline std::int64_t checked_sub(std::int64_t a, std::int64_t b,
                                              const char* what = "sub") {
  std::int64_t r = 0;
  if (__builtin_sub_overflow(a, b, &r)) detail::throw_overflow(what);
  return r;
}

[[nodiscard]] inline std::int64_t checked_mul(std::int64_t a, std::int64_t b,
                                              const char* what = "mul") {
  std::int64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) detail::throw_overflow(what);
  return r;
}

[[nodiscard]] inline std::uint64_t checked_add(std::uint64_t a, std::uint64_t b,
                                               const char* what = "add-u64") {
  std::uint64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) detail::throw_overflow(what);
  return r;
}

[[nodiscard]] inline std::uint64_t checked_mul(std::uint64_t a, std::uint64_t b,
                                               const char* what = "mul-u64") {
  std::uint64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) detail::throw_overflow(what);
  return r;
}

/// Mathematical ceiling of a / b for b > 0 and any a (including negative a
/// and exact multiples). Unlike the textbook (a + b - 1) / b form this
/// cannot overflow. Throws TickDomainError for b <= 0.
[[nodiscard]] inline std::int64_t ceil_div(std::int64_t a, std::int64_t b,
                                           const char* what = "ceil_div") {
  if (b <= 0) detail::throw_domain(what);
  return a / b + (a % b > 0 ? 1 : 0);
}

/// Range-checked integral conversion (the "fix, don't suppress" replacement
/// for narrowing static_casts). Throws TickDomainError when the value is
/// not representable in To.
template <typename To, typename From>
[[nodiscard]] inline To checked_cast(From v, const char* what = "cast") {
  static_assert(std::is_integral_v<To> && std::is_integral_v<From>);
  if (!std::in_range<To>(v)) detail::throw_domain(what);
  return static_cast<To>(v);
}

/// Rounds a double nanosecond quantity to the nearest tick, rejecting NaN
/// and values outside the int64 range (used by the monitor's delta^-
/// load-fraction scaling).
[[nodiscard]] inline std::int64_t checked_round_ns(double ns,
                                                   const char* what = "round_ns") {
  // 2^63 as a double; everything >= it (or < -2^63) is unrepresentable.
  constexpr double kLimit = 9223372036854775808.0;
  if (!(ns > -kLimit && ns < kLimit)) detail::throw_overflow(what);  // NaN fails too
  return static_cast<std::int64_t>(ns >= 0.0 ? ns + 0.5 : ns - 0.5);
}

// ---------------------------------------------------------------------------
// Duration / TimePoint overloads
// ---------------------------------------------------------------------------

[[nodiscard]] inline sim::Duration checked_add(sim::Duration a, sim::Duration b,
                                               const char* what = "Duration add") {
  return sim::Duration::ns(checked_add(a.count_ns(), b.count_ns(), what));
}

[[nodiscard]] inline sim::Duration checked_sub(sim::Duration a, sim::Duration b,
                                               const char* what = "Duration sub") {
  return sim::Duration::ns(checked_sub(a.count_ns(), b.count_ns(), what));
}

[[nodiscard]] inline sim::Duration checked_mul(sim::Duration a, std::int64_t k,
                                               const char* what = "Duration mul") {
  return sim::Duration::ns(checked_mul(a.count_ns(), k, what));
}

[[nodiscard]] inline sim::Duration checked_mul(sim::Duration a, std::uint64_t k,
                                               const char* what = "Duration mul") {
  return checked_mul(a, checked_cast<std::int64_t>(k, what), what);
}

[[nodiscard]] inline sim::TimePoint checked_add(sim::TimePoint t, sim::Duration d,
                                                const char* what = "TimePoint add") {
  return sim::TimePoint::at_ns(checked_add(t.count_ns(), d.count_ns(), what));
}

/// ceil(a / b) on tick quantities; the canonical form of the paper's
/// interference counts ceil(dt / d_min) and ceil(dt / T_TDMA).
[[nodiscard]] inline std::int64_t ceil_div(sim::Duration a, sim::Duration b,
                                           const char* what = "Duration ceil_div") {
  return ceil_div(a.count_ns(), b.count_ns(), what);
}

// ---------------------------------------------------------------------------
// Invariant contracts
// ---------------------------------------------------------------------------

/// Process-wide registry of release-mode invariant violations. Cold path
/// only: it is touched exclusively when a contract already failed, so the
/// mutex never appears on simulator hot paths and correct runs never write
/// to it (observer effect stays zero).
class InvariantCounters {
 public:
  static InvariantCounters& instance() {
    static InvariantCounters g;
    return g;
  }

  void count(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++counts_[std::string(name)];
  }

  [[nodiscard]] std::uint64_t value(std::string_view name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0 : it->second;
  }

  [[nodiscard]] std::uint64_t total() const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t sum = 0;
    for (const auto& [name, n] : counts_) sum += n;
    return sum;
  }

  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return {counts_.begin(), counts_.end()};
  }

  /// Adds one counter "invariant/violations/<name>" per violated contract
  /// (none on a clean run -- the metric namespace stays empty). The names
  /// are interned: a snapshot keeps only views of its names.
  void publish(obs::MetricsSnapshot& out) const {
    for (const auto& [name, n] : snapshot()) {
      out.add_counter(
          obs::intern_name(std::string(obs::catalog::kInvariantViolations.prefix) + name), n);
    }
  }

  /// Test support: forgets all recorded violations.
  void reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    counts_.clear();
  }

 private:
  InvariantCounters() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t, std::less<>> counts_;
};

namespace detail {

[[noreturn]] inline void contract_fatal(const char* kind, const char* name,
                                        const char* expr, const char* file,
                                        int line) {
  std::fprintf(stderr, "rthv: %s '%s' violated at %s:%d: %s\n", kind, name, file,
               line, expr);
  std::abort();
}

inline void contract_count(const char* name) {
  InvariantCounters::instance().count(name);
}

}  // namespace detail
}  // namespace rthv::core

// Always-compiled contracts. `name` is a stable slash-separated identifier
// ("analysis/busy-window-monotone"); it keys the release-mode violation
// counter and must not contain spaces.
#ifdef NDEBUG
#define RTHV_INVARIANT(cond, name)                                    \
  do {                                                                \
    if (!(cond)) [[unlikely]] ::rthv::core::detail::contract_count(name); \
  } while (0)
#define RTHV_PRECONDITION(cond, name)                                 \
  do {                                                                \
    if (!(cond)) [[unlikely]] ::rthv::core::detail::contract_count(name); \
  } while (0)
#else
#define RTHV_INVARIANT(cond, name)                                            \
  do {                                                                        \
    if (!(cond)) [[unlikely]]                                                 \
      ::rthv::core::detail::contract_fatal("invariant", name, #cond, __FILE__, \
                                           __LINE__);                         \
  } while (0)
#define RTHV_PRECONDITION(cond, name)                                          \
  do {                                                                         \
    if (!(cond)) [[unlikely]]                                                  \
      ::rthv::core::detail::contract_fatal("precondition", name, #cond,        \
                                           __FILE__, __LINE__);                \
  } while (0)
#endif
