// Declarative fault-injection plans (the "what to attack" half of the
// fault subsystem; fault_engine.hpp turns a plan into scheduled events).
//
// A plan is a list of injection specs parsed from a small INI-like text
// format (configs/*.plan). Each `[kind]` section describes one injector
// instance; sections may repeat, and injectors compose freely within one
// run. Example:
//
//     # storm the monitored source right at the d_min boundary
//     [storm]
//     source = 0
//     start_ms = 50
//     bursts = 20
//     burst_len = 4
//     distance_us = 1444
//     period_ms = 40
//
//     [drift]
//     drift_ppm = 200
//     jitter_us = 20
//
// Grammar (shared with system configs, read by sim/text_input.hpp): `#` and
// `;` start a comment anywhere on a line, and an empty key or value is an
// error. Times carry their unit in the key name (`_ns` / `_us` / `_ms`,
// `horizon_s`), are non-negative (a horizon positive) and must fit int64
// nanoseconds; counts are unsigned, `source` fits 32 bits and `drift_ppm`
// is the one signed key. All values are integers, so a parsed plan is
// exact and platform-independent. The
// plan itself carries no randomness -- seeds are assigned per run by the
// FaultEngine via exp::derive_seed, which is what keeps sweeps bit-identical
// for any --jobs value.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace rthv::fault {

/// The concrete injector kinds (one section name each; see injector.hpp).
enum class FaultKind : std::uint8_t {
  kStorm,      // periodic back-to-back IRQ bursts on one source
  kSpurious,   // seeded random extra raises (exponential spacing)
  kDrop,       // periodically clears the source's pending latch (lost IRQs)
  kDrift,      // clock drift + jitter on the TDMA tick timer
  kOverrun,    // raises timed so bottom handlers straddle slot boundaries
  kFlood,      // tight-spaced raises that overflow the subscriber's IRQ queue
  kAdversary,  // greedy earliest-admissible activation pattern vs. the monitor
  kCount_,
};

[[nodiscard]] std::string_view to_string(FaultKind kind);

/// One injector instance. The struct is the union of all kinds' parameters;
/// each kind documents which fields it reads (unused fields are ignored).
struct InjectionSpec {
  FaultKind kind = FaultKind::kStorm;
  std::uint32_t source = 0;     // IRQ source index (all kinds except kDrift)
  sim::TimePoint start;         // first action (default: simulation origin)
  std::uint64_t count = 0;      // storm: bursts; spurious/drop/flood: events;
                                // overrun: boundaries; adversary: raises
  sim::Duration distance;       // storm/flood: raise spacing;
                                // adversary: fallback d_min for unmonitored sources
  sim::Duration period;         // storm: burst period; drop: latch-clear period
  std::uint64_t burst_len = 1;  // storm: raises per burst
  sim::Duration mean;           // spurious: mean interarrival
  std::int64_t drift_ppm = 0;   // drift: constant skew, parts per million
  sim::Duration jitter;         // drift: uniform +/- jitter per programmed deadline
  sim::Duration lead;           // overrun: raise this long before each boundary
  std::uint64_t probe_every = 0;  // adversary: every Nth raise probes under d_min
  sim::Duration probe_under;      // adversary: how far under d_min probes land
};

struct FaultPlan {
  std::vector<InjectionSpec> injections;
  /// Optional `[campaign] horizon_ms` -- the simulated length the plan was
  /// written for. Zero = caller decides.
  sim::Duration horizon;

  [[nodiscard]] bool empty() const { return injections.empty(); }
};

/// Parse error with the 1-based line number of the offending input line.
class FaultPlanError : public std::runtime_error {
 public:
  FaultPlanError(std::size_t line, const std::string& message)
      : std::runtime_error("fault plan line " + std::to_string(line) + ": " + message),
        line_(line) {}

  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// Parses a plan from a stream / file. Throws FaultPlanError on malformed
/// input (unknown section, unknown key for the section's kind, a number that
/// is malformed or out of its key's range).
[[nodiscard]] FaultPlan load_fault_plan(std::istream& in);
[[nodiscard]] FaultPlan load_fault_plan_file(const std::string& path);

/// Writes a plan back out in the same format (round-trips through
/// load_fault_plan bit-identically for integer-valued times).
void save_fault_plan(std::ostream& out, const FaultPlan& plan);

}  // namespace rthv::fault
