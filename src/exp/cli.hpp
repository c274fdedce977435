// Tiny command-line parsing shared by the bench drivers.
//
// Recognises `--jobs N`, `--jobs=N` and `--jobs auto` (hardware
// concurrency), `--trace-out PATH` (Chrome trace-event JSON, Perfetto
// loadable), `--metrics-out PATH` (metrics JSON; `.txt` suffix selects the
// text dump), `--fault-plan PATH` (fault-injection plan, see
// src/fault/fault_plan.hpp); any other `--` argument is rejected, and the
// rest are returned as positional arguments in order. Keeps the drivers'
// existing positional interfaces (e.g. an export directory) intact.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rthv::exp {

struct CliOptions {
  std::size_t jobs = 1;
  std::string trace_out;    // empty = tracing off
  std::string metrics_out;  // empty = no metrics dump
  std::string fault_plan;   // empty = no fault injection
  std::vector<std::string> positional;
};

/// Parses a --jobs value: "auto" (hardware_jobs()) or a positive integer
/// that fits in std::size_t (sim::parse_int); nullopt for anything else.
[[nodiscard]] std::optional<std::size_t> parse_jobs(std::string_view value);

/// Parses argv (past argv[0]). Exits with code 2 and a usage message on
/// stderr for a malformed --jobs value, a flag missing its value, or an
/// unknown `--` flag.
[[nodiscard]] CliOptions parse_cli(int argc, char** argv);

}  // namespace rthv::exp
