#include "exp/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "exp/batch_runner.hpp"
#include "sim/text_input.hpp"

namespace rthv::exp {

namespace {

[[noreturn]] void usage_error(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--jobs N|auto] [--trace-out PATH] [--metrics-out PATH] "
               "[--fault-plan PATH] [positional args...]\n",
               argv0);
  std::exit(2);
}

std::size_t parse_jobs_value(std::string_view value, const char* argv0) {
  const auto jobs = parse_jobs(value);
  if (!jobs) usage_error(argv0);
  return *jobs;
}

}  // namespace

std::optional<std::size_t> parse_jobs(std::string_view value) {
  if (value == "auto") return hardware_jobs();
  return sim::parse_int<std::size_t>(value, 1);
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--jobs") {
      if (i + 1 >= argc) usage_error(argv[0]);
      options.jobs = parse_jobs_value(argv[++i], argv[0]);
    } else if (arg.starts_with("--jobs=")) {
      options.jobs = parse_jobs_value(arg.substr(7), argv[0]);
    } else if (arg == "--trace-out") {
      if (i + 1 >= argc) usage_error(argv[0]);
      options.trace_out = argv[++i];
    } else if (arg.starts_with("--trace-out=")) {
      options.trace_out = arg.substr(12);
    } else if (arg == "--metrics-out") {
      if (i + 1 >= argc) usage_error(argv[0]);
      options.metrics_out = argv[++i];
    } else if (arg.starts_with("--metrics-out=")) {
      options.metrics_out = arg.substr(14);
    } else if (arg == "--fault-plan") {
      if (i + 1 >= argc) usage_error(argv[0]);
      options.fault_plan = argv[++i];
    } else if (arg.starts_with("--fault-plan=")) {
      options.fault_plan = arg.substr(13);
    } else if (arg.starts_with("--")) {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], argv[i]);
      usage_error(argv[0]);
    } else {
      options.positional.emplace_back(arg);
    }
  }
  return options;
}

}  // namespace rthv::exp
