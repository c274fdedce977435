// e2ebench: end-to-end benchmark of the rthv library (see ../README.md).
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--root DIR] [--spans FILE] [--inject-nonconserving]
//
// --trace 0 runs one workload with span recording off and prints its
// end-to-end metrics. --trace 1 records spans around the public calls into
// each layer and runs the attribution suite: the named workload for half of
// the budget and the other three for a sixth each, since every per-layer
// metric is measured on the workload that exercises its layer. It prints
// the per-layer metrics, plus the named workload's traced runs_per_s and
// sim_irqs_per_s (compare with --trace 0 for the span-recording overhead).
//
// The last stdout line is one JSON object: attempted/failed counts, the
// output digest of every workload run, and the metrics. Reference digests
// are checked by run.py.
#include <malloc.h>

#include <cstdlib>
#include <cstring>
#include <exception>
#include <iomanip>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

using e2e::Options;
using e2e::Report;

void usage() {
  std::cerr << "usage: e2ebench --workload paper_suite|campaign_10irq|hunt_storm|"
               "multicore_4core --seed N --seconds S --trace 0|1 [--root DIR]\n"
               "  [--spans FILE] [--inject-nonconserving]\n";
}

struct Workload {
  const char* name;
  void (*run)(const Options&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"paper_suite", e2e::run_paper_suite},
    {"campaign_10irq", e2e::run_campaign},
    {"hunt_storm", e2e::run_hunt_storm},
    {"multicore_4core", e2e::run_multicore},
};

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--inject-nonconserving") {
      opt.inject_nonconserving = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--root") {
      opt.root = argv[++i];
    } else if (arg == "--spans") {
      opt.spans_out = argv[++i];
    } else {
      return false;
    }
  }
  return find_workload(opt.workload) != nullptr && opt.seconds > 0;
}

void print_layer_summary(const Report& report) {
  std::cerr << "\nper-layer self time (span time minus child spans):\n"
            << std::left << std::setw(10) << "layer" << std::right << std::setw(10)
            << "spans" << std::setw(14) << "total_ms" << std::setw(14) << "self_ms\n";
  for (const auto& lt : e2e::spans().self_times()) {
    std::cerr << std::left << std::setw(10) << lt.layer << std::right << std::setw(10)
              << lt.spans << std::setw(14) << std::fixed << std::setprecision(2)
              << lt.total_ms << std::setw(14) << lt.self_ms << "\n";
  }
  std::cerr << "\nper-layer metrics:\n";
  for (const auto& [name, vu] : report.metrics) {
    std::cerr << "  " << std::left << std::setw(32) << name << std::right << std::setw(16)
              << std::setprecision(4) << vu.first << " " << vu.second << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the heap instead of glibc's size-dependent mix of
  // mmap/munmap and heap trimming: otherwise whether a repeated set-up or
  // pass pays fresh page faults depends on allocation sizes (and so on the
  // seed), which shows as a 3x swing in set-up time between seeds.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  try {
    Report out;
    std::string digests;
    const auto add_digest = [&](const char* name, const Report& r) {
      digests += std::string(digests.empty() ? "" : ", ") + "\"" + name + "\": \"" +
                 r.digest + "\"";
    };
    if (!opt.trace) {
      find_workload(opt.workload)->run(opt, out);
      add_digest(opt.workload.c_str(), out);
    } else {
      e2e::spans().enable(true);
      for (const auto& w : kWorkloads) {
        Options sub = opt;
        sub.workload = w.name;
        const bool named = opt.workload == w.name;
        sub.seconds = opt.seconds * (named ? 0.5 : 1.0 / 6.0);
        Report r;
        {
          const e2e::Scoped span("bench.workload");
          w.run(sub, r);
        }
        add_digest(w.name, r);
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.failures.insert(out.failures.end(), r.failures.begin(), r.failures.end());
        for (auto& [name, vu] : r.metrics) {
          if (name.find('.') != std::string::npos) {
            out.metric(name, vu.first, vu.second);
          } else if (named && (name == "runs_per_s" || name == "sim_irqs_per_s")) {
            out.metric("traced." + name, vu.first, vu.second);
          }
        }
      }
      print_layer_summary(out);
      if (!opt.spans_out.empty()) e2e::spans().write(opt.spans_out);
    }
    std::string line = out.json(opt);
    line.insert(line.size() - 1, ", \"digests\": {" + digests + "}");
    std::cout << line << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
}
