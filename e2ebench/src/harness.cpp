#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace e2e {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double latency_us(const rthv::stats::Summary& s, double p) {
  return s.empty() ? 0.0 : s.percentile(p).as_us();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void next_cpus(std::size_t width) {
  static const std::vector<int> allowed = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    return cpus;
  }();
  static std::size_t turn = 0;
  if (allowed.size() <= width) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t j = 0; j < width; ++j) CPU_SET(allowed[(turn + j) % allowed.size()], &set);
  ++turn;
  (void)sched_setaffinity(0, sizeof set, &set);  // best effort: a refusal only loses the spread
}

// --- digest ----------------------------------------------------------------------

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFFu;
    h_ *= 1099511628211ull;
  }
}

void Digest::add_str(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
  add(s.size());
}

void Digest::add_recorder(const rthv::stats::LatencyRecorder& rec) {
  add(rec.total());
  for (const auto d : rec.all().samples()) add_i64(d.count_ns());
  for (std::size_t c = 0; c < static_cast<std::size_t>(rthv::stats::HandlingClass::kCount_);
       ++c) {
    add(rec.count(static_cast<rthv::stats::HandlingClass>(c)));
  }
}

void Digest::add_run(const rthv::exp::RunResult& run) {
  add_recorder(run.recorder);
  add(run.completed);
  add(run.tdma_switches);
  add(run.interpose_switches);
  add(run.deferred_switches);
  add(run.denied_by_monitor);
  add(run.lost_raises);
  for (const auto& h : run.metrics.histograms) {
    add(h.count);
    add_i64(h.sum_ns);
    add_i64(h.min_ns);
    add_i64(h.max_ns);
    add(h.underflow);
    add(h.overflow);
    for (const auto b : h.buckets) add(b);
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

// --- spans -----------------------------------------------------------------------

namespace {
thread_local std::vector<std::int32_t> open_spans;  // per-thread nesting stack
}

Spans& spans() {
  static Spans instance;
  return instance;
}

std::int32_t Spans::begin(const char* name, std::uint64_t run) {
  const std::int32_t parent = open_spans.empty() ? -1 : open_spans.back();
  const std::int64_t now = ns_between(epoch_, Clock::now());
  const AllocPause pause;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now, now, parent, run});
  open_spans.push_back(id);
  return id;
}

void Spans::end(std::int32_t id) {
  const std::int64_t now = ns_between(epoch_, Clock::now());
  open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

std::vector<Spans::LayerTime> Spans::self_times() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Children nest inside their parent on one thread, so the part of the
  // parent's interval they cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, LayerTime> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const std::string_view name(s.name);
    const std::string layer(name.substr(0, name.find('.')));
    auto& lt = by_layer[layer];
    lt.layer = layer;
    ++lt.spans;
    const auto dur = s.end_ns - s.start_ns;
    lt.total_ms += static_cast<double>(dur) / 1e6;
    lt.self_ms += static_cast<double>(dur - child_ns[i]) / 1e6;
  }
  std::vector<LayerTime> out;
  for (auto& [_, lt] : by_layer) out.push_back(lt);
  std::sort(out.begin(), out.end(),
            [](const LayerTime& a, const LayerTime& b) { return a.self_ms > b.self_ms; });
  return out;
}

void Spans::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "id,name,start_ns,end_ns,parent,run\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << i << ',' << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.parent
        << ',' << s.run << '\n';
  }
}

// --- conservation ----------------------------------------------------------------

Conservation conservation(const rthv::core::HypervisorSystem& system,
                          std::uint64_t raised) {
  Conservation c;
  c.raised = raised;
  c.completed = system.completed_bottom_handlers();
  const auto& intc = system.platform().intc();
  for (rthv::hw::IrqLine line = 1; line <= system.config().sources.size(); ++line) {
    c.lost += intc.lost_raises(line);
  }
  const auto& hv = system.hypervisor();
  for (rthv::hv::PartitionId p = 0; p < hv.num_partitions(); ++p) {
    c.dropped += hv.partition(p).irq_queue().drops();
  }
  return c;
}

void check_conservation(const Options& opt, Report& report, const Conservation& c,
                        std::string_view what, std::uint64_t run) {
  static std::atomic<bool> injected{false};
  Conservation seen = c;
  if (opt.inject_nonconserving && !injected.exchange(true)) ++seen.completed;
  if (!seen.holds()) {
    report.fail(1, std::string(what) + " " + std::to_string(run) +
                       ": conservation broken (completed " +
                       std::to_string(seen.completed) + " + lost " +
                       std::to_string(seen.lost) + " + dropped " +
                       std::to_string(seen.dropped) + " != raised " +
                       std::to_string(seen.raised) + ")");
  }
}

// --- report ----------------------------------------------------------------------

namespace {
/// The fastest tenth (at least one) of each group of `passes`, by runs per
/// second.
std::vector<const Pass*> fastest_tenth(const std::vector<Pass>& passes) {
  std::map<std::size_t, std::vector<const Pass*>> groups;
  for (const auto& p : passes) groups[p.group].push_back(&p);
  std::vector<const Pass*> out;
  for (auto& [_, group] : groups) {
    std::sort(group.begin(), group.end(), [](const Pass* a, const Pass* b) {
      return static_cast<double>(a->runs) / a->seconds >
             static_cast<double>(b->runs) / b->seconds;
    });
    group.resize(std::max<std::size_t>(1, (group.size() + 9) / 10));
    out.insert(out.end(), group.begin(), group.end());
  }
  return out;
}
}  // namespace

std::vector<double> fast_run_us(const std::vector<Pass>& passes) {
  std::vector<double> run_us;
  for (const Pass* p : fastest_tenth(passes)) {
    run_us.insert(run_us.end(), p->run_us.begin(), p->run_us.end());
  }
  return run_us;
}

void report_end_to_end(Report& report, double setup_s, const std::vector<Pass>& passes,
                       const std::vector<Pass>& rate_passes,
                       const rthv::stats::LatencyRecorder& latency) {
  double seconds = 0, irqs = 0;
  for (const Pass* p : fastest_tenth(passes)) {
    seconds += p->seconds;
    irqs += static_cast<double>(p->irqs);
  }
  double rate_seconds = 0, runs = 0;
  for (const Pass* p : fastest_tenth(rate_passes)) {
    rate_seconds += p->seconds;
    runs += static_cast<double>(p->runs);
  }
  report.metric("setup_s", setup_s, "s");
  report.metric("sim_irqs_per_s", irqs / seconds, "1/s");
  report.metric("runs_per_s", runs / rate_seconds, "1/s");
  report.metric("run_us_p50", median(fast_run_us(passes)), "us");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  // Simulated (repeat exactly for a seed). The mean, not the median: the
  // median of these runs is the constant direct-handling latency.
  const auto& all = latency.all();
  report.metric("sim_latency_us_mean", all.empty() ? 0.0 : all.mean().as_us(), "us");
  report.metric("sim_latency_us_p99", latency_us(all, 99), "us");
}

void Report::fail(std::uint64_t runs, const std::string& why) {
  failed += runs;
  if (failures.size() < 8) failures.push_back(why);
}

namespace {
std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out + "\"";
}
}  // namespace

std::string Report::json(const Options& opt) const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\": " << quoted(opt.workload) << ", \"seed\": " << opt.seed
     << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    os << (i ? ", " : "") << quoted(failures[i]);
  }
  os << "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    // Non-finite values are not JSON; report them as -1 so they stand out.
    const double v = std::isfinite(vu.first) ? vu.first : -1.0;
    os << (i ? ", " : "") << quoted(name) << ": {\"value\": " << v
       << ", \"unit\": " << quoted(vu.second) << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace e2e
