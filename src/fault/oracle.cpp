#include "fault/oracle.hpp"

#include <algorithm>
#include <ostream>

#include "core/hypervisor_system.hpp"

namespace rthv::fault {

using obs::TraceCategory;
using obs::TraceEvent;
using obs::TracePoint;

InterferenceOracle::InterferenceOracle(std::vector<OracleSourceParams> params)
    : params_(std::move(params)) {}

std::vector<OracleSourceParams> InterferenceOracle::params_from(
    const core::HypervisorSystem& system) {
  const auto& oh = system.hypervisor().overheads();
  std::vector<OracleSourceParams> out;
  for (std::uint32_t s = 0; s < system.config().sources.size(); ++s) {
    const auto& spec = system.config().sources[s];
    // A source without a positive delta^- condition is outside Eq. 14.
    const auto deltas = spec.enforced_deltas();
    if (deltas.empty() || !deltas[0].is_positive()) continue;
    OracleSourceParams p;
    p.source = s;
    p.d_min = deltas[0];
    p.c_bh_eff = oh.effective_bottom_cost(spec.c_bottom);
    p.pre_cost = oh.sched_manipulation_cost() + oh.context_switch_cost();
    out.push_back(p);
  }
  return out;
}

namespace {

/// Running state of the O(n) all-windows admission check for one source.
struct WindowState {
  std::uint64_t count = 0;   // admissions seen
  std::int64_t max_u = 0;    // max over u_k = t_k - k*d_min
  std::uint64_t argmax = 0;  // admission index attaining max_u
  std::int64_t argmax_t = 0;
  /// Contention fold: accumulated normalized-clock shift (applied to later
  /// admissions) and the last admission's charge, pending consumption by
  /// its kInterposeEnter span.
  std::int64_t acc_shift_ns = 0;
  std::int64_t pending_charge_ns = 0;
};

/// Open kInterposeEnter span for the cost check.
struct SpanState {
  bool open = false;
  bool preempted = false;
  std::uint32_t source = 0;
  std::int64_t enter_ns = 0;
  std::int64_t allow_extra_ns = 0;  // folded charge extending C'_BH
};

}  // namespace

OracleReport InterferenceOracle::verify(
    const std::vector<TraceEvent>& events) const {
  return replay(events, {});
}

OracleReport InterferenceOracle::verify(const obs::TraceRing& ring) const {
  const auto [older, newer] = ring.retained();
  return replay(older, newer);
}

OracleReport InterferenceOracle::replay(std::span<const TraceEvent> older,
                                        std::span<const TraceEvent> newer) const {
  OracleReport report;
  std::vector<WindowState> windows(params_.size());
  SpanState span;

  // params_ is small (one entry per monitored source); linear lookup keeps
  // the replay allocation-free in the loop.
  const auto find = [&](std::uint32_t source) -> std::size_t {
    for (std::size_t i = 0; i < params_.size(); ++i) {
      if (params_[i].source == source) return i;
    }
    return params_.size();
  };

  const auto close_span = [&](std::int64_t end_ns) {
    if (!span.open) return;
    span.open = false;
    if (span.preempted) {
      ++report.preempted_spans;
      return;
    }
    const std::size_t p = find(span.source);
    if (p == params_.size()) return;
    ++report.spans_checked;
    const std::int64_t total =
        end_ns - span.enter_ns + params_[p].pre_cost.count_ns();
    report.max_interposition_ns = std::max(report.max_interposition_ns, total);
    const std::int64_t allowed =
        params_[p].c_bh_eff.count_ns() + span.allow_extra_ns;
    if (total > allowed) {
      OracleViolation v;
      v.source = span.source;
      v.window_start_ns = span.enter_ns;
      v.window_end_ns = end_ns;
      v.admitted = 1;
      v.bound = static_cast<std::uint64_t>(allowed);
      report.cost_violations.push_back(v);
    }
  };

  for (const auto block : {older, newer}) {
    for (const TraceEvent& e : block) {
      switch (e.point) {
        case TracePoint::kInterposeStart: {
          ++report.interpositions;
          const std::size_t p = find(e.source);
          if (p == params_.size()) {
            ++report.unchecked_interpositions;
            auto& unchecked = report.unchecked_sources;
            const auto at = std::lower_bound(unchecked.begin(), unchecked.end(), e.source);
            if (at == unchecked.end() || *at != e.source) unchecked.insert(at, e.source);
            break;
          }
          WindowState& w = windows[p];
          const std::int64_t d = params_[p].d_min.count_ns();
          // The same normalized clock the hypervisor feeds its monitor:
          // admitted events are never clamped there (a clamp pins the
          // observed distance at zero, which a positive d_min denies), so the
          // plain subtraction replays it exactly.
          const std::int64_t t = static_cast<std::int64_t>(e.arg0) -
                                 (fold_contention_ ? w.acc_shift_ns : 0);
          const std::int64_t u = t - static_cast<std::int64_t>(w.count) * d;
          if (w.count > 0) {
            ++report.windows_checked;
            // eta+(dt) = ceil(dt/d_min) counts events in half-open windows, so
            // the tightest window holding admissions i..j (length -> span+)
            // allows floor(span/d_min) + 1 of them. Violation in *some* window
            // <=> admitted > that for the running-max i: u_j < max_i(u_i).
            const std::int64_t window = t - w.argmax_t;
            const std::uint64_t admitted = w.count - w.argmax + 1;
            const std::uint64_t bound =
                window < 0 ? 1
                           : static_cast<std::uint64_t>(
                                 window / params_[p].d_min.count_ns()) +
                                 1;
            if (u < w.max_u) {
              OracleViolation v;
              v.source = e.source;
              v.first_index = w.argmax;
              v.last_index = w.count;
              v.window_start_ns = w.argmax_t;
              v.window_end_ns = t;
              v.admitted = admitted;
              v.bound = bound;
              report.violations.push_back(v);
            }
            report.worst_ratio =
                std::max(report.worst_ratio, static_cast<double>(admitted) /
                                                 static_cast<double>(bound));
          }
          if (w.count == 0 || u > w.max_u) {
            w.max_u = u;
            w.argmax = w.count;
            w.argmax_t = t;
          }
          ++w.count;
          break;
        }
        case TracePoint::kInterposeCharge: {
          ++report.contention_charges;
          report.total_charge_ns += static_cast<std::int64_t>(e.arg1);
          if (!fold_contention_) break;
          const std::size_t p = find(e.source);
          if (p == params_.size()) break;
          // Shift applies to admissions *after* this one (the hypervisor
          // accumulates it at commit, after the batch's monitor checks);
          // the charge extends this admission's own span.
          windows[p].acc_shift_ns += static_cast<std::int64_t>(e.arg0);
          windows[p].pending_charge_ns = static_cast<std::int64_t>(e.arg1);
          break;
        }
        case TracePoint::kInterposeEnter: {
          span.open = true;
          span.preempted = false;
          span.source = e.source;
          span.enter_ns = e.time_ns;
          span.allow_extra_ns = 0;
          const std::size_t p = find(e.source);
          if (p != params_.size()) {
            span.allow_extra_ns = windows[p].pending_charge_ns;
            windows[p].pending_charge_ns = 0;
          }
          break;
        }
        case TracePoint::kInterposeReturn:
        case TracePoint::kInterposeExitDeferred:
          close_span(e.time_ns);
          break;
        default:
          // Any hypervisor work inside the span (preempting top handlers, the
          // monitor they trigger, a TDMA tick) inflates its wall-clock beyond
          // what Eq. 14 attributes to this interposition -- exclude the span.
          if (span.open && (e.category == TraceCategory::kTopHandler ||
                            e.category == TraceCategory::kMonitor ||
                            e.category == TraceCategory::kScheduler)) {
            span.preempted = true;
          }
          break;
      }
    }
  }
  return report;
}

void OracleReport::write(std::ostream& out) const {
  out << "interference oracle: " << interpositions << " interpositions, "
      << windows_checked << " windows checked (worst admitted/bound "
      << worst_ratio << "), " << spans_checked << " spans checked ("
      << preempted_spans << " preempted, worst cost " << max_interposition_ns
      << " ns)";
  if (contention_charges > 0) {
    out << ", " << contention_charges << " contention charges folded ("
        << total_charge_ns << " ns)";
  }
  if (!unchecked_sources.empty()) {
    out << "; " << unchecked_interpositions
        << " interpositions unchecked (no delta^- bound for source"
        << (unchecked_sources.size() == 1 ? "" : "s");
    for (std::size_t i = 0; i < unchecked_sources.size(); ++i) {
      out << (i == 0 ? " " : ", ") << unchecked_sources[i];
    }
    out << ")";
  } else if (ok()) {
    out << " -- all within I(dt) = ceil(dt/d_min) * C'_BH\n";
    return;
  }
  out << "\n";
  for (const auto& v : violations) {
    out << "  VIOLATION source " << v.source << ": " << v.admitted
        << " admissions in [" << v.window_start_ns << ", " << v.window_end_ns
        << "] ns (indices " << v.first_index << ".." << v.last_index
        << ") exceed bound " << v.bound << "\n";
  }
  for (const auto& v : cost_violations) {
    out << "  COST VIOLATION source " << v.source << ": interposition ["
        << v.window_start_ns << ", " << v.window_end_ns << "] ns exceeds C'_BH "
        << v.bound << " ns\n";
  }
}

}  // namespace rthv::fault
