#include "mon/monitor.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/checked.hpp"

namespace rthv::mon {

Tracebuffer::Tracebuffer(std::size_t depth) : stamps_(depth) {
  if (depth == 0) throw std::invalid_argument("delta^- tracebuffer depth must be at least 1");
}

void validate_delta_vector(const DeltaVector& deltas) {
  if (deltas.empty()) throw std::invalid_argument("delta^- vector is empty");
  if (deltas[0].is_negative()) {
    throw std::invalid_argument("delta^- vector entry 0 is negative (" +
                                std::to_string(deltas[0].count_ns()) + " ns)");
  }
  for (std::size_t i = 1; i < deltas.size(); ++i) {
    if (deltas[i] < deltas[i - 1]) {
      throw std::invalid_argument(
          "delta^- vector decreases at entry " + std::to_string(i) + " (" +
          std::to_string(deltas[i].count_ns()) + " ns < " +
          std::to_string(deltas[i - 1].count_ns()) + " ns)");
    }
  }
}

Tracebuffer::Tracebuffer(const DeltaVector& deltas) : Tracebuffer(deltas.size()) {
  validate_delta_vector(deltas);
}

void Tracebuffer::snapshot_state(sim::StateWriter& w) const {
  w.pod_vec(stamps_);
  w.u64(filled_);
}

void Tracebuffer::restore_state(sim::StateReader& r) {
  r.pod_vec(stamps_);
  filled_ = r.u64();
}

DeltaVectorMonitor::DeltaVectorMonitor(DeltaVector deltas)
    : deltas_(std::move(deltas)), window_(deltas_) {}

DeltaVector scale_for_load_fraction(const DeltaVector& deltas, double fraction) {
  RTHV_PRECONDITION(fraction > 0.0 && fraction <= 1.0, "mon/load-fraction-range");
  DeltaVector out;
  out.reserve(deltas.size());
  for (const auto d : deltas) {
    // Scaled distances must stay representable: a wrapped llround would
    // produce a *smaller* (weaker) enforced distance.
    out.push_back(sim::Duration::ns(core::checked_round_ns(
        static_cast<double>(d.count_ns()) / fraction, "mon/delta-scale")));
  }
  return out;
}

}  // namespace rthv::mon
