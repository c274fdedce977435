#include "stats/latency_recorder.hpp"

#include <cassert>
#include <ostream>

namespace rthv::stats {

std::string_view to_string(HandlingClass c) {
  switch (c) {
    case HandlingClass::kDirect: return "direct";
    case HandlingClass::kInterposed: return "interposed";
    case HandlingClass::kDelayed: return "delayed";
    case HandlingClass::kDirectHw: return "direct-hw";
    case HandlingClass::kCount_: break;
  }
  return "?";
}

void LatencyRecorder::record(HandlingClass cls, sim::Duration latency) {
  assert(cls != HandlingClass::kCount_);
  all_.add(latency);
  classes_.push_back(cls);
  ++counts_[static_cast<std::size_t>(cls)];
}

void LatencyRecorder::merge(const LatencyRecorder& other) {
  all_.merge(other.all_);
  classes_.insert(classes_.end(), other.classes_.begin(), other.classes_.end());
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

Summary LatencyRecorder::of(HandlingClass cls) const {
  assert(cls != HandlingClass::kCount_);
  Summary out;
  const auto& samples = all_.samples();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (classes_[i] == cls) out.add(samples[i]);
  }
  return out;
}

double LatencyRecorder::fraction(HandlingClass cls) const {
  if (total() == 0) return 0.0;
  return static_cast<double>(count(cls)) / static_cast<double>(total());
}

void LatencyRecorder::write_summary(std::ostream& os) const {
  // The reserved direct-hw column always reads 0; it stays because the line
  // is a committed output format.
  for (auto cls : {HandlingClass::kDirect, HandlingClass::kInterposed,
                   HandlingClass::kDelayed, HandlingClass::kDirectHw}) {
    os << to_string(cls) << " " << fraction(cls) * 100.0 << "% (" << count(cls) << ")";
    if (count(cls) > 0) {
      os << " avg " << of(cls).mean().as_us() << "us";
    }
    os << " | ";
  }
  if (total() > 0) {
    os << "overall avg " << all_.mean().as_us() << "us, max " << all_.max().as_us()
       << "us over " << total() << " IRQs";
  } else {
    os << "no IRQs recorded";
  }
  os << "\n";
}

}  // namespace rthv::stats
