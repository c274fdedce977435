// Coverage signal for snapshot-based adversarial campaigns (rthv_hunt).
//
// A CoverageMap is a fixed-size bitmap over *behavioral* features of one
// simulation run, distilled from the typed trace ring, the monitors'
// admission counters and the interference oracle's verdict:
//
//   region A -- trace points that fired at all (TracePoint::kCount_ bits);
//   region B -- (trace point, source) pairs for the first 16 sources, so a
//               campaign distinguishes which source reached a path;
//   region C -- per-source admission-ratio deciles (11 buckets: 0 %, (0,10],
//               ..., (90,100]), the hill-climb gradient toward patterns the
//               monitor barely admits or barely denies;
//   region D -- oracle outcome: violation / cost-violation flags plus the
//               worst admitted/bound ratio in 1/16 steps up to 2x, which
//               rewards mutants that creep toward the Eq. 14 boundary long
//               before one actually crosses it;
//   region E -- log2-bucketed worst observed bottom-handler latency.
//
// Regions A and B are fed per trace record: mark_point for one record,
// mark_points for a block of them (a hunt evaluation retains thousands),
// which sets the same bits through a table of fired (point, source) pairs.
//
// The map is plain data with a deterministic merge (bitwise or), so
// campaign workers can be merged in any fixed order and the result is
// bit-identical for any --jobs value. Nothing here feeds back into the
// simulation: coverage is observability only.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <string>

#include "obs/trace_event.hpp"

namespace rthv::obs {

class CoverageMap {
 public:
  static constexpr std::uint32_t kMaxSources = 16;
  static constexpr std::uint32_t kRatioBuckets = 11;   // 0% + ten deciles
  static constexpr std::uint32_t kWorstRatioBuckets = 33;  // [0, 2x] in 1/16 steps
  static constexpr std::uint32_t kLatencyBuckets = 32;     // log2 ns

  static constexpr std::uint32_t kPointBits =
      static_cast<std::uint32_t>(TracePoint::kCount_);
  static constexpr std::uint32_t kRegionA = 0;
  static constexpr std::uint32_t kRegionB = kRegionA + kPointBits;
  static constexpr std::uint32_t kRegionC = kRegionB + kPointBits * kMaxSources;
  static constexpr std::uint32_t kRegionD = kRegionC + kMaxSources * kRatioBuckets;
  static constexpr std::uint32_t kRegionE = kRegionD + 2 + kWorstRatioBuckets;
  static constexpr std::uint32_t kBits = kRegionE + kLatencyBuckets;
  static constexpr std::uint32_t kWords = (kBits + 63) / 64;

  void set(std::uint32_t bit) {
    words_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
  [[nodiscard]] bool test(std::uint32_t bit) const {
    return (words_[bit >> 6] >> (bit & 63)) & 1;
  }

  // --- feature feeders -------------------------------------------------------

  /// Marks one trace record: its point in region A and, for the first
  /// kMaxSources sources, its (point, source) pair in region B. Points at or
  /// past kPointBits set nothing (see mark_points).
  void mark_point(TracePoint point, std::uint32_t source) {
    const auto p = static_cast<std::uint32_t>(point);
    if (p >= kPointBits) return;
    set(kRegionA + p);
    if (source < kMaxSources) set(kRegionB + source * kPointBits + p);
  }

  /// Marks every record of `events`; sets exactly the bits a mark_point
  /// call per record would. The walk does one plain byte store per record
  /// into a local fired table, one row per source plus a last row for
  /// sources >= kMaxSources and kNoId (region A only, as in mark_point);
  /// each fired (point, row) pair is then marked once. A per-record
  /// mark_point would instead chain two read-modify-writes through the
  /// same few bitmap words on every record.
  ///
  /// A point byte at or past kPointBits cannot come from an emit site
  /// (every RTHV_TRACE names a TracePoint enumerator below kCount_), but a
  /// hand-built record or a corrupt checkpoint stream -- TraceRing's
  /// restore_state does not validate records -- can carry one. It is
  /// skipped here as in mark_point: it would index past the table, and as a
  /// bit offset it would land in an unrelated region.
  void mark_points(std::span<const TraceEvent> events) {
    std::array<std::uint8_t, (kMaxSources + 1) * kPointBits> fired{};
    for (const TraceEvent& e : events) {
      const auto p = static_cast<std::uint32_t>(e.point);
      if (p >= kPointBits) continue;
      fired[std::min(e.source, kMaxSources) * kPointBits + p] = 1;
    }
    for (std::uint32_t row = 0; row <= kMaxSources; ++row) {
      for (std::uint32_t p = 0; p < kPointBits; ++p) {
        if (fired[row * kPointBits + p] != 0) {
          mark_point(static_cast<TracePoint>(p), row);
        }
      }
    }
  }

  /// Admission ratio of one monitored source over the whole run.
  void mark_admission_ratio(std::uint32_t source, std::uint64_t admitted,
                            std::uint64_t observed) {
    if (source >= kMaxSources || observed == 0) return;
    std::uint32_t bucket = 0;
    if (admitted > 0) {
      bucket = 1 + static_cast<std::uint32_t>((admitted * 10 - 1) / observed);
      if (bucket >= kRatioBuckets) bucket = kRatioBuckets - 1;
    }
    set(kRegionC + source * kRatioBuckets + bucket);
  }

  /// Oracle verdict features: the two violation flags and the worst
  /// admitted/bound window ratio quantized to 1/16 up to 2x.
  void mark_oracle(bool violations, bool cost_violations, double worst_ratio) {
    if (violations) set(kRegionD + 0);
    if (cost_violations) set(kRegionD + 1);
    if (worst_ratio > 0.0) {
      auto bucket = static_cast<std::uint32_t>(worst_ratio * 16.0);
      if (bucket >= kWorstRatioBuckets) bucket = kWorstRatioBuckets - 1;
      set(kRegionD + 2 + bucket);
    }
  }

  /// Worst observed bottom-handler latency (log2 bucket of nanoseconds).
  void mark_max_latency(std::int64_t latency_ns) {
    if (latency_ns <= 0) return;
    auto bucket = static_cast<std::uint32_t>(
        std::bit_width(static_cast<std::uint64_t>(latency_ns)));
    if (bucket >= kLatencyBuckets) bucket = kLatencyBuckets - 1;
    set(kRegionE + bucket);
  }

  // --- campaign plumbing -----------------------------------------------------

  /// Ors `other` into this map; returns true iff any new bit appeared (the
  /// keep-this-mutant signal).
  bool merge(const CoverageMap& other) {
    std::uint64_t gained = 0;
    for (std::uint32_t i = 0; i < kWords; ++i) {
      gained |= other.words_[i] & ~words_[i];
      words_[i] |= other.words_[i];
    }
    return gained != 0;
  }

  [[nodiscard]] std::uint32_t count() const {
    std::uint32_t n = 0;
    for (const std::uint64_t w : words_) {
      n += static_cast<std::uint32_t>(std::popcount(w));
    }
    return n;
  }

  [[nodiscard]] bool operator==(const CoverageMap& other) const {
    return words_ == other.words_;
  }

  /// Stable hex rendering (word 0 first) for logs and determinism checks.
  [[nodiscard]] std::string to_hex() const {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    out.reserve(kWords * 16);
    for (const std::uint64_t w : words_) {
      for (int shift = 60; shift >= 0; shift -= 4) {
        out.push_back(kDigits[(w >> shift) & 0xf]);
      }
    }
    return out;
  }

 private:
  std::array<std::uint64_t, kWords> words_{};
};

}  // namespace rthv::obs
