// File export helpers for experiment artefacts: CSV series and gnuplot
// scripts that regenerate the paper's figures from the bench outputs, and
// renderings of the metrics' latency histograms (the paper's Fig. 6 panels
// are histograms of IRQ latencies with a broken y-axis).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"

namespace rthv::stats {

/// Writes a CSV file: `header` (one line, comma-separated) then one line
/// per row. Throws std::runtime_error if the file cannot be written.
void write_csv_file(const std::string& path, const std::string& header,
                    const std::vector<std::vector<std::string>>& rows);

/// Writes "bin_lo_us,bin_hi_us,count" rows, one per bucket (under- and
/// overflow are not rows).
void write_histogram_csv(std::ostream& os, const obs::MetricsSnapshot::Histogram& histogram);

/// Writes a histogram as CSV to a file (see the stream overload).
void write_histogram_csv(const std::string& path,
                         const obs::MetricsSnapshot::Histogram& histogram);

/// Coarse ASCII bar rendering (log-ish scaling, mirrors the paper's broken
/// y-axis readability trick), skipping empty buckets; under- and overflow
/// counts follow as their own lines when non-zero.
void write_histogram_ascii(std::ostream& os, const obs::MetricsSnapshot::Histogram& histogram,
                           std::size_t max_width = 60);

/// Emits a gnuplot script that renders a latency histogram CSV in the style
/// of the paper's Fig. 6 panels (latency on x, counts on log-y to emulate
/// the broken axis). `csv_path` is referenced relative to the script.
void write_histogram_gnuplot(const std::string& script_path, const std::string& csv_path,
                             const std::string& title);

/// Emits a gnuplot script for Fig. 7-style series: first CSV column is the
/// x axis (IRQ events), each further column one curve.
void write_series_gnuplot(const std::string& script_path, const std::string& csv_path,
                          const std::string& title, std::size_t num_series);

/// Writes a trace snapshot as Chrome trace-event JSON (load in Perfetto or
/// chrome://tracing): one track per partition plus hypervisor/monitor
/// tracks. `dropped` is recorded under "otherData".
void write_chrome_trace_file(const std::string& path,
                             const std::vector<obs::TraceEvent>& events,
                             const obs::TraceMeta& meta, std::uint64_t dropped = 0);

/// Writes a metrics snapshot as "rthv-metrics-v1" JSON.
void write_metrics_json_file(const std::string& path, const obs::MetricsSnapshot& snap);

/// Writes a metrics snapshot as a human-readable text dump.
void write_metrics_text_file(const std::string& path, const obs::MetricsSnapshot& snap);

}  // namespace rthv::stats
