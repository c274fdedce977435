#include "stats/export.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "obs/exporters.hpp"
#include "sim/time.hpp"

namespace rthv::stats {

namespace {

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write file: " + path);
  return os;
}

/// Lower edge of bucket `i`, in microseconds.
double bucket_lo_us(const obs::MetricsSnapshot::Histogram& h, std::size_t i) {
  return sim::Duration::ns(h.lo_ns + static_cast<std::int64_t>(i) * h.width_ns).as_us();
}

}  // namespace

void write_csv_file(const std::string& path, const std::string& header,
                    const std::vector<std::vector<std::string>>& rows) {
  auto os = open_or_throw(path);
  os << header << "\n";
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) os << ",";
      os << row[i];
    }
    os << "\n";
  }
}

void write_histogram_csv(std::ostream& os, const obs::MetricsSnapshot::Histogram& histogram) {
  os << "bin_lo_us,bin_hi_us,count\n";
  for (std::size_t i = 0; i < histogram.buckets.size(); ++i) {
    os << bucket_lo_us(histogram, i) << "," << bucket_lo_us(histogram, i + 1) << ","
       << histogram.buckets[i] << "\n";
  }
}

void write_histogram_csv(const std::string& path,
                         const obs::MetricsSnapshot::Histogram& histogram) {
  auto os = open_or_throw(path);
  write_histogram_csv(os, histogram);
}

void write_histogram_ascii(std::ostream& os, const obs::MetricsSnapshot::Histogram& histogram,
                           std::size_t max_width) {
  const auto& buckets = histogram.buckets;
  std::uint64_t peak = 0;
  for (const std::uint64_t b : buckets) peak = std::max(peak, b);
  if (peak == 0) {
    os << "(empty histogram)\n";
    return;
  }
  const double log_peak = std::log1p(static_cast<double>(peak));
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const auto bar_len = static_cast<std::size_t>(
        std::log1p(static_cast<double>(buckets[i])) / log_peak *
        static_cast<double>(max_width));
    os << "[" << bucket_lo_us(histogram, i) << ", " << bucket_lo_us(histogram, i + 1) << ") "
       << std::string(std::max<std::size_t>(bar_len, 1), '#') << " " << buckets[i] << "\n";
  }
  if (histogram.underflow > 0) os << "underflow: " << histogram.underflow << "\n";
  if (histogram.overflow > 0) os << "overflow: " << histogram.overflow << "\n";
}

void write_histogram_gnuplot(const std::string& script_path, const std::string& csv_path,
                             const std::string& title) {
  auto os = open_or_throw(script_path);
  os << "# gnuplot script -- run: gnuplot " << script_path << "\n"
     << "set datafile separator ','\n"
     << "set title '" << title << "'\n"
     << "set xlabel 'IRQ latency [us]'\n"
     << "set ylabel 'number of IRQs (log)'\n"
     << "set logscale y\n"
     << "set style fill solid 0.6\n"
     << "set boxwidth 0.9 relative\n"
     << "set key off\n"
     << "plot '" << csv_path
     << "' using (($1+$2)/2):($3 > 0 ? $3 : 1/0) skip 1 with boxes\n";
}

void write_series_gnuplot(const std::string& script_path, const std::string& csv_path,
                          const std::string& title, std::size_t num_series) {
  auto os = open_or_throw(script_path);
  os << "# gnuplot script -- run: gnuplot " << script_path << "\n"
     << "set datafile separator ','\n"
     << "set title '" << title << "'\n"
     << "set xlabel 'IRQ events'\n"
     << "set ylabel 'avg. IRQ latency [us]'\n"
     << "set key autotitle columnhead\n"
     << "plot";
  for (std::size_t i = 0; i < num_series; ++i) {
    os << (i == 0 ? " " : ", ") << "'" << csv_path << "' using 1:"
       << (i + 2) << " with lines lw 2";
  }
  os << "\n";
}

void write_chrome_trace_file(const std::string& path,
                             const std::vector<obs::TraceEvent>& events,
                             const obs::TraceMeta& meta, std::uint64_t dropped) {
  auto os = open_or_throw(path);
  obs::write_chrome_trace(os, events, meta, dropped);
}

void write_metrics_json_file(const std::string& path,
                             const obs::MetricsSnapshot& snap) {
  auto os = open_or_throw(path);
  snap.write_json(os);
}

void write_metrics_text_file(const std::string& path,
                             const obs::MetricsSnapshot& snap) {
  auto os = open_or_throw(path);
  snap.write_text(os);
}

}  // namespace rthv::stats
