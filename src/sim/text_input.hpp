// The one reader for numbers and INI lines in text input.
//
// Every integer, duration and INI line the repository reads -- system
// configs, fault plans, trace CSVs, campaign specs and command-line flags --
// goes through this header, so "malformed" means the same thing everywhere:
//
//  - parse_int: the whole text is one integer of type T in [lo, hi]. Base-10
//    text may carry one leading '+', or '-' for a signed T; other bases take
//    digits only. No whitespace, no prefix, nothing trailing.
//  - parse_duration: an integer count of `unit` in
//    [min_count, max_count(unit)], so the conversion to nanoseconds cannot
//    overflow. Callers name the unit in the key or flag (`_us`, `--horizon-s`).
//  - IniReader: `[name]` section headers and `key = value` pairs, one per
//    line. `#` and `;` start a comment anywhere on a line, and spaces, tabs
//    and carriage returns around names, keys and values are trimmed.
//
// The parsers return std::nullopt rather than throw: each caller words its
// own error (with its line, byte offset or flag name) and picks its own
// exception type or exit code.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

#include "sim/time.hpp"

namespace rthv::sim {

template <typename T>
[[nodiscard]] std::optional<T> parse_int(std::string_view text,
                                         T lo = std::numeric_limits<T>::min(),
                                         T hi = std::numeric_limits<T>::max(),
                                         int base = 10) {
  // from_chars takes neither '+' nor whitespace, and '-' only for signed T.
  const bool plus = base == 10 && text.starts_with('+');
  if (plus) text.remove_prefix(1);
  if (text.starts_with('-') && (plus || base != 10)) return std::nullopt;
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
  if (ec != std::errc{} || ptr != end || value < lo || value > hi) return std::nullopt;
  return value;
}

/// Largest count of `unit` whose nanosecond value fits a Duration.
[[nodiscard]] constexpr std::int64_t max_count(Duration unit) {
  return std::numeric_limits<std::int64_t>::max() / unit.count_ns();
}

[[nodiscard]] inline std::optional<Duration> parse_duration(std::string_view text,
                                                            Duration unit,
                                                            std::int64_t min_count = 0) {
  const auto count = parse_int<std::int64_t>(text, min_count, max_count(unit));
  if (!count) return std::nullopt;
  return Duration::ns(*count * unit.count_ns());
}

/// Line reader for the INI-like formats. next() skips blank and comment-only
/// lines; `Error` is constructed as Error(line, message) for an unterminated
/// section header, a line without '=', or an empty key or value.
template <typename Error>
class IniReader {
 public:
  explicit IniReader(std::istream& in) : in_(in) {}

  /// Advances to the next section header or entry; false at end of input.
  bool next() {
    while (std::getline(in_, raw_)) {
      ++line_;
      std::string_view text = raw_;
      text = trim(text.substr(0, text.find_first_of("#;")));
      if (text.empty()) continue;
      if (text.front() == '[') {
        if (text.back() != ']') throw Error(line_, "unterminated section header");
        section_ = trim(text.substr(1, text.size() - 2));
        key_ = value_ = {};
        return true;
      }
      const auto eq = text.find('=');
      if (eq == std::string_view::npos) throw Error(line_, "expected 'key = value'");
      key_ = trim(text.substr(0, eq));
      value_ = trim(text.substr(eq + 1));
      if (key_.empty() || value_.empty()) throw Error(line_, "empty key or value");
      return true;
    }
    return false;
  }

  /// 1-based number of the current line.
  [[nodiscard]] std::size_t line() const { return line_; }
  /// Whether the current line is a `[name]` header (else a `key = value`).
  [[nodiscard]] bool is_section() const { return key_.empty(); }
  /// Views into the current line; valid until the next call to next().
  [[nodiscard]] std::string_view section() const { return section_; }
  [[nodiscard]] std::string_view key() const { return key_; }
  [[nodiscard]] std::string_view value() const { return value_; }

 private:
  static std::string_view trim(std::string_view s) {
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string_view::npos) return {};
    return s.substr(begin, s.find_last_not_of(" \t\r") - begin + 1);
  }

  std::istream& in_;
  std::string raw_;
  std::size_t line_ = 0;
  std::string_view section_;
  std::string_view key_;
  std::string_view value_;
};

}  // namespace rthv::sim
