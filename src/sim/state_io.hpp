// Flat word-stream serialization for snapshot/restore.
//
// Snapshots are consumed by the process that produced them (fork-and-mutate
// hunting, differential replay tests), never persisted across builds, so the
// format is deliberately dumb: a vector of 64-bit words, PODs memcpy'd in
// 8-byte units, every reader paired with a writer that emitted the exact
// same sequence. A span of PODs packs its elements back to back and pads
// only its end to a whole word, so a vector of one-byte tags costs one word
// per eight tags. The value of the layer is the checking: StateReader throws
// on underrun instead of silently reinterpreting a truncated stream, which
// turns a writer/reader mismatch into an immediate test failure rather than
// a subtly corrupted restore.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace rthv::sim {

/// Words a packed span of `n` T's occupies in the stream. Word-multiple
/// types skip the rounding, which keeps GCC's bounds analysis of the
/// span's memcpy exact (-Werror=stringop-overflow otherwise misfires).
template <typename T>
[[nodiscard]] constexpr std::size_t span_words(std::size_t n) {
  if constexpr (sizeof(T) % 8 == 0) {
    return n * (sizeof(T) / 8);
  } else {
    return (n * sizeof(T) + 7) / 8;
  }
}

class StateWriter {
 public:
  void u64(std::uint64_t v) { words_.push_back(v); }
  void i64(std::int64_t v) { words_.push_back(static_cast<std::uint64_t>(v)); }
  void boolean(bool b) { words_.push_back(b ? 1u : 0u); }

  /// Memcpys a trivially copyable value into ceil(sizeof(T)/8) words.
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>, "pod() needs a POD-like type");
    constexpr std::size_t kWords = (sizeof(T) + 7) / 8;
    std::array<std::uint64_t, kWords> tmp{};
    std::memcpy(tmp.data(), &v, sizeof(T));
    for (std::uint64_t w : tmp) words_.push_back(w);
  }

  /// Length-prefixed sequence of PODs.
  template <typename T>
  void pod_vec(const std::vector<T>& v) {
    u64(v.size());
    pod_span(v.data(), v.size());
  }

  template <typename T>
  void pod_span(const T* p, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>, "pod_span() needs a POD-like type");
    const std::size_t base = words_.size();
    words_.resize(base + span_words<T>(n));
    if (n > 0) std::memcpy(words_.data() + base, p, n * sizeof(T));
  }

  [[nodiscard]] const std::vector<std::uint64_t>& words() const { return words_; }
  [[nodiscard]] std::vector<std::uint64_t> take() { return std::move(words_); }

 private:
  std::vector<std::uint64_t> words_;
};

class StateReader {
 public:
  explicit StateReader(const std::vector<std::uint64_t>& words) : words_(&words) {}

  [[nodiscard]] std::uint64_t u64() { return next(); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(next()); }
  [[nodiscard]] bool boolean() { return next() != 0; }

  template <typename T>
  [[nodiscard]] T pod() {
    static_assert(std::is_trivially_copyable_v<T>, "pod() needs a POD-like type");
    constexpr std::size_t kWords = (sizeof(T) + 7) / 8;
    std::array<std::uint64_t, kWords> tmp{};
    for (std::uint64_t& w : tmp) w = next();
    // The void* cast silences -Wclass-memaccess for trivially copyable
    // types with user-provided constructors (Duration, TimePoint).
    T v{};
    std::memcpy(static_cast<void*>(&v), tmp.data(), sizeof(T));
    return v;
  }

  template <typename T>
  void pod_vec(std::vector<T>& v) {
    const std::uint64_t n = u64();
    v.resize(n);
    pod_span(v.data(), v.size());
  }

  template <typename T>
  void pod_span(T* p, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>, "pod_span() needs a POD-like type");
    const std::size_t words = span_words<T>(n);
    if (words > words_->size() - pos_) {
      throw std::out_of_range("StateReader: snapshot stream underrun");
    }
    if (n > 0) std::memcpy(static_cast<void*>(p), words_->data() + pos_, n * sizeof(T));
    pos_ += words;
  }

  /// True once every written word has been consumed -- restore paths check
  /// this to catch writers that emit more than their reader consumes.
  [[nodiscard]] bool exhausted() const { return pos_ == words_->size(); }

 private:
  std::uint64_t next() {
    if (pos_ >= words_->size()) {
      throw std::out_of_range("StateReader: snapshot stream underrun");
    }
    return (*words_)[pos_++];
  }

  const std::vector<std::uint64_t>* words_;
  std::size_t pos_ = 0;
};

}  // namespace rthv::sim
