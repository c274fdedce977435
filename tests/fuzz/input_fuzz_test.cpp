// Seeded mutation fuzz of every text-input loader.
//
// Each shipped system config (configs/*.ini), fault plan (configs/*.plan,
// tests/fault/*.plan) and a small trace CSV is mutated 2000 times
// by a deterministic mutator on sim::Xoshiro256 with fixed seeds: byte
// flips, inserts and deletes, line duplication, and splices of boundary
// numbers. Every mutant must either load or fail cleanly:
//
//  - the config and fault-plan loaders throw ConfigError / FaultPlanError
//    with line() inside the input, or std::invalid_argument for a
//    semantically invalid combination;
//  - Trace::load_csv throws std::runtime_error.
//
// Anything else -- another exception type, a crash, or (under
// tests/run_sanitized.sh, built with -fno-sanitize-recover) an overflow --
// fails the test. A mutant that loads must also save and reload to the same
// text. rthv_batch's campaign-spec parser lives in the tool; the
// sim/text_input unit tests and the `batch` rejection ctests cover it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/config_loader.hpp"
#include "fault/fault_plan.hpp"
#include "sim/random.hpp"
#include "workload/trace.hpp"

namespace rthv {
namespace {

namespace fs = std::filesystem;

constexpr int kMutantsPerInput = 2000;

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(std::string text) {
    for (std::uint64_t moves = rng_.uniform_int(1, 4); moves > 0; --moves) {
      switch (rng_.uniform_int(0, 4)) {
        case 0:  // byte flip
          if (!text.empty()) {
            text[pick(text.size())] = static_cast<char>(rng_.uniform_int(0, 255));
          }
          break;
        case 1:  // insert one syntax-relevant byte
          text.insert(pick(text.size() + 1), 1, kAlphabet[pick(kAlphabet.size())]);
          break;
        case 2:  // delete a short span
          if (!text.empty()) {
            const std::size_t at = pick(text.size());
            text.erase(at, 1 + pick(8));
          }
          break;
        case 3:
          duplicate_line(text);
          break;
        default:
          splice_number(text);
          break;
      }
    }
    return text;
  }

 private:
  static constexpr std::string_view kAlphabet = "0123456789-+ \t\r\n=[]#;x";
  static constexpr std::array<std::string_view, 7> kBoundaries = {
      "-1", "0", "4294967296", "9223372036854775807", "9223372036854775808",
      "-9223372036854775808", "18446744073709551616"};

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.uniform_int(0, n - 1));
  }

  void duplicate_line(std::string& text) {
    const std::size_t at = pick(text.size() + 1);
    const std::size_t begin = at == 0 ? 0 : text.rfind('\n', at - 1) + 1;
    const std::size_t end = std::min(text.find('\n', at), text.size());
    text.insert(begin, text.substr(begin, end - begin) + "\n");
  }

  // Replaces the digit run at (or after) a random offset with a boundary
  // number; appends one where the text has no digit after the offset.
  void splice_number(std::string& text) {
    const std::string_view number = kBoundaries[pick(kBoundaries.size())];
    std::size_t begin = text.find_first_of("0123456789", pick(text.size() + 1));
    if (begin == std::string::npos) {
      text += number;
      return;
    }
    if (begin > 0 && text[begin - 1] == '-') --begin;
    const std::size_t end = std::min(text.find_first_not_of("0123456789", begin + 1),
                                     text.size());
    text.replace(begin, end - begin, number);
  }

  sim::Xoshiro256 rng_;
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<fs::path> inputs(const fs::path& dir, std::string_view extension) {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == extension) out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Lines std::getline yields for `text`.
std::size_t line_count(const std::string& text) {
  const auto newlines = static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  return newlines + (!text.empty() && text.back() != '\n' ? 1 : 0);
}

/// Runs `load` on kMutantsPerInput mutants of every input; `load` returns
/// normally or throws one of the documented exception types.
void fuzz(const std::vector<fs::path>& files,
          const std::function<void(const std::string&)>& load) {
  ASSERT_FALSE(files.empty());
  for (std::size_t f = 0; f < files.size(); ++f) {
    const std::string original = read_file(files[f]);
    ASSERT_FALSE(original.empty()) << files[f];
    ASSERT_NO_THROW(load(original)) << files[f];
    Mutator mutator(0x5EED'0000 + f);
    for (int i = 0; i < kMutantsPerInput; ++i) {
      const std::string text = mutator.mutate(original);
      SCOPED_TRACE(files[f].filename().string() + " mutant " + std::to_string(i) + ":\n" +
                   text);
      try {
        load(text);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "unexpected exception: " << e.what();
      }
    }
  }
}

template <typename LineError>
void expect_line_inside(const LineError& e, const std::string& text) {
  EXPECT_GE(e.line(), 1u) << e.what();
  EXPECT_LE(e.line(), line_count(text)) << e.what();
}

/// Loads `text` with `load`; a loaded value must save and reload to the
/// same text (a reload failure escapes to fuzz() as unexpected).
template <typename LineError, typename Load, typename Save>
void load_and_round_trip(const std::string& text, Load load, Save save) {
  std::ostringstream saved;
  try {
    std::istringstream in(text);
    save(saved, load(in));
  } catch (const LineError& e) {
    expect_line_inside(e, text);
    return;
  } catch (const std::invalid_argument&) {
    return;
  }
  std::istringstream reread(saved.str());
  std::ostringstream resaved;
  save(resaved, load(reread));
  EXPECT_EQ(resaved.str(), saved.str());
}

TEST(InputFuzzTest, SystemConfigsLoadOrFailCleanly) {
  fuzz(inputs(RTHV_CONFIG_DIR, ".ini"), [](const std::string& text) {
    load_and_round_trip<core::ConfigError>(
        text, [](std::istream& in) { return core::load_config(in); },
        [](std::ostream& out, const core::SystemConfig& cfg) { core::save_config(out, cfg); });
  });
}

TEST(InputFuzzTest, FaultPlansLoadOrFailCleanly) {
  auto files = inputs(RTHV_CONFIG_DIR, ".plan");
  const auto more = inputs(RTHV_TESTS_DIR "/fault", ".plan");
  files.insert(files.end(), more.begin(), more.end());
  fuzz(files, [](const std::string& text) {
    load_and_round_trip<fault::FaultPlanError>(
        text, [](std::istream& in) { return fault::load_fault_plan(in); },
        [](std::ostream& out, const fault::FaultPlan& plan) {
          fault::save_fault_plan(out, plan);
        });
  });
}

TEST(InputFuzzTest, TraceCsvLoadsOrFailsCleanly) {
  fuzz(inputs(RTHV_TESTS_DIR "/fuzz", ".csv"), [](const std::string& text) {
    try {
      std::istringstream in(text);
      const auto trace = workload::Trace::load_csv(in);
      std::stringstream saved;
      trace.save_csv(saved);
      EXPECT_EQ(workload::Trace::load_csv(saved).distances(), trace.distances());
    } catch (const std::runtime_error&) {
    }
  });
}

}  // namespace
}  // namespace rthv
