// Edges of the one text-input reader (sim/text_input.hpp). rthv_batch's
// campaign-spec parser lives in the tool, so these cases plus the `batch`
// rejection ctests are what cover it.
#include "sim/text_input.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace rthv::sim {
namespace {

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

TEST(TextInputTest, ParseIntTakesOneWholeInteger) {
  for (const char* text : {"", "-", "+", " 1", "1 ", "0x10", "1e3", "--1", "+-1", "-+1",
                           "1.0"}) {
    EXPECT_FALSE(parse_int<std::int64_t>(text)) << "'" << text << "'";
  }
  EXPECT_EQ(parse_int<std::int64_t>("42"), 42);
  EXPECT_EQ(parse_int<std::int64_t>("+42"), 42);
  EXPECT_EQ(parse_int<std::int64_t>("-42"), -42);
  EXPECT_EQ(parse_int<std::int64_t>("007"), 7);
  EXPECT_EQ(parse_int<std::int64_t>("9223372036854775807"), kMax);
  EXPECT_EQ(parse_int<std::int64_t>("-9223372036854775808"), kMin);
  EXPECT_FALSE(parse_int<std::int64_t>("9223372036854775808"));
  EXPECT_FALSE(parse_int<std::int64_t>("-9223372036854775809"));
}

TEST(TextInputTest, ParseIntHonoursTheTypeAndTheBounds) {
  EXPECT_EQ(parse_int<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_int<std::uint64_t>("18446744073709551616"));
  EXPECT_FALSE(parse_int<std::uint64_t>("-1"));
  EXPECT_FALSE(parse_int<std::uint64_t>("-0"));
  EXPECT_EQ(parse_int<std::uint32_t>("4294967295"), 4294967295u);
  EXPECT_FALSE(parse_int<std::uint32_t>("4294967296"));
  EXPECT_EQ(parse_int<std::int32_t>("-2147483648"), std::numeric_limits<std::int32_t>::min());
  EXPECT_FALSE(parse_int<std::int32_t>("-2147483649"));
  EXPECT_FALSE(parse_int<std::size_t>("0", 1));
  EXPECT_EQ(parse_int<std::size_t>("1", 1), 1u);
  EXPECT_FALSE(parse_int<std::int64_t>("11", 0, 10));
  EXPECT_EQ(parse_int<std::int64_t>("10", 0, 10), 10);
}

TEST(TextInputTest, NonDecimalBasesTakeDigitsOnly) {
  EXPECT_EQ(parse_int<std::uint32_t>("ff", 0, 0xFFFF'FFFFu, 16), 0xFFu);
  EXPECT_EQ(parse_int<std::uint32_t>("FFFFFFFF", 0, 0xFFFF'FFFFu, 16), 0xFFFF'FFFFu);
  for (const char* text : {"", "+f", "-0", "0x10", "100000000", "g"}) {
    EXPECT_FALSE(parse_int<std::uint32_t>(text, 0, 0xFFFF'FFFFu, 16)) << text;
  }
}

TEST(TextInputTest, ParseDurationCannotOverflowNanoseconds) {
  for (const Duration unit : {Duration::ns(1), Duration::us(1), Duration::ms(1),
                              Duration::s(1)}) {
    const std::int64_t max = max_count(unit);
    EXPECT_EQ(max, kMax / unit.count_ns());
    EXPECT_EQ(parse_duration(std::to_string(max), unit), Duration::ns(max * unit.count_ns()));
    if (max < kMax) {
      EXPECT_FALSE(parse_duration(std::to_string(max + 1), unit));
    }
    EXPECT_EQ(parse_duration("0", unit), Duration::zero());
    EXPECT_FALSE(parse_duration("-1", unit));
    EXPECT_FALSE(parse_duration("0", unit, 1));
  }
  EXPECT_EQ(parse_duration("1444", Duration::us(1)), Duration::us(1444));
  EXPECT_FALSE(parse_duration("1444us", Duration::us(1)));
}

struct LineError : std::runtime_error {
  LineError(std::size_t at, const std::string& message)
      : std::runtime_error(message), line(at) {}
  std::size_t line;
};

TEST(TextInputTest, IniReaderYieldsSectionsAndEntries) {
  std::istringstream in(
      "# comment\n"
      "\n"
      "  [ storm ]  ; trailing comment\n"
      "source = 0\r\n"
      "\tdistance_us\t=\t1444 # trailing comment\n"
      "name = a=b\n");
  IniReader<LineError> ini(in);
  ASSERT_TRUE(ini.next());
  EXPECT_TRUE(ini.is_section());
  EXPECT_EQ(ini.section(), "storm");
  EXPECT_EQ(ini.line(), 3u);
  ASSERT_TRUE(ini.next());
  EXPECT_FALSE(ini.is_section());
  EXPECT_EQ(ini.key(), "source");
  EXPECT_EQ(ini.value(), "0");
  ASSERT_TRUE(ini.next());
  EXPECT_EQ(ini.key(), "distance_us");
  EXPECT_EQ(ini.value(), "1444");
  EXPECT_EQ(ini.line(), 5u);
  ASSERT_TRUE(ini.next());
  EXPECT_EQ(ini.key(), "name");
  EXPECT_EQ(ini.value(), "a=b");
  EXPECT_FALSE(ini.next());
}

TEST(TextInputTest, IniReaderRejectsMalformedLinesOnTheirLine) {
  for (const char* text : {"[storm]\n[storm\n", "[storm]\nno_equals\n", "[storm]\n= 5\n",
                           "[storm]\nkey =\n", "[storm]\nkey = ; comment only\n"}) {
    std::istringstream in(text);
    IniReader<LineError> ini(in);
    try {
      while (ini.next()) {
      }
      ADD_FAILURE() << "accepted: " << text;
    } catch (const LineError& e) {
      EXPECT_EQ(e.line, 2u) << text;
    }
  }
}

}  // namespace
}  // namespace rthv::sim
