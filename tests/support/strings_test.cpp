#include "ptest/support/strings.hpp"

#include <gtest/gtest.h>

namespace ptest::support {
namespace {

TEST(StringsTest, SplitBasic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitDropsEmptyByDefault) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StringsTest, SplitKeepsEmptyWhenAsked) {
  const auto parts = split("a,,b,", ',', /*keep_empty=*/true);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitEmptyInput) {
  EXPECT_TRUE(split("", ',').empty());
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(trim("  hello\t\n"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"x"}, ", "), "x");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("pattern", "pat"));
  EXPECT_FALSE(starts_with("pat", "pattern"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(parse_double("  1.5 "), 1.5);
  EXPECT_DOUBLE_EQ(parse_double("-3"), -3.0);
  EXPECT_THROW((void)parse_double("abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("1.5x"), std::invalid_argument);
  EXPECT_THROW((void)parse_double(""), std::invalid_argument);
}

TEST(StringsTest, ParseU64) {
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64(" 0 "), 0u);
  EXPECT_THROW((void)parse_u64("-1"), std::invalid_argument);
  EXPECT_THROW((void)parse_u64("12.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_u64(""), std::invalid_argument);
}

TEST(StringsTest, Hex64RoundTripsAndParsesStrictly) {
  EXPECT_EQ(hex64(0), "0000000000000000");
  EXPECT_EQ(hex64(1), "0000000000000001");
  EXPECT_EQ(hex64(UINT64_MAX), "ffffffffffffffff");
  for (const std::uint64_t value : {std::uint64_t{0}, std::uint64_t{1},
                                    std::uint64_t{UINT64_MAX}}) {
    EXPECT_EQ(parse_hex64(hex64(value)), value);
  }
  EXPECT_EQ(parse_hex64("FfFf"), 0xffffu);  // short and mixed case are fine
  EXPECT_EQ(parse_hex64(""), std::nullopt);
  EXPECT_EQ(parse_hex64("10000000000000000"), std::nullopt);  // 17 digits
  EXPECT_EQ(parse_hex64("0x1"), std::nullopt);
  EXPECT_EQ(parse_hex64("12g"), std::nullopt);
}

}  // namespace
}  // namespace ptest::support
