#include "ptest/sim/shared_memory.hpp"

#include <gtest/gtest.h>

namespace ptest::sim {
namespace {

TEST(SharedSramTest, ReadBackWrittenValues) {
  SharedSram sram(1024);
  sram.write<std::uint32_t>(0, 0xdeadbeef);
  sram.write<std::uint16_t>(8, 0x1234);
  EXPECT_EQ(sram.read<std::uint32_t>(0), 0xdeadbeefu);
  EXPECT_EQ(sram.read<std::uint16_t>(8), 0x1234u);
}

TEST(SharedSramTest, DefaultSizeMatchesOmap) {
  SharedSram sram;
  EXPECT_EQ(sram.size(), 250u * 1024u);
}

TEST(SharedSramTest, BoundsChecked) {
  SharedSram sram(16);
  EXPECT_THROW(sram.write<std::uint32_t>(13, 1), std::out_of_range);
  EXPECT_THROW((void)sram.read<std::uint64_t>(9), std::out_of_range);
  EXPECT_NO_THROW(sram.write<std::uint32_t>(12, 1));
}

TEST(SharedSramTest, OutOfRangeMessageNamesAccessAndSize) {
  SharedSram sram(16);
  try {
    sram.write<std::uint32_t>(13, 1);
    FAIL() << "write past the end did not throw";
  } catch (const std::out_of_range& error) {
    EXPECT_STREQ(error.what(), "SharedSram: access [13, 17) beyond size 16");
  }
  try {
    (void)sram.read<std::uint64_t>(9);
    FAIL() << "read past the end did not throw";
  } catch (const std::out_of_range& error) {
    EXPECT_STREQ(error.what(), "SharedSram: access [9, 17) beyond size 16");
  }
  // The check is against the modelled size even where nothing is
  // committed yet.
  SharedSram big;
  try {
    (void)big.read<std::uint32_t>(SharedSram::kDefaultSize - 2);
    FAIL() << "read past the default size did not throw";
  } catch (const std::out_of_range& error) {
    EXPECT_STREQ(error.what(),
                 "SharedSram: access [255998, 256002) beyond size 256000");
  }
}

TEST(SharedSramTest, UnwrittenBytesReadAsZero) {
  SharedSram sram;
  const std::size_t last_word = SharedSram::kDefaultSize - sizeof(std::uint32_t);
  EXPECT_EQ(sram.read<std::uint32_t>(0), 0u);
  EXPECT_EQ(sram.read<std::uint64_t>(SharedSram::kDefaultSize / 2), 0u);
  EXPECT_EQ(sram.read<std::uint32_t>(last_word), 0u);

  // A write commits memory up to its end; bytes on either side of it
  // still read as zero, and a read straddling the committed end sees
  // the written bytes followed by zeros.
  sram.write<std::uint16_t>(100, 0xabcd);
  EXPECT_EQ(sram.read<std::uint16_t>(100), 0xabcdu);
  EXPECT_EQ(sram.read<std::uint32_t>(96), 0u);
  EXPECT_EQ(sram.read<std::uint32_t>(102), 0u);
  EXPECT_EQ(sram.read<std::uint32_t>(100), 0xabcdu);
  EXPECT_EQ(sram.read<std::uint32_t>(last_word), 0u);

  sram.write<std::uint32_t>(last_word, 0x01020304u);
  EXPECT_EQ(sram.read<std::uint32_t>(last_word), 0x01020304u);
  EXPECT_EQ(sram.read<std::uint32_t>(last_word - 4), 0u);
  EXPECT_EQ(sram.read<std::uint16_t>(100), 0xabcdu);
}

TEST(SharedSramTest, ReservedRegionsStartZeroed) {
  SharedSram sram(512);
  const auto a = sram.reserve(40, 8);
  const auto b = sram.reserve(64, 16);
  for (std::size_t offset = a; offset + 8 <= b + 64; offset += 8) {
    EXPECT_EQ(sram.read<std::uint64_t>(offset), 0u) << offset;
  }
  sram.write<std::uint64_t>(b + 56, ~std::uint64_t{0});
  EXPECT_EQ(sram.read<std::uint64_t>(b + 56), ~std::uint64_t{0});
  EXPECT_EQ(sram.read<std::uint64_t>(b + 64), 0u);  // past the reservations
}

TEST(SharedSramTest, SizeAndAvailableFollowReservesOnly) {
  SharedSram sram;
  EXPECT_EQ(sram.size(), SharedSram::kDefaultSize);
  EXPECT_EQ(sram.available(), SharedSram::kDefaultSize);
  (void)sram.reserve(4, 4);
  (void)sram.reserve(10, 8);  // aligned to 8, ends at 18
  EXPECT_EQ(sram.size(), SharedSram::kDefaultSize);
  EXPECT_EQ(sram.available(), SharedSram::kDefaultSize - 18);
  sram.write<std::uint32_t>(SharedSram::kDefaultSize - 4, 7);  // not a reserve
  EXPECT_EQ(sram.size(), SharedSram::kDefaultSize);
  EXPECT_EQ(sram.available(), SharedSram::kDefaultSize - 18);
  // Exhaustion is judged against the modelled size.
  EXPECT_THROW((void)sram.reserve(SharedSram::kDefaultSize - 17),
               std::length_error);
  const auto rest = sram.reserve(SharedSram::kDefaultSize - 24);
  EXPECT_EQ(rest, 24u);
  EXPECT_EQ(sram.available(), 0u);
  EXPECT_EQ(sram.read<std::uint32_t>(SharedSram::kDefaultSize - 4), 7u);
}

TEST(SharedSramTest, ReserveReturnsAlignedDisjointRegions) {
  SharedSram sram(256);
  const auto a = sram.reserve(10, 8);
  const auto b = sram.reserve(20, 8);
  EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(b % 8, 0u);
  EXPECT_GE(b, a + 10);
}

TEST(SharedSramTest, ReserveExhaustionThrows) {
  SharedSram sram(64);
  (void)sram.reserve(60);
  EXPECT_THROW((void)sram.reserve(8), std::length_error);
}

TEST(SharedSramTest, ReserveRejectsBadAlignment) {
  SharedSram sram(64);
  EXPECT_THROW((void)sram.reserve(8, 3), std::invalid_argument);
  EXPECT_THROW((void)sram.reserve(8, 0), std::invalid_argument);
}

TEST(SharedSramTest, StructRoundTrip) {
  struct Pod {
    std::uint32_t a;
    std::uint16_t b;
    std::uint8_t c[2];
  };
  SharedSram sram(64);
  const Pod in{42, 7, {1, 2}};
  sram.write(16, in);
  const Pod out = sram.read<Pod>(16);
  EXPECT_EQ(out.a, 42u);
  EXPECT_EQ(out.b, 7u);
  EXPECT_EQ(out.c[1], 2u);
}

}  // namespace
}  // namespace ptest::sim
