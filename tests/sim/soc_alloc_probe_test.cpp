// Allocation probe for session setup: a global operator-new hook sums the
// bytes requested, and the suite asserts that building a default sim::Soc
// plus the bridge::Channel every session places in its SRAM stays small.
// The SRAM models 250 KiB, but a session only touches the channel rings,
// so committing (and zero-filling) the whole modelled size per SoC is the
// regression this catches.
//
// The hook is process-global, so this suite lives in its own test
// binary: mixing it into another suite would tax every test with the
// counter and make the numbers meaningless.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "ptest/bridge/channel.hpp"
#include "ptest/sim/soc.hpp"

namespace {
std::atomic<std::uint64_t> g_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ptest::sim {
namespace {

constexpr std::uint64_t kBudgetBytes = 4 * 1024;

TEST(SocAllocProbe, DefaultSocWithChannelRequestsUnderFourKiB) {
  const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
  {
    Soc soc;
    bridge::Channel channel(soc);
    const std::uint64_t requested =
        g_bytes.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(soc.sram().size(), SharedSram::kDefaultSize);
    EXPECT_LT(requested, kBudgetBytes)
        << "Soc + Channel setup requested " << requested << " bytes";
  }
}

TEST(SocAllocProbe, ChannelRingWritesAllocateNothing) {
  Soc soc;
  bridge::Channel channel(soc);
  SharedSram& sram = soc.sram();
  const std::size_t reserved = sram.size() - sram.available();
  const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
  for (std::size_t offset = 0; offset + 4 <= reserved; offset += 4) {
    sram.write<std::uint32_t>(offset, static_cast<std::uint32_t>(offset));
  }
  const std::uint64_t after = g_bytes.load(std::memory_order_relaxed);
  EXPECT_GT(reserved, 0u);
  EXPECT_EQ(after - before, 0u);
}

TEST(SocAllocProbe, FirstWriteCommitsEveryReservedRegion) {
  SharedSram sram;
  (void)sram.reserve(100);
  (void)sram.reserve(300);  // reserved extent: 404 bytes
  const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
  sram.write<std::uint8_t>(0, 1);
  const std::uint64_t first = g_bytes.load(std::memory_order_relaxed);
  sram.write<std::uint32_t>(400, 2);
  const std::uint64_t second = g_bytes.load(std::memory_order_relaxed);
  EXPECT_GE(first - before, 404u);
  EXPECT_LE(first - before, 512u);
  EXPECT_EQ(second, first);
}

TEST(SocAllocProbe, UntouchedSramCostsNothingToRead) {
  Soc soc;
  const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
  EXPECT_EQ(soc.sram().read<std::uint64_t>(SharedSram::kDefaultSize - 8), 0u);
  EXPECT_EQ(g_bytes.load(std::memory_order_relaxed) - before, 0u);
}

}  // namespace
}  // namespace ptest::sim
