// Allocation probe for session setup: a global operator-new hook sums the
// bytes requested, and the suite asserts that building a default sim::Soc
// plus the bridge::Channel every session places in its SRAM stays small.
// The SRAM models 250 KiB, but a session only touches the channel rings,
// so committing (and zero-filling) the whole modelled size per SoC is the
// regression this catches.  A second probe pins the trace ring: once it
// wraps, the hot trace records (bridge command, task exit, bug detected)
// reuse its slots and allocate nothing.  A call counter beside the byte
// sum pins the setup's allocation count, and two more probes pin the
// bridge's steady state: mailbox traffic and idle bridge ticks allocate
// nothing.
//
// The hook is process-global, so this suite lives in its own test
// binary: mixing it into another suite would tax every test with the
// counter and make the numbers meaningless.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "ptest/bridge/committee.hpp"
#include "ptest/master/scheduler.hpp"
#include "ptest/sim/soc.hpp"

namespace {
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_calls{0};
}  // namespace

void* operator new(std::size_t size) {
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  g_calls.fetch_add(1, std::memory_order_relaxed);
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

TEST(SocAllocProbe, SocWithChannelMakesAtMostThreeAllocations) {
  const std::uint64_t calls = g_calls.load(std::memory_order_relaxed);
  const std::uint64_t bytes = g_bytes.load(std::memory_order_relaxed);
  {
    Soc soc;
    bridge::Channel channel(soc);
    const std::uint64_t made =
        g_calls.load(std::memory_order_relaxed) - calls;
    EXPECT_LE(made, 3u) << "Soc + Channel setup made " << made
                        << " allocations ("
                        << g_bytes.load(std::memory_order_relaxed) - bytes
                        << " bytes)";
  }
}

TEST(SocAllocProbe, MailboxTrafficAllocatesNothing) {
  Soc soc;
  MailboxBank& bank = soc.mailboxes();
  const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
  std::uint64_t sum = 0;
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    Mailbox& box = bank.box(i % MailboxBank::kCount);
    ASSERT_TRUE(box.post(i, i));
    const auto word = box.take(i + 2);
    ASSERT_TRUE(word.has_value());
    sum += *word;
  }
  EXPECT_EQ(g_bytes.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(sum, 9'999u * 10'000u / 2);
}

TEST(SocAllocProbe, IdleBridgeTicksAllocateNothing) {
  Soc soc;
  bridge::Channel channel(soc);
  pcore::PcoreKernel kernel;
  bridge::Committee committee(channel, kernel);
  master::MasterScheduler master(channel);  // no threads: all done
  soc.attach(master);
  soc.attach(committee);
  ASSERT_TRUE(master.all_done());
  const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
  EXPECT_EQ(soc.run(10'000), 10'000u);
  EXPECT_EQ(g_bytes.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(committee.executed(), 0u);
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

TEST(SocAllocProbe, HotTraceEventsAllocateNothing) {
  constexpr std::uint32_t kCapacity = 4096;  // the Soc's trace ring
  Soc soc;
  // Fill the ring past its capacity so every later record reuses a slot,
  // including ones a free-text event left holding text.
  for (std::uint32_t i = 0; i < 2 * kCapacity; ++i) {
    soc.record(TraceCategory::kMaster, TraceCode::kThreadDone, "committer");
  }
  ASSERT_EQ(soc.trace().size(), kCapacity);
  const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    switch (i % 3) {
      case 0:
        soc.record(TraceCategory::kBridge,
                   command_code(static_cast<std::uint8_t>(i % 6)), i,
                   i & 0xff);
        break;
      case 1:
        soc.record(TraceCategory::kKernel, TraceCode::kTaskExit, i & 0xff, i);
        break;
      default:
        soc.record(TraceCategory::kDetector,
                   bug_code(static_cast<std::uint8_t>(i % 5)));
        break;
    }
  }
  const std::uint64_t after = g_bytes.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(soc.trace().total_recorded(), 2 * kCapacity + 10'000);
  EXPECT_EQ(soc.trace().tail(1).at(0).message(), "cmd seq=9999 TR task=15");
}

TEST(SocAllocProbe, UntouchedSramCostsNothingToRead) {
  Soc soc;
  const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
  EXPECT_EQ(soc.sram().read<std::uint64_t>(SharedSram::kDefaultSize - 8), 0u);
  EXPECT_EQ(g_bytes.load(std::memory_order_relaxed) - before, 0u);
}

}  // namespace
}  // namespace ptest::sim
