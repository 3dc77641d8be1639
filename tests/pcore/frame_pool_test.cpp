// The coroutine frame pool: size-class reuse, the heap paths (no current
// pool, a frame past the largest class), the kernel's pool surviving
// reset(), and every catalog variant running with no fallback frame.
// Under AddressSanitizer a block back on a free list must be poisoned.
#include "ptest/pcore/frame_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <string>

#include "core/reference_session.hpp"
#include "ptest/pcore/kernel.hpp"
#include "ptest/pcore/programs.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define PTEST_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PTEST_TEST_ASAN 1
#endif
#endif
#ifdef PTEST_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace ptest::pcore {
namespace {

TEST(FramePoolTest, ReusesAFreedBlockOfTheSameClass) {
  FramePool pool;
  const FramePool::Scope scope(pool);
  void* first = FramePool::allocate(100);
  FramePool::deallocate(first);
  // 100 and 90 bytes plus the header land in the same 64-byte class.
  void* second = FramePool::allocate(90);
  EXPECT_EQ(second, first);
  EXPECT_EQ(pool.blocks(), 1u);
  void* larger = FramePool::allocate(300);
  EXPECT_NE(larger, second);
  EXPECT_EQ(pool.blocks(), 2u);
  FramePool::deallocate(second);
  FramePool::deallocate(larger);
  EXPECT_EQ(pool.blocks(), 2u);
  EXPECT_EQ(pool.fallbacks(), 0u);
}

TEST(FramePoolTest, FramesKeepTheDefaultNewAlignment) {
  FramePool pool;
  const FramePool::Scope scope(pool);
  for (std::size_t size : {1u, 47u, 48u, 49u, 500u, 1000u}) {
    void* frame = FramePool::allocate(size);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(frame) %
                  __STDCPP_DEFAULT_NEW_ALIGNMENT__,
              0u)
        << size;
    FramePool::deallocate(frame);
  }
}

TEST(FramePoolTest, NoCurrentPoolMeansTheHeap) {
  FramePool pool;
  void* frame = FramePool::allocate(100);
  EXPECT_EQ(pool.blocks(), 0u);
  {
    // A heap frame goes back to the heap whichever pool is current.
    const FramePool::Scope scope(pool);
    FramePool::deallocate(frame);
  }
  EXPECT_EQ(pool.blocks(), 0u);
  EXPECT_EQ(pool.fallbacks(), 0u);
}

TEST(FramePoolTest, AFrameLargerThanTheLargestClassFallsBackAndCounts) {
  FramePool pool;
  const FramePool::Scope scope(pool);
  const std::size_t largest = FramePool::kClassCount * FramePool::kClassBytes;
  void* frame = FramePool::allocate(largest);  // plus the header: too big
  EXPECT_EQ(pool.blocks(), 0u);
  EXPECT_EQ(pool.fallbacks(), 1u);
  FramePool::deallocate(frame);
  EXPECT_EQ(pool.fallbacks(), 1u);
}

TEST(FramePoolTest, ScopesNestAndRestore) {
  FramePool outer;
  FramePool inner;
  const FramePool::Scope outer_scope(outer);
  {
    const FramePool::Scope inner_scope(inner);
    FramePool::deallocate(FramePool::allocate(64));
  }
  FramePool::deallocate(FramePool::allocate(64));
  EXPECT_EQ(inner.blocks(), 1u);
  EXPECT_EQ(outer.blocks(), 1u);
}

#ifdef PTEST_TEST_ASAN
TEST(FramePoolTest, AFreedBlockIsPoisonedUntilReused) {
  FramePool pool;
  const FramePool::Scope scope(pool);
  auto* frame = static_cast<unsigned char*>(FramePool::allocate(200));
  EXPECT_FALSE(__asan_address_is_poisoned(frame));
  FramePool::deallocate(frame);
  EXPECT_TRUE(__asan_address_is_poisoned(frame));
  EXPECT_TRUE(__asan_address_is_poisoned(frame + 199));
  void* again = FramePool::allocate(200);
  ASSERT_EQ(again, frame);
  EXPECT_FALSE(__asan_address_is_poisoned(frame + 199));
  FramePool::deallocate(again);
}
#endif

// --- the kernel's pool ----------------------------------------------------------

/// Writes the address of a frame-resident local to `*out` on its first
/// step, then computes forever.
CoTask where_am_i(std::uintptr_t* out) {
  std::uint32_t local = 0;
  *out = reinterpret_cast<std::uintptr_t>(&local);
  for (;;) co_await compute(++local);
}

/// Keeps 4 KiB live across a suspension, so its frame is past the pool's
/// largest class.
CoTask big_frame() {
  std::array<std::uint8_t, 4096> buffer{};
  buffer[4095] = 1;
  co_await compute();
  co_return buffer[4095] == 1 ? 0u : 1u;
}

constexpr std::uint32_t kWhereId = 1;
constexpr std::uint32_t kBigId = 2;

/// Registers the two programs above; `where` receives frame addresses.
void register_programs(PcoreKernel& kernel, std::uintptr_t* where) {
  kernel.register_program(kWhereId, [where](std::uint32_t) {
    return Program{"where-am-i", where_am_i(where)};
  });
  kernel.register_program(kBigId, [](std::uint32_t) {
    return Program{"big-frame", big_frame()};
  });
}

TEST(KernelFramePool, FramesAreReusedAcrossReset) {
  sim::Soc soc;
  PcoreKernel kernel;
  soc.attach(kernel);
  std::uintptr_t where = 0;
  std::set<std::uintptr_t> first;
  for (int session = 0; session < 3; ++session) {
    SCOPED_TRACE("session " + std::to_string(session));
    soc.reset();
    kernel.reset();
    register_programs(kernel, &where);
    std::set<std::uintptr_t> frames;
    for (Priority priority = 5; priority < 8; ++priority) {
      TaskId task = kInvalidTask;
      ASSERT_EQ(kernel.task_create(kWhereId, 0, priority, task), Status::kOk);
      (void)soc.step();  // the new, highest-priority task runs a step
      frames.insert(where);
    }
    EXPECT_EQ(frames.size(), 3u);
    if (session == 0) first = frames;
    // reset() returned the frames to the pool, and the next session's
    // tasks live in the same blocks.
    EXPECT_EQ(frames, first);
    EXPECT_EQ(kernel.frames().blocks(), 3u);
  }
  EXPECT_EQ(kernel.frame_fallbacks(), 0u);
}

TEST(KernelFramePool, AnOversizedFrameGoesToTheHeapAndCounts) {
  sim::Soc soc;
  PcoreKernel kernel;
  soc.attach(kernel);
  std::uintptr_t where = 0;
  register_programs(kernel, &where);
  TaskId task = kInvalidTask;
  ASSERT_EQ(kernel.task_create(kBigId, 0, 5, task), Status::kOk);
  EXPECT_EQ(kernel.frame_fallbacks(), 1u);
  EXPECT_EQ(kernel.frames().blocks(), 0u);
  (void)soc.run(4);  // runs to a clean exit
  EXPECT_EQ(kernel.live_task_count(), 0u);
  EXPECT_FALSE(kernel.panicked());
  // The count spans the kernel's lifetime, like the pool's blocks.
  kernel.reset();
  EXPECT_EQ(kernel.frame_fallbacks(), 1u);
}

TEST(KernelFramePool, EveryCatalogVariantRunsWithoutFallbacks) {
  std::size_t variants = 0;
  core::for_each_catalog_variant([&](const core::CatalogVariant& variant) {
    SCOPED_TRACE(variant.label);
    const core::CompiledTestPlanPtr plan = core::compile(variant.config);
    pfa::WalkScratch scratch;
    core::SessionRig rig(plan->config, plan->alphabet);
    core::AdaptiveTestResult out;
    for (std::uint64_t run = 0; run < 16; ++run) {
      core::execute(*plan, support::derive_seed(variant.config.seed, run),
                    variant.setup, scratch, rig, out);
    }
    EXPECT_GT(rig.kernel().frames().blocks(), 0u);
    EXPECT_LE(rig.kernel().frames().blocks(), kMaxTasks);
    EXPECT_EQ(rig.kernel().frame_fallbacks(), 0u);
    ++variants;
  });
  EXPECT_EQ(variants, 27u);
}

}  // namespace
}  // namespace ptest::pcore
