// Allocation probe for the sampling hot path: a global operator-new
// hook counts heap allocations, and the suite asserts Pfa::sample_into
// performs ZERO of them once the caller's Walk and WalkScratch are warm,
// and that the coverage fold of patterns whose n-grams it has seen
// performs none.
// This is the enforceable form of the scratch-reuse API's contract — a
// regression that sneaks a per-walk allocation back in (a temporary
// vector, an accidental copy) fails here even though it would be
// invisible to the equivalence and golden suites.
//
// The hook is process-global, so this suite lives in its own test
// binary: mixing it into another suite would tax every test with the
// counter and make the numbers meaningless.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "ptest/pattern/coverage.hpp"
#include "ptest/pfa/pfa.hpp"
#include "ptest/support/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ptest::pfa {
namespace {

Pfa build_pcore_like(Alphabet& alphabet) {
  // The pCore service-lifecycle shape: a looping body plus distinct
  // terminal branches, so walks vary in length and exercise both the
  // batched emission loop and the completion steering.
  const Regex re = Regex::parse("(a (b | c) d)* (e | f g)", alphabet);
  return Pfa::from_regex(re, DistributionSpec{}, alphabet);
}

TEST(SampleAllocProbe, SampleIntoIsAllocationFreeOnceWarm) {
  Alphabet alphabet;
  const Pfa pfa = build_pcore_like(alphabet);

  WalkOptions options;
  options.size = 48;
  options.restart_at_accept = true;
  Walk walk;
  WalkScratch scratch;

  support::Rng rng(0xfeedULL);
  // Warm-up: the first walk sizes the walk's buffers for the longest walk
  // `options` allow and the scratch's uniform block.
  pfa.sample_into(walk, scratch, rng, options);

  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 256; ++i) pfa.sample_into(walk, scratch, rng, options);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "sample_into allocated on the steady-state path";
}

TEST(SampleAllocProbe, SampleWrapperAllocatesSampleIntoDoesNot) {
  Alphabet alphabet;
  const Pfa pfa = build_pcore_like(alphabet);
  WalkOptions options;
  options.size = 32;

  // The thin wrapper allocates a fresh Walk per call by design...
  support::Rng rng_wrap(7);
  (void)pfa.sample(rng_wrap, options);  // warm any lazy runtime state
  const std::uint64_t wrap_before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 64; ++i) (void)pfa.sample(rng_wrap, options);
  const std::uint64_t wrap_allocs =
      g_allocations.load(std::memory_order_relaxed) - wrap_before;
  EXPECT_GT(wrap_allocs, 0u);

  // ...which is exactly the traffic the scratch path eliminates.
  support::Rng rng_into(7);
  Walk walk;
  WalkScratch scratch;
  pfa.sample_into(walk, scratch, rng_into, options);
  const std::uint64_t into_before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 64; ++i) {
    pfa.sample_into(walk, scratch, rng_into, options);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - into_before, 0u);
}

TEST(SampleAllocProbe, WarmObserveIsAllocationFree) {
  Alphabet alphabet;
  const Pfa pfa = build_pcore_like(alphabet);
  support::Rng rng(3);
  WalkScratch scratch;
  std::vector<pattern::TestPattern> patterns(64);
  for (pattern::TestPattern& sampled : patterns) {
    pfa.sample_into(sampled, scratch, rng,
                    {.size = 12, .restart_at_accept = true});
  }
  pattern::CoverageTracker tracker(pfa);
  for (const pattern::TestPattern& sampled : patterns) {
    tracker.observe(sampled);
  }
  const std::size_t ngrams = tracker.report().ngrams_observed;
  ASSERT_GT(ngrams, 8u);

  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 4; ++round) {
    for (const pattern::TestPattern& sampled : patterns) {
      tracker.observe(sampled);
    }
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(tracker.report().ngrams_observed, ngrams);
}

}  // namespace
}  // namespace ptest::pfa
