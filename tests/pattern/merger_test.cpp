#include "ptest/pattern/merger.hpp"

#include <gtest/gtest.h>

namespace ptest::pattern {
namespace {

TestPattern make(std::initializer_list<pfa::SymbolId> symbols) {
  TestPattern pattern;
  pattern.symbols = symbols;
  return pattern;
}

/// Default options with `op` set.
MergerOptions options_for(MergeOp op) {
  MergerOptions options;
  options.op = op;
  return options;
}

std::vector<TestPattern> two_patterns() {
  return {make({0, 1, 2}), make({10, 11})};
}

TEST(MergerTest, SequentialConcatenates) {
  PatternMerger merger(options_for(MergeOp::kSequential), support::Rng(1));
  const MergedPattern merged = merger.merge(two_patterns());
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged.elements[0], (MergedElement{0, 0}));
  EXPECT_EQ(merged.elements[2], (MergedElement{0, 2}));
  EXPECT_EQ(merged.elements[3], (MergedElement{1, 10}));
}

TEST(MergerTest, RoundRobinAlternates) {
  PatternMerger merger(options_for(MergeOp::kRoundRobin), support::Rng(1));
  const MergedPattern merged = merger.merge(two_patterns());
  const std::vector<MergedElement> expected{
      {0, 0}, {1, 10}, {0, 1}, {1, 11}, {0, 2}};
  EXPECT_EQ(merged.elements, expected);
}

TEST(MergerTest, AllOpsPreservePerSlotOrderAndMultiset) {
  const auto patterns = two_patterns();
  for (const MergeOp op :
       {MergeOp::kSequential, MergeOp::kRoundRobin, MergeOp::kRandom,
        MergeOp::kCyclic, MergeOp::kShuffle}) {
    PatternMerger merger(options_for(op), support::Rng(7));
    const MergedPattern merged = merger.merge(patterns);
    ASSERT_EQ(merged.size(), 5u) << to_string(op);
    const std::vector<TestPattern> projected = merged.project_all();
    ASSERT_EQ(projected.size(), 2u) << to_string(op);
    EXPECT_EQ(projected[0].symbols, patterns[0].symbols) << to_string(op);
    EXPECT_EQ(projected[1].symbols, patterns[1].symbols) << to_string(op);
  }
}

TEST(MergerTest, CyclicBreaksAfterBreakSymbol) {
  // Patterns: slot0 = A TS B, slot1 = C TS D (TS = symbol 99).
  const std::vector<TestPattern> patterns{make({1, 99, 2}),
                                          make({3, 99, 4})};
  MergerOptions options;
  options.op = MergeOp::kCyclic;
  options.cyclic_break_symbols = {99};
  PatternMerger merger(options, support::Rng(1));
  const MergedPattern merged = merger.merge(patterns);
  // Round 1: slot0 runs to TS inclusive, slot1 runs to TS inclusive;
  // round 2: remainders.
  const std::vector<MergedElement> expected{
      {0, 1}, {0, 99}, {1, 3}, {1, 99}, {0, 2}, {1, 4}};
  EXPECT_EQ(merged.elements, expected);
}

TEST(MergerTest, CyclicWithoutBreakSymbolUsesMaxChunk) {
  MergerOptions options;
  options.op = MergeOp::kCyclic;
  options.max_chunk = 2;
  PatternMerger merger(options, support::Rng(1));
  const MergedPattern merged = merger.merge(two_patterns());
  // slot0 takes 2, slot1 takes 2, slot0 takes 1.
  const std::vector<MergedElement> expected{
      {0, 0}, {0, 1}, {1, 10}, {1, 11}, {0, 2}};
  EXPECT_EQ(merged.elements, expected);
}

TEST(MergerTest, CyclicMaxChunkZeroMeansUnbounded) {
  // max_chunk == 0 is documented as "unbounded chunk"; the pre-fix code
  // took it literally and emitted nothing, silently dropping every
  // symbol.  Without break symbols an unbounded chunk drains each slot
  // in one turn, i.e. the sequential concatenation.
  MergerOptions options;
  options.op = MergeOp::kCyclic;
  options.max_chunk = 0;
  PatternMerger merger(options, support::Rng(1));
  const MergedPattern merged = merger.merge(two_patterns());
  const std::vector<MergedElement> expected{
      {0, 0}, {0, 1}, {0, 2}, {1, 10}, {1, 11}};
  EXPECT_EQ(merged.elements, expected);
}

TEST(MergerTest, CyclicMaxChunkZeroStillBreaksAtBreakSymbols) {
  // Unbounded chunks still end right after a break symbol, so the
  // rotation semantics survive: slot0 runs to TS (=99), slot1 runs to
  // TS, then the remainders drain in ring order.
  const std::vector<TestPattern> patterns{make({1, 99, 2}),
                                          make({3, 99, 4})};
  MergerOptions options;
  options.op = MergeOp::kCyclic;
  options.max_chunk = 0;
  options.cyclic_break_symbols = {99};
  PatternMerger merger(options, support::Rng(1));
  const MergedPattern merged = merger.merge(patterns);
  const std::vector<MergedElement> expected{
      {0, 1}, {0, 99}, {1, 3}, {1, 99}, {0, 2}, {1, 4}};
  EXPECT_EQ(merged.elements, expected);
}

TEST(MergerTest, ShuffleIsDeterministicPerSeed) {
  PatternMerger a(options_for(MergeOp::kShuffle), support::Rng(42));
  PatternMerger b(options_for(MergeOp::kShuffle), support::Rng(42));
  EXPECT_EQ(a.merge(two_patterns()).elements,
            b.merge(two_patterns()).elements);
}

TEST(MergerTest, EmptyInputsYieldEmptyMerge) {
  PatternMerger merger(options_for(MergeOp::kRoundRobin), support::Rng(1));
  EXPECT_TRUE(merger.merge({}).empty());
  EXPECT_TRUE(merger.merge({make({}), make({})}).empty());
}

TEST(MergerTest, OpNamesRoundTrip) {
  for (const MergeOp op :
       {MergeOp::kSequential, MergeOp::kRoundRobin, MergeOp::kRandom,
        MergeOp::kCyclic, MergeOp::kShuffle}) {
    const auto parsed = merge_op_from_string(to_string(op));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, op);
  }
  EXPECT_FALSE(merge_op_from_string("bogus").has_value());
}

TEST(MergerTest, EnumerateInterleavingsCountsMultinomial) {
  // |interleavings of lengths 2 and 2| = C(4,2) = 6.
  const std::vector<TestPattern> patterns{make({0, 1}), make({2, 3})};
  const auto all = PatternMerger::enumerate_interleavings(patterns, 100);
  EXPECT_EQ(all.size(), 6u);
  // All distinct and all valid linear extensions.
  for (const auto& merged : all) {
    const std::vector<TestPattern> projected = merged.project_all();
    ASSERT_EQ(projected.size(), 2u);
    EXPECT_EQ(projected[0].symbols, patterns[0].symbols);
    EXPECT_EQ(projected[1].symbols, patterns[1].symbols);
  }
}

TEST(MergerTest, EnumerateInterleavingsHonorsLimit) {
  const std::vector<TestPattern> patterns{make({0, 1, 2}), make({3, 4, 5})};
  const auto some = PatternMerger::enumerate_interleavings(patterns, 5);
  EXPECT_EQ(some.size(), 5u);
}

// Property: random merges preserve order for arbitrary slot counts.
class MergerSweep : public ::testing::TestWithParam<int> {};

TEST_P(MergerSweep, RandomAndShufflePreserveOrders) {
  support::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<TestPattern> patterns;
  for (int slot = 0; slot < GetParam(); ++slot) {
    TestPattern pattern;
    const std::size_t len = 1 + rng.below(6);
    for (std::size_t i = 0; i < len; ++i) {
      pattern.symbols.push_back(
          static_cast<pfa::SymbolId>(slot * 100 + static_cast<int>(i)));
    }
    patterns.push_back(std::move(pattern));
  }
  for (const MergeOp op : {MergeOp::kRandom, MergeOp::kShuffle}) {
    PatternMerger merger(options_for(op), rng.fork());
    const MergedPattern merged = merger.merge(patterns);
    const std::vector<TestPattern> projected = merged.project_all();
    ASSERT_EQ(projected.size(), patterns.size());
    std::size_t total = 0;
    for (SlotIndex slot = 0; slot < patterns.size(); ++slot) {
      EXPECT_EQ(projected[slot].symbols, patterns[slot].symbols);
      total += patterns[slot].symbols.size();
    }
    EXPECT_EQ(merged.size(), total);
  }
}

INSTANTIATE_TEST_SUITE_P(SlotCounts, MergerSweep, ::testing::Range(1, 9));

// Property: a kept merger re-armed with reset() and writing into a dirty,
// reused MergedPattern gives exactly the merge a fresh merger writes into
// a fresh pattern, for every op, and draws the same random numbers doing
// it: the next merge from each, which draws again for random and shuffle,
// matches too.  Round robin, which needs no cursors, also matches the
// cursor loop it replaced.
std::vector<TestPattern> random_patterns(support::Rng& rng) {
  std::vector<TestPattern> patterns(rng.below(9));
  for (TestPattern& pattern : patterns) {
    const std::size_t length = rng.below(13);
    for (std::size_t i = 0; i < length; ++i) {
      pattern.symbols.push_back(static_cast<pfa::SymbolId>(rng.below(8)));
    }
  }
  return patterns;
}

std::vector<MergedElement> cursor_round_robin(
    const std::vector<TestPattern>& patterns) {
  std::vector<MergedElement> out;
  std::vector<std::size_t> cursor(patterns.size(), 0);
  bool emitted = true;
  while (emitted) {
    emitted = false;
    for (SlotIndex slot = 0; slot < patterns.size(); ++slot) {
      if (cursor[slot] < patterns[slot].symbols.size()) {
        out.push_back({slot, patterns[slot].symbols[cursor[slot]++]});
        emitted = true;
      }
    }
  }
  return out;
}

TEST(MergerTest, KeptMergerIntoADirtyPatternEqualsAFreshMerge) {
  support::Rng rng(0x3e26e);
  PatternMerger kept;
  MergedPattern reused;
  for (int round = 0; round < 2000; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    MergerOptions options;
    options.op = static_cast<MergeOp>(rng.below(5));
    for (std::uint64_t n = rng.below(4); n > 0; --n) {
      options.cyclic_break_symbols.push_back(
          static_cast<pfa::SymbolId>(rng.below(8)));
    }
    options.max_chunk = rng.below(5);
    const std::uint64_t seed = rng.next();
    const std::vector<TestPattern> first = random_patterns(rng);
    const std::vector<TestPattern> second = random_patterns(rng);
    // Leave junk of a random length behind from the last round.
    reused.elements.resize(reused.elements.size() + rng.below(6),
                           MergedElement{99, 99});

    PatternMerger fresh(options, support::Rng(seed));
    kept.reset(options, support::Rng(seed));
    const MergedPattern expected = fresh.merge(first);
    kept.merge_into(first, reused);
    ASSERT_EQ(reused.elements, expected.elements) << to_string(options.op);
    if (options.op == MergeOp::kRoundRobin) {
      EXPECT_EQ(expected.elements, cursor_round_robin(first));
    }
    kept.merge_into(second, reused);
    ASSERT_EQ(reused.elements, fresh.merge(second).elements)
        << to_string(options.op);
  }
}

}  // namespace
}  // namespace ptest::pattern
