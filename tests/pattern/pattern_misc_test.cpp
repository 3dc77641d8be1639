#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "ptest/pattern/coverage.hpp"
#include "ptest/pattern/dedup.hpp"
#include "ptest/support/rng.hpp"
#include "pfa/walk_probability.hpp"

namespace ptest::pattern {
namespace {

struct PcorePfaFixture {
  pfa::Alphabet alphabet;
  pfa::Pfa pfa;

  PcorePfaFixture() : pfa(build()) {}

  pfa::Pfa build() {
    const pfa::Regex re = pfa::Regex::parse(
        "TC((TCH)* | TS TR (TCH)*)* (TD$ | TY$)", alphabet);
    return pfa::Pfa::from_regex(re, pfa::DistributionSpec{}, alphabet);
  }
};

/// `count` patterns sampled one after another from one stream.
std::vector<TestPattern> sample(const pfa::Pfa& pfa, std::size_t size,
                                std::uint64_t seed, std::size_t count) {
  support::Rng rng(seed);
  std::vector<TestPattern> patterns;
  for (std::size_t i = 0; i < count; ++i) {
    patterns.push_back(pfa.sample(rng, {.size = size}));
  }
  return patterns;
}

TEST(SampledPatternTest, ProducesLegalPatternsOfRequestedShape) {
  PcorePfaFixture f;
  const auto patterns = sample(f.pfa, 10, 3, 50);
  ASSERT_EQ(patterns.size(), 50u);
  for (const TestPattern& pattern : patterns) {
    EXPECT_TRUE(f.pfa.accepts(pattern.symbols));
    EXPECT_GT(pfa::walk_probability(f.pfa, pattern), 0.0);
    ASSERT_EQ(pattern.edges.size(), pattern.symbols.size());
    for (std::size_t i = 0; i < pattern.edges.size(); ++i) {
      EXPECT_EQ(f.pfa.flat_symbols()[pattern.edges[i]], pattern.symbols[i]);
    }
  }
}

TEST(SampledPatternTest, DeterministicPerSeed) {
  PcorePfaFixture f;
  const auto a = sample(f.pfa, 10, 9, 20);
  const auto b = sample(f.pfa, 10, 9, 20);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].symbols, b[i].symbols);
  }
}

TEST(DedupTest, DetectsReplicas) {
  PatternDeduper deduper;
  TestPattern p1;
  p1.symbols = {1, 2, 3};
  TestPattern p2;
  p2.symbols = {1, 2, 3};
  TestPattern p3;
  p3.symbols = {1, 2, 4};
  EXPECT_TRUE(deduper.insert(p1));
  EXPECT_FALSE(deduper.insert(p2));
  EXPECT_TRUE(deduper.insert(p3));
  EXPECT_EQ(deduper.unique_count(), 2u);
  EXPECT_EQ(deduper.rejected_count(), 1u);
}

TEST(DedupTest, FilterKeepsFirstOccurrences) {
  PatternDeduper deduper;
  TestPattern a;
  a.symbols = {1};
  TestPattern b;
  b.symbols = {2};
  const auto unique = deduper.filter({a, b, a, b, a});
  EXPECT_EQ(unique.size(), 2u);
}

TEST(DedupTest, HashCollisionNeverRejectsDistinctPatterns) {
  // Force every sequence into one bucket: with a constant hash the
  // deduper must still distinguish patterns by exact symbol comparison.
  // (The default 64-bit FNV-1a makes real collisions astronomically
  // rare, which is exactly why the pre-fix hash-only deduper silently
  // dropped distinct patterns when one did occur.)
  PatternDeduper deduper(
      +[](const std::vector<pfa::SymbolId>&) -> std::uint64_t {
        return 42;
      });
  TestPattern first;
  first.symbols = {1, 2, 3};
  TestPattern second;  // distinct content, same (forced) hash
  second.symbols = {4, 5, 6};
  EXPECT_TRUE(deduper.insert(first));
  EXPECT_TRUE(deduper.insert(second));  // collision must not reject it
  EXPECT_EQ(deduper.unique_count(), 2u);
  EXPECT_EQ(deduper.rejected_count(), 0u);
  // True replicas are still caught inside the shared bucket.
  EXPECT_FALSE(deduper.insert(first));
  EXPECT_FALSE(deduper.insert(second));
  EXPECT_EQ(deduper.rejected_count(), 2u);
  EXPECT_TRUE(deduper.seen(first));
  EXPECT_TRUE(deduper.seen(second));
  TestPattern unseen;
  unseen.symbols = {7};
  EXPECT_FALSE(deduper.seen(unseen));
}

TEST(DedupTest, ClearResetsCollisionBuckets) {
  PatternDeduper deduper(
      +[](const std::vector<pfa::SymbolId>&) -> std::uint64_t {
        return 7;
      });
  TestPattern pattern;
  pattern.symbols = {9, 9};
  EXPECT_TRUE(deduper.insert(pattern));
  deduper.clear();
  EXPECT_EQ(deduper.unique_count(), 0u);
  EXPECT_FALSE(deduper.seen(pattern));
  EXPECT_TRUE(deduper.insert(pattern));
}

TEST(DedupTest, HashDiffersForPermutations) {
  EXPECT_NE(pattern_hash({1, 2, 3}), pattern_hash({3, 2, 1}));
  EXPECT_NE(pattern_hash({1}), pattern_hash({1, 1}));
  EXPECT_EQ(pattern_hash({}), pattern_hash({}));
}

TEST(DedupTest, RealisticDuplicateRateOnSmallLanguage) {
  // Short patterns over the lifecycle automaton repeat quickly; the
  // deduper must catch them (this is the waste the paper's future work
  // points at).
  PcorePfaFixture f;
  PatternDeduper deduper;
  const auto unique = deduper.filter(sample(f.pfa, 2, 11, 200));
  EXPECT_LT(unique.size(), 50u);
  EXPECT_GT(deduper.rejected_count(), 150u);
}

TEST(CoverageTest, FullCoverageAfterManyPatterns) {
  PcorePfaFixture f;
  CoverageTracker tracker(f.pfa);
  for (const TestPattern& pattern : sample(f.pfa, 12, 5, 500)) {
    tracker.observe(pattern);
  }
  const CoverageReport report = tracker.report();
  EXPECT_EQ(report.states_covered, report.states_total);
  EXPECT_EQ(report.transitions_covered, report.transitions_total);
  EXPECT_DOUBLE_EQ(report.state_coverage, 1.0);
  EXPECT_TRUE(tracker.uncovered_transitions().empty());
  EXPECT_GT(report.ngrams_observed, 5u);
}

TEST(CoverageTest, PartialCoverageReported) {
  PcorePfaFixture f;
  CoverageTracker tracker(f.pfa);
  // The shortest lifecycle, TC TD, marked pair by pair.
  const pfa::SymbolId tc = f.alphabet.at("TC");
  tracker.mark_transition(f.pfa.start(), tc);
  tracker.mark_transition(*f.pfa.dfa().run({tc}), f.alphabet.at("TD"));
  const CoverageReport report = tracker.report();
  EXPECT_LT(report.transition_coverage, 1.0);
  EXPECT_GT(report.transition_coverage, 0.0);
  EXPECT_FALSE(tracker.uncovered_transitions().empty());
}

TEST(CoverageTest, NgramKeysMustFitIn64Bits) {
  PcorePfaFixture f;  // six symbols: ids 0-5 pack into 3 bits each
  EXPECT_NO_THROW(CoverageTracker(f.pfa, 21));
  EXPECT_THROW(CoverageTracker(f.pfa, 22), std::invalid_argument);
}

TEST(CoverageTest, AbsorbRejectsNgramsItCannotPack) {
  PcorePfaFixture f;
  CoverageTracker tracker(f.pfa);
  CoverageState shorter;
  shorter.ngrams.insert({0, 1});
  EXPECT_THROW(tracker.absorb(shorter), std::invalid_argument);
  CoverageState wider;
  wider.ngrams.insert({0, 1, 8});
  EXPECT_THROW(tracker.absorb(wider), std::invalid_argument);
  CoverageState fits;
  fits.ngrams.insert({0, 1, 7});
  tracker.absorb(fits);
  EXPECT_EQ(tracker.state().ngrams, fits.ngrams);
}

TEST(CoverageTest, ReportRendersCounts) {
  PcorePfaFixture f;
  CoverageTracker tracker(f.pfa);
  const std::string text = tracker.report().to_string();
  EXPECT_NE(text.find("states"), std::string::npos);
  EXPECT_NE(text.find("transitions"), std::string::npos);
}

TEST(MergedPatternTest, RenderShowsSlotsAndSymbols) {
  pfa::Alphabet alphabet;
  const auto tc = alphabet.intern("TC");
  const auto td = alphabet.intern("TD");
  MergedPattern merged;
  merged.elements = {{0, tc}, {1, tc}, {0, td}};
  EXPECT_EQ(merged.render(alphabet), "0:TC 1:TC 0:TD");
}

}  // namespace
}  // namespace ptest::pattern
