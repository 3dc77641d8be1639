// Duplicate-pattern suppression.
//
// The paper's future work: "pTest currently does not consider the problems
// of that the replicated test patterns can reduce the effectiveness of
// pTest" (§V).  This module implements that extension: a content hash over
// the symbol sequence buckets candidates, and an exact symbol-sequence
// comparison within the bucket decides replica vs. new — so a 64-bit hash
// collision can never silently reject a genuinely new pattern.
// bench_ablation_dedup measures the effect.  A session's own n patterns
// do not go through it: core::generate_and_merge compares each candidate
// with the handful of slots it already accepted, which allocates
// nothing and rejects the same candidates.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ptest/pattern/pattern.hpp"

namespace ptest::pattern {

/// FNV-1a over the symbol sequence.
[[nodiscard]] std::uint64_t pattern_hash(
    const std::vector<pfa::SymbolId>& symbols) noexcept;

class PatternDeduper {
 public:
  /// Hash used to bucket sequences.  Injectable so tests can force
  /// collisions; equality is always decided by comparing the sequences.
  using HashFn = std::uint64_t (*)(const std::vector<pfa::SymbolId>&);

  explicit PatternDeduper(HashFn hash = &pattern_hash) noexcept
      : hash_(hash) {}

  /// True if `pattern` is new (and records it); false for a replica.
  bool insert(const TestPattern& pattern);

  [[nodiscard]] bool seen(const TestPattern& pattern) const;
  [[nodiscard]] std::size_t unique_count() const noexcept { return unique_; }
  [[nodiscard]] std::uint64_t rejected_count() const noexcept {
    return rejected_;
  }
  void clear();

  /// Filters a batch, keeping first occurrences in order.
  [[nodiscard]] std::vector<TestPattern> filter(
      std::vector<TestPattern> patterns);

 private:
  HashFn hash_;
  /// hash -> all distinct sequences sharing it (almost always one).
  std::unordered_map<std::uint64_t, std::vector<std::vector<pfa::SymbolId>>>
      buckets_;
  std::size_t unique_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace ptest::pattern
