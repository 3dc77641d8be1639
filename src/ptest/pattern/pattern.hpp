// Test-pattern value types.
//
// A TestPattern is one task's service sequence sampled from the PFA
// (Algorithm 2); a MergedPattern is the interleaving of n of them produced
// by the pattern merger (Algorithm 1) — each element names the slot
// (which concurrent task) and the service symbol to issue next.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ptest/pfa/alphabet.hpp"

namespace ptest::pattern {

/// Index of a concurrent task under test (0 .. n-1), not a pCore slot id;
/// the committer maps slots to live pCore tasks at runtime.
using SlotIndex = std::uint32_t;

struct TestPattern {
  std::vector<pfa::SymbolId> symbols;
  /// The flat PFA transition that emitted each symbol (pfa::Walk::edges),
  /// which CoverageTracker::observe folds.  Only the generator fills it:
  /// a replay's per-slot projection leaves it empty.
  std::vector<std::uint32_t> edges;
  /// Probability of the sampled walk.
  double probability = 1.0;

  [[nodiscard]] bool empty() const noexcept { return symbols.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return symbols.size(); }
};

struct MergedElement {
  SlotIndex slot = 0;
  pfa::SymbolId symbol = 0;

  friend bool operator==(const MergedElement&,
                         const MergedElement&) = default;
};

struct MergedPattern {
  std::vector<MergedElement> elements;

  [[nodiscard]] std::size_t size() const noexcept { return elements.size(); }
  [[nodiscard]] bool empty() const noexcept { return elements.empty(); }

  /// Every slot's projection (its symbols in their original order) as a
  /// TestPattern, slots 0 .. the widest one named (none when empty): the
  /// per-slot patterns a replay hands the state recorder in place of the
  /// sampled ones.
  [[nodiscard]] std::vector<TestPattern> project_all() const;

  /// "slot:SYM slot:SYM ..." rendering for reports.
  [[nodiscard]] std::string render(const pfa::Alphabet& alphabet) const;
};

}  // namespace ptest::pattern
