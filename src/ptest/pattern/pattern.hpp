// Test-pattern value types.
//
// A TestPattern is one task's service sequence sampled from the PFA
// (Algorithm 2): the pfa::Walk that Pfa::sample_into writes in place, so
// a session's patterns are sampled straight into their slots.  A
// MergedPattern is the interleaving of n of them produced by the pattern
// merger (Algorithm 1) — each element names the slot (which concurrent
// task) and the service symbol to issue next.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ptest/pfa/alphabet.hpp"
#include "ptest/pfa/pfa.hpp"

namespace ptest::pattern {

/// Index of a concurrent task under test (0 .. n-1), not a pCore slot id;
/// the committer maps slots to live pCore tasks at runtime.
using SlotIndex = std::uint32_t;

/// One task's sampled pattern (see pfa::Walk for its fields).
using TestPattern = pfa::Walk;

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
  /// TestPattern with only `symbols` filled, slots 0 .. the widest one
  /// named (none when empty): the per-slot patterns a replay hands the
  /// state recorder in place of the sampled ones.
  [[nodiscard]] std::vector<TestPattern> project_all() const;

  /// "slot:SYM slot:SYM ..." rendering for reports.
  [[nodiscard]] std::string render(const pfa::Alphabet& alphabet) const;
};

}  // namespace ptest::pattern
