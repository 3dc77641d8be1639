// PlanRefiner — re-weights a compiled plan's distributions toward
// uncovered PFA transitions.
//
// Algorithm 1 samples from a PFA whose probabilities are fixed up front;
// the paper's §V leaves open "the influence of probability distributions
// on the generation of test patterns" and never verifies fault coverage.
// The refiner is the feedback half of that loop: given what a campaign
// has already covered (pattern::CoverageTracker / CoverageCorpus), it
// produces a DistributionSpec whose per-state weights shift an
// exploration share of each state's probability mass onto that state's
// still-uncovered outgoing edges:
//
//   w(s, a) = (1 - e) * p(s, a) + [uncovered(s, a)] * e / U(s)
//
// where e = exploration_share, U(s) = number of uncovered edges at s,
// and p(s, a) is the plan's current probability of the edge.  States with no uncovered edges keep their current distribution
// verbatim.  A small floor keeps every edge samplable, and the PFA
// constructor's per-state normalization (Eq. 1) restores probabilities.
//
// refine() is a pure function of (plan, covered set, options): guided
// campaigns stay bit-deterministic because identical corpora produce
// identical refined specs — the property the corpus round-trip test
// pins.
#pragma once

#include <set>
#include <utility>

#include "ptest/core/test_plan.hpp"
#include "ptest/pfa/distribution.hpp"

namespace ptest::guided {

struct RefinerOptions {
  /// Share of each state's probability mass redistributed (uniformly)
  /// over that state's uncovered edges.  0 = no-op, must stay < 1.
  double exploration_share = 0.5;
  /// Minimum weight any edge keeps, as a fraction of its state's uniform
  /// share — refined plans may bias hard, but never starve an edge.
  double floor = 0.05;
};

class PlanRefiner {
 public:
  explicit PlanRefiner(const RefinerOptions& options);

  /// Builds the refined spec for `plan` given the covered (state,
  /// symbol) pairs.
  [[nodiscard]] pfa::DistributionSpec refine(
      const core::CompiledTestPlan& plan,
      const std::set<std::pair<std::uint32_t, pfa::SymbolId>>& covered)
      const;

 private:
  RefinerOptions options_;
};

}  // namespace ptest::guided
