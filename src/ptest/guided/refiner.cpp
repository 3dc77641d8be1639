#include "ptest/guided/refiner.hpp"

#include <stdexcept>

namespace ptest::guided {

PlanRefiner::PlanRefiner(const RefinerOptions& options) : options_(options) {
  if (options.exploration_share < 0.0 || options.exploration_share >= 1.0) {
    throw std::invalid_argument(
        "PlanRefiner: exploration_share must be in [0, 1)");
  }
  if (options.floor < 0.0 || options.floor >= 1.0) {
    throw std::invalid_argument("PlanRefiner: floor must be in [0, 1)");
  }
}

pfa::DistributionSpec PlanRefiner::refine(
    const core::CompiledTestPlan& plan,
    const std::set<std::pair<std::uint32_t, pfa::SymbolId>>& covered)
    const {
  pfa::DistributionSpec spec;
  const auto& states = plan.pfa.states();
  for (std::uint32_t state = 0; state < states.size(); ++state) {
    const auto& transitions = states[state].transitions;
    if (transitions.empty()) continue;  // absorbing accept state

    std::size_t uncovered = 0;
    for (const auto& t : transitions) {
      if (!covered.contains({state, t.symbol})) ++uncovered;
    }

    const double share = uncovered == 0 ? 0.0 : options_.exploration_share;
    const double floor =
        options_.floor / static_cast<double>(transitions.size());
    for (const auto& t : transitions) {
      double weight = (1.0 - share) * t.probability;
      if (share > 0.0 && !covered.contains({state, t.symbol})) {
        weight += share / static_cast<double>(uncovered);
      }
      if (weight < floor) weight = floor;
      spec.set_state_weight(state, t.symbol, weight);
    }
  }
  return spec;
}

}  // namespace ptest::guided
