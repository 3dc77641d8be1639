// The probability of a sampled walk, for the tests that check it: the
// product of the chosen transitions' probabilities, multiplied in walk
// order.  That is the product the sampler itself used to keep, so it is
// bit-identical to it.
#pragma once

#include <cstdint>

#include "ptest/pfa/pfa.hpp"

namespace ptest::pfa {

[[nodiscard]] inline double walk_probability(const Pfa& pfa,
                                             const Walk& walk) {
  double product = 1.0;
  for (const std::uint32_t edge : walk.edges) {
    product *= pfa.flat_probabilities()[edge];
  }
  return product;
}

}  // namespace ptest::pfa
