// The precomputed sampling tables behind Pfa::sample_into: the SoA
// flattening, the distance-filtered (closer-edge) pick table that
// replaced the per-step weight masking of complete_to_accept, and
// sample_into matching sample draw for draw.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ptest/pfa/pfa.hpp"
#include "ptest/support/rng.hpp"
#include "pfa/walk_probability.hpp"

namespace ptest::pfa {
namespace {

/// Three accepting states at different accept-distances: the `(b a)*`
/// loop re-enters an accepting state with outgoing edges, and the
/// `(e | f) g` tail forces the completion phase to choose among two
/// closer-to-accept edges with unequal weights.
struct MultiAccept {
  Alphabet alphabet;
  Pfa pfa;

  MultiAccept() : pfa(build()) {}

  Pfa build() {
    const Regex re =
        Regex::parse("(a (b a)*) | (c d (e | f) g)", alphabet);
    DistributionSpec spec;
    spec.set_symbol_weight(alphabet.at("e"), 0.25);
    spec.set_symbol_weight(alphabet.at("f"), 0.75);
    return Pfa::from_regex(re, spec, alphabet);
  }

  std::string render(const Walk& walk) const {
    std::string out;
    for (const SymbolId symbol : walk.symbols) {
      if (!out.empty()) out += ' ';
      out += alphabet.name(symbol);
    }
    return out;
  }
};

TEST(SamplingTables, SoAViewMirrorsTheTransitionLists) {
  MultiAccept f;
  const auto& states = f.pfa.states();
  const auto& offsets = f.pfa.offsets();
  ASSERT_EQ(offsets.size(), states.size() + 1);
  EXPECT_EQ(offsets.front(), 0u);
  for (StateId s = 0; s < states.size(); ++s) {
    const auto& transitions = states[s].transitions;
    ASSERT_EQ(offsets[s + 1] - offsets[s], transitions.size());
    for (std::size_t i = 0; i < transitions.size(); ++i) {
      const std::uint32_t j = offsets[s] + static_cast<std::uint32_t>(i);
      EXPECT_EQ(f.pfa.flat_symbols()[j], transitions[i].symbol);
      EXPECT_EQ(f.pfa.flat_targets()[j], transitions[i].target);
      EXPECT_EQ(f.pfa.flat_probabilities()[j], transitions[i].probability);
    }
  }
  EXPECT_EQ(offsets.back(), f.pfa.flat_symbols().size());
}

TEST(SamplingTables, MultiAcceptHasSeveralAcceptingStates) {
  MultiAccept f;
  std::size_t accepting = 0;
  for (const PfaState& state : f.pfa.states()) {
    accepting += state.accepting ? 1 : 0;
  }
  EXPECT_EQ(accepting, 3u);  // the fixture's point: not a single sink
}

// Regression pin for the distance-filtered CDF: these exact walks were
// emitted by the legacy per-step masking implementation; the
// precomputed closer-edge table must keep emitting them byte for byte.
TEST(SamplingTables, MultiAcceptCompletionWalkIsPinned) {
  MultiAccept f;
  WalkOptions options;
  options.size = 3;

  support::Rng rng_loop(11);
  const Walk loop_walk = f.pfa.sample(rng_loop, options);
  EXPECT_EQ(f.render(loop_walk), "a b a");
  EXPECT_TRUE(loop_walk.accepted);
  EXPECT_EQ(walk_probability(f.pfa, loop_walk), 0.5);

  // This seed routes through c d, then the completion phase picks among
  // the two closer edges (e: 0.25, f: 0.75) and finishes through g.
  support::Rng rng_steer(14);
  const Walk steer_walk = f.pfa.sample(rng_steer, options);
  EXPECT_EQ(f.render(steer_walk), "c d f g");
  EXPECT_TRUE(steer_walk.accepted);
  EXPECT_EQ(walk_probability(f.pfa, steer_walk), 0.375);
}

TEST(SamplingTables, SampleMatchesSampleIntoDrawForDraw) {
  MultiAccept f;
  WalkOptions options;
  options.size = 6;
  options.restart_at_accept = true;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    support::Rng rng_wrap(seed);
    support::Rng rng_into(seed);
    const Walk wrapped = f.pfa.sample(rng_wrap, options);
    Walk direct;
    WalkScratch scratch;
    f.pfa.sample_into(direct, scratch, rng_into, options);
    EXPECT_EQ(wrapped.symbols, direct.symbols) << "seed " << seed;
    EXPECT_EQ(wrapped.edges, direct.edges) << "seed " << seed;
    EXPECT_EQ(walk_probability(f.pfa, wrapped),
              walk_probability(f.pfa, direct))
        << "seed " << seed;
    EXPECT_EQ(rng_wrap.next(), rng_into.next()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ptest::pfa
