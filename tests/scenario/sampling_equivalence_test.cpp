// Sampling-equivalence suite: the SoA threshold-table sampler behind
// Pfa::sample_into must be indistinguishable from the legacy
// linear-scan sampler — same walks, same RNG draw count — for every
// plan in the built-in scenario catalog and for adversarial weight
// sets chosen to sit on rounding boundaries.
//
// The reference implementation below is the pre-SoA sampler verbatim
// (per-step weight vector + Rng::weighted_index subtraction scan,
// including the per-step closer-edge masking of complete_to_accept),
// rebuilt from the public Pfa surface.  Any divergence — a different
// pick, a different number of uniforms consumed, a different
// restart/termination decision — fails loudly here long before it
// would surface as a golden-fingerprint mismatch.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ptest/core/test_plan.hpp"
#include "ptest/pfa/pfa.hpp"
#include "ptest/scenario/registry.hpp"
#include "ptest/support/rng.hpp"
#include "pfa/walk_probability.hpp"

namespace ptest {
namespace {

/// What the legacy Pfa::sample returned: the walk and the product of its
/// transition probabilities, multiplied as it sampled.
struct ReferenceWalk {
  pfa::Walk walk;
  double probability = 1.0;
};

/// The legacy Pfa::sample, reimplemented against the public API.
ReferenceWalk reference_sample(const pfa::Pfa& pfa, support::Rng& rng,
                               const pfa::WalkOptions& options) {
  const auto& states = pfa.states();
  const std::vector<std::uint32_t> accept_distance =
      pfa.dfa().distance_to_accept();

  ReferenceWalk result;
  pfa::Walk& walk = result.walk;
  pfa::StateId current = pfa.start();

  std::vector<double> weights;
  const auto step_random = [&](const pfa::PfaState& state) {
    weights.clear();
    for (const pfa::PfaTransition& t : state.transitions) {
      weights.push_back(t.probability);
    }
    const std::size_t pick = rng.weighted_index(weights);
    const pfa::PfaTransition& t = state.transitions[pick];
    walk.symbols.push_back(t.symbol);
    walk.edges.push_back(pfa.offsets()[current] +
                         static_cast<std::uint32_t>(pick));
    result.probability *= t.probability;
    current = t.target;
  };

  while (walk.symbols.size() < options.size) {
    const pfa::PfaState& state = states[current];
    if (state.transitions.empty()) {  // dead-end accepting state
      if (!options.restart_at_accept) break;
      if (states[pfa.start()].transitions.empty()) break;
      current = pfa.start();
      continue;
    }
    step_random(state);
  }

  if (options.complete_to_accept) {
    while (!states[current].accepting &&
           walk.symbols.size() < pfa::kMaxWalkSize) {
      const pfa::PfaState& state = states[current];
      weights.clear();
      double mass = 0.0;
      for (const pfa::PfaTransition& t : state.transitions) {
        const bool closer =
            accept_distance[t.target] + 1 == accept_distance[current];
        weights.push_back(closer ? t.probability : 0.0);
        mass += weights.back();
      }
      if (!(mass > 0.0)) break;
      const std::size_t pick = rng.weighted_index(weights);
      const pfa::PfaTransition& t = state.transitions[pick];
      walk.symbols.push_back(t.symbol);
      walk.edges.push_back(pfa.offsets()[current] +
                           static_cast<std::uint32_t>(pick));
      result.probability *= t.probability;
      current = t.target;
    }
  }
  walk.accepted = states[current].accepting;
  return result;
}

/// Asserts reference, sample(), and sample_into() agree on the walk AND
/// on the number of raw RNG values consumed (the stream-position check:
/// the next raw draw after sampling must match across all three).
void expect_equivalent(const pfa::Pfa& pfa, std::uint64_t seed,
                       const pfa::WalkOptions& options,
                       const std::string& label) {
  support::Rng ref_rng(seed);
  support::Rng cdf_rng(seed);
  support::Rng into_rng(seed);

  const ReferenceWalk legacy = reference_sample(pfa, ref_rng, options);
  const pfa::Walk& reference = legacy.walk;
  const pfa::Walk via_sample = pfa.sample(cdf_rng, options);
  pfa::Walk via_into;
  pfa::WalkScratch scratch;
  pfa.sample_into(via_into, scratch, into_rng, options);

  EXPECT_EQ(via_sample.symbols, reference.symbols) << label;
  EXPECT_EQ(via_sample.edges, reference.edges) << label;
  EXPECT_EQ(via_sample.accepted, reference.accepted) << label;
  // Both multiply the identical picks in the identical order, so the
  // probability product must be bit-equal, not just close.
  EXPECT_EQ(pfa::walk_probability(pfa, via_sample), legacy.probability)
      << label;

  EXPECT_EQ(via_into.symbols, via_sample.symbols) << label;
  EXPECT_EQ(via_into.edges, via_sample.edges) << label;
  EXPECT_EQ(via_into.accepted, via_sample.accepted) << label;
  EXPECT_EQ(pfa::walk_probability(pfa, via_into),
            pfa::walk_probability(pfa, via_sample))
      << label;

  const std::uint64_t ref_next = ref_rng.next();
  EXPECT_EQ(cdf_rng.next(), ref_next) << label << ": draw count diverged";
  EXPECT_EQ(into_rng.next(), ref_next) << label << ": draw count diverged";
}

TEST(SamplingEquivalence, EveryCatalogPlanOverSeedSweep) {
  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::builtin();
  ASSERT_FALSE(registry.empty());
  for (const scenario::Scenario& entry : registry.all()) {
    const core::CompiledTestPlanPtr plan = core::compile(entry.config);
    for (std::uint64_t k = 0; k < 8; ++k) {
      const std::uint64_t seed = support::derive_seed(entry.config.seed, k);
      expect_equivalent(plan->pfa, seed, plan->walk_options,
                        entry.name + " seed#" + std::to_string(k));
    }
  }
}

TEST(SamplingEquivalence, CatalogPlansUnderFlippedWalkModes) {
  // The catalog mostly runs complete_to_accept; flip both mode bits so
  // the masked table, the restart path, and the batched phase-1 loop all
  // see every plan.
  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::builtin();
  for (const scenario::Scenario& entry : registry.all()) {
    const core::CompiledTestPlanPtr plan = core::compile(entry.config);
    for (const bool complete : {false, true}) {
      for (const bool restart : {false, true}) {
        pfa::WalkOptions options = plan->walk_options;
        options.complete_to_accept = complete;
        options.restart_at_accept = restart;
        expect_equivalent(
            plan->pfa, entry.config.seed, options,
            entry.name + (complete ? "+complete" : "-complete") +
                (restart ? "+restart" : "-restart"));
      }
    }
  }
}

TEST(SamplingEquivalence, AdversarialWeightsStressThePickBoundaries) {
  // Weights spanning 17 orders of magnitude: after normalization the
  // subtraction scan's partial sums round at nearly every step, so a
  // naive prefix-sum CDF would disagree on boundary draws.  The
  // threshold table must reproduce the scan on all of them.
  pfa::Alphabet alphabet;
  const pfa::Regex re =
      pfa::Regex::parse("(a | b | c | d | e)* f", alphabet);
  pfa::DistributionSpec spec;
  spec.set_symbol_weight(alphabet.at("a"), 0.1);
  spec.set_symbol_weight(alphabet.at("b"), 1e-17);
  spec.set_symbol_weight(alphabet.at("c"), 0.3 - 0.1 - 0.1);  // 0.09999...
  spec.set_symbol_weight(alphabet.at("d"), 7e16);
  spec.set_symbol_weight(alphabet.at("e"), 0.1 + 1e-16);
  spec.set_symbol_weight(alphabet.at("f"), 1e-3);
  const pfa::Pfa pfa = pfa::Pfa::from_regex(re, spec, alphabet);

  pfa::WalkOptions options;
  options.size = 24;
  for (std::uint64_t seed = 0; seed < 512; ++seed) {
    expect_equivalent(pfa, seed, options,
                      "adversarial seed#" + std::to_string(seed));
  }
}

TEST(SamplingEquivalence, SampleIntoReusesTheWalkBuffers) {
  pfa::Alphabet alphabet;
  const pfa::Regex re = pfa::Regex::parse("(a b)* c", alphabet);
  const pfa::Pfa pfa =
      pfa::Pfa::from_regex(re, pfa::DistributionSpec{}, alphabet);

  pfa::WalkOptions options;
  options.size = 16;
  pfa::Walk walk;
  pfa::WalkScratch scratch;
  support::Rng rng(7);
  pfa.sample_into(walk, scratch, rng, options);
  // The first walk sized the buffers for the longest walk: 16 symbols
  // and the one-symbol steering tail to the accepting state.
  EXPECT_GE(walk.symbols.capacity(), 17u);
  EXPECT_GE(walk.edges.capacity(), 17u);
  const pfa::SymbolId* symbols = walk.symbols.data();
  const std::uint32_t* edges = walk.edges.data();
  for (int i = 0; i < 32; ++i) {
    pfa.sample_into(walk, scratch, rng, options);
    ASSERT_FALSE(walk.empty());
    // So no later walk may reallocate them: the walk is written in
    // place, not rebuilt.
    EXPECT_EQ(walk.symbols.data(), symbols);
    EXPECT_EQ(walk.edges.data(), edges);
    EXPECT_EQ(walk.size(), walk.edges.size());
  }
}

}  // namespace
}  // namespace ptest
