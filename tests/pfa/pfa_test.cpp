#include "ptest/pfa/pfa.hpp"
#include "pfa/walk_probability.hpp"

#include <gtest/gtest.h>

#include <map>

namespace ptest::pfa {
namespace {

// --- Fig. 3 of the paper --------------------------------------------------
//
// PFA over (ac*d)|b with P(q0,a,q1)=0.6, P(q0,b,q2)=0.4, P(q1,c,q1)=0.3,
// P(q1,d,q2)=0.7.
struct Fig3 {
  Alphabet alphabet;
  SymbolId a, b, c, d;
  Pfa pfa;

  Fig3() : pfa(build()) {}

  Pfa build() {
    const Regex re = Regex::parse("(a c* d) | b", alphabet);
    a = alphabet.at("a");
    b = alphabet.at("b");
    c = alphabet.at("c");
    d = alphabet.at("d");
    DistributionSpec spec;
    spec.set_bigram_weight(DistributionSpec::kStartContext, a, 0.6);
    spec.set_bigram_weight(DistributionSpec::kStartContext, b, 0.4);
    spec.set_bigram_weight(a, c, 0.3);
    spec.set_bigram_weight(a, d, 0.7);
    spec.set_bigram_weight(c, c, 0.3);
    spec.set_bigram_weight(c, d, 0.7);
    // minimize=true reproduces the paper's 3-state drawing; the merged
    // "after a / after c" state resolves its weights from either context
    // (they agree here).
    return Pfa::from_regex(re, spec, alphabet, {.minimize = true});
  }
};

TEST(PfaFig3Test, HasThreeStatesAndValidates) {
  Fig3 f;
  EXPECT_EQ(f.pfa.states().size(), 3u);
  EXPECT_NO_THROW(f.pfa.validate());
}

TEST(PfaFig3Test, WordProbabilitiesMatchClosedForm) {
  Fig3 f;
  // P(b) = 0.4 ; P(a d) = 0.6*0.7 ; P(a c d) = 0.6*0.3*0.7 ; etc.
  EXPECT_NEAR(f.pfa.word_probability({f.b}), 0.4, 1e-12);
  EXPECT_NEAR(f.pfa.word_probability({f.a, f.d}), 0.42, 1e-12);
  EXPECT_NEAR(f.pfa.word_probability({f.a, f.c, f.d}), 0.126, 1e-12);
  EXPECT_NEAR(f.pfa.word_probability({f.a, f.c, f.c, f.d}), 0.0378, 1e-12);
  // Words outside the language have probability zero.
  EXPECT_DOUBLE_EQ(f.pfa.word_probability({f.a}), 0.0);
  EXPECT_DOUBLE_EQ(f.pfa.word_probability({f.b, f.b}), 0.0);
  EXPECT_DOUBLE_EQ(f.pfa.word_probability({f.c}), 0.0);
}

TEST(PfaFig3Test, LanguageTotalProbabilityIsOne) {
  Fig3 f;
  // Sum over the whole language: P(b) + sum_k P(a c^k d)
  //   = 0.4 + 0.6*0.7/(1-0.3) = 0.4 + 0.6 = 1.
  double total = f.pfa.word_probability({f.b});
  std::vector<SymbolId> word{f.a, f.d};
  for (int k = 0; k < 64; ++k) {
    total += f.pfa.word_probability(word);
    word.insert(word.begin() + 1, f.c);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PfaFig3Test, SampledFrequenciesConvergeToProbabilities) {
  Fig3 f;
  support::Rng rng(123);
  WalkOptions options;
  options.size = 64;  // large enough that every word ends naturally at accept
  std::map<std::string, int> counts;
  constexpr int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) {
    const Walk walk = f.pfa.sample(rng, options);
    ASSERT_TRUE(walk.accepted);
    counts[f.alphabet.render(walk.symbols)]++;
  }
  EXPECT_NEAR(counts["b"] / double(kTrials), 0.4, 0.01);
  EXPECT_NEAR(counts["a d"] / double(kTrials), 0.42, 0.01);
  EXPECT_NEAR(counts["a c d"] / double(kTrials), 0.126, 0.01);
}

TEST(PfaFig3Test, SampleProbabilityFieldMatchesWordProbability) {
  Fig3 f;
  support::Rng rng(5);
  WalkOptions options;
  options.size = 2;
  for (int i = 0; i < 100; ++i) {
    const Walk walk = f.pfa.sample(rng, options);
    ASSERT_TRUE(walk.accepted);
    EXPECT_NEAR(walk_probability(f.pfa, walk),
                f.pfa.word_probability(walk.symbols), 1e-12);
    ASSERT_EQ(walk.edges.size(), walk.symbols.size());
    for (std::size_t i = 0; i < walk.edges.size(); ++i) {
      EXPECT_EQ(f.pfa.flat_symbols()[walk.edges[i]], walk.symbols[i]);
    }
  }
}

// --- pCore automaton, Eq. (2) + Fig. 5 -------------------------------------
struct PcorePfa {
  Alphabet alphabet;
  Pfa pfa;

  PcorePfa() : pfa(build()) {}

  Pfa build() {
    const Regex re =
        Regex::parse("TC((TCH)* | TS TR (TCH)*)* (TD$ | TY$)", alphabet);
    DistributionSpec spec;
    const auto TC = alphabet.at("TC"), TCH = alphabet.at("TCH"),
               TS = alphabet.at("TS"), TR = alphabet.at("TR"),
               TD = alphabet.at("TD"), TY = alphabet.at("TY");
    // Fig. 5 labels (see EXPERIMENTS.md for the label->edge assignment):
    spec.set_bigram_weight(TC, TCH, 0.6);
    spec.set_bigram_weight(TC, TS, 0.2);
    spec.set_bigram_weight(TC, TD, 0.1);
    spec.set_bigram_weight(TC, TY, 0.1);
    spec.set_bigram_weight(TCH, TCH, 0.6);
    spec.set_bigram_weight(TCH, TS, 0.2);
    spec.set_bigram_weight(TCH, TD, 0.1);
    spec.set_bigram_weight(TCH, TY, 0.1);
    spec.set_bigram_weight(TS, TR, 1.0);
    spec.set_bigram_weight(TR, TCH, 0.4);
    spec.set_bigram_weight(TR, TS, 0.3);
    spec.set_bigram_weight(TR, TY, 0.2);
    spec.set_bigram_weight(TR, TD, 0.1);
    return Pfa::from_regex(re, spec, alphabet);
  }
};

TEST(PfaPcoreTest, ValidatesEq1) {
  PcorePfa f;
  EXPECT_NO_THROW(f.pfa.validate());
}

TEST(PfaPcoreTest, EveryGeneratedPatternIsLegal) {
  PcorePfa f;
  support::Rng rng(99);
  WalkOptions options;
  options.size = 12;
  for (int i = 0; i < 5000; ++i) {
    const Walk walk = f.pfa.sample(rng, options);
    ASSERT_TRUE(walk.accepted);
    ASSERT_TRUE(f.pfa.accepts(walk.symbols))
        << f.alphabet.render(walk.symbols);
    // Every lifecycle starts with TC and ends with TD or TY.
    ASSERT_EQ(walk.symbols.front(), f.alphabet.at("TC"));
    const SymbolId last = walk.symbols.back();
    ASSERT_TRUE(last == f.alphabet.at("TD") || last == f.alphabet.at("TY"));
  }
}

TEST(PfaPcoreTest, SuspendAlwaysFollowedByResume) {
  PcorePfa f;
  support::Rng rng(7);
  WalkOptions options;
  options.size = 16;
  const SymbolId TS = f.alphabet.at("TS");
  const SymbolId TR = f.alphabet.at("TR");
  for (int i = 0; i < 2000; ++i) {
    const Walk walk = f.pfa.sample(rng, options);
    for (std::size_t j = 0; j < walk.symbols.size(); ++j) {
      if (walk.symbols[j] == TS) {
        ASSERT_LT(j + 1, walk.symbols.size());
        ASSERT_EQ(walk.symbols[j + 1], TR);
      }
    }
  }
}

TEST(PfaPcoreTest, EmpiricalTransitionFrequenciesMatchFig5) {
  PcorePfa f;
  support::Rng rng(2024);
  WalkOptions options;
  options.size = 12;
  const SymbolId TC = f.alphabet.at("TC"), TCH = f.alphabet.at("TCH"),
                 TS = f.alphabet.at("TS");
  std::map<std::pair<SymbolId, SymbolId>, double> counts;
  std::map<SymbolId, double> totals;
  for (int i = 0; i < 40000; ++i) {
    const Walk walk = f.pfa.sample(rng, options);
    for (std::size_t j = 0; j + 1 < walk.symbols.size(); ++j) {
      counts[{walk.symbols[j], walk.symbols[j + 1]}] += 1.0;
      totals[walk.symbols[j]] += 1.0;
    }
  }
  EXPECT_NEAR((counts[{TC, TCH}] / totals[TC]), 0.6, 0.02);
  EXPECT_NEAR((counts[{TC, TS}] / totals[TC]), 0.2, 0.02);
  EXPECT_NEAR((counts[{TCH, TCH}] / totals[TCH]), 0.6, 0.02);
  EXPECT_NEAR((counts[{TS, f.alphabet.at("TR")}] / totals[TS]), 1.0, 1e-12);
}

TEST(PfaPcoreTest, WalkEndsAtAbsorbingAcceptWithoutRestart) {
  PcorePfa f;
  support::Rng rng(31);
  WalkOptions options;
  options.size = 20;
  options.complete_to_accept = true;
  for (int i = 0; i < 500; ++i) {
    const Walk walk = f.pfa.sample(rng, options);
    ASSERT_TRUE(walk.accepted);
    // A lifecycle may terminate early (TD/TY is absorbing); completion may
    // add at most the distance-to-accept (<= 3: ... TS -> TR -> TD).
    ASSERT_GE(walk.symbols.size(), 2u);  // at least TC + terminal
    ASSERT_LE(walk.symbols.size(), options.size + 3);
  }
}

TEST(PfaPcoreTest, RestartAtAcceptReachesRequestedSize) {
  PcorePfa f;
  support::Rng rng(33);
  WalkOptions options;
  options.size = 40;
  options.restart_at_accept = true;
  const SymbolId TC = f.alphabet.at("TC");
  const SymbolId TD = f.alphabet.at("TD");
  const SymbolId TY = f.alphabet.at("TY");
  for (int i = 0; i < 200; ++i) {
    const Walk walk = f.pfa.sample(rng, options);
    ASSERT_GE(walk.symbols.size(), options.size);
    ASSERT_TRUE(walk.accepted);
    // The pattern decomposes into complete lifecycles: every TD/TY is
    // followed by a TC (a new task), and each lifecycle is legal.
    std::vector<SymbolId> lifecycle;
    for (const SymbolId s : walk.symbols) {
      lifecycle.push_back(s);
      if (s == TD || s == TY) {
        ASSERT_TRUE(f.pfa.accepts(lifecycle))
            << f.alphabet.render(lifecycle);
        lifecycle.clear();
      } else if (lifecycle.size() == 1) {
        ASSERT_EQ(lifecycle.front(), TC);
      }
    }
    ASSERT_TRUE(lifecycle.empty());  // completion closed the last lifecycle
  }
}

TEST(PfaPcoreTest, TruncatedWalkWithoutCompletionMayBeIllegal) {
  PcorePfa f;
  support::Rng rng(77);
  WalkOptions options;
  options.size = 3;
  options.complete_to_accept = false;
  bool saw_unaccepted = false;
  for (int i = 0; i < 200 && !saw_unaccepted; ++i) {
    saw_unaccepted = !f.pfa.sample(rng, options).accepted;
  }
  EXPECT_TRUE(saw_unaccepted);
}

// --- degenerate languages ---------------------------------------------------

TEST(PfaTest, RestartAtAcceptTerminatesOnEpsilonOnlyLanguage) {
  // The empty regex denotes the ε-only language: its automaton is a
  // single dead-end accepting start state.  With restart_at_accept a
  // restart lands right back in that dead end, so the sampler must
  // detect that no progress is possible and stop instead of spinning
  // forever.
  Alphabet alphabet;
  const Regex re = Regex::parse("", alphabet);
  const Pfa pfa = Pfa::from_regex(re, DistributionSpec{}, alphabet);
  ASSERT_TRUE(pfa.states()[pfa.start()].transitions.empty());
  ASSERT_TRUE(pfa.states()[pfa.start()].accepting);

  support::Rng rng(1);
  WalkOptions options;
  options.size = 8;
  options.restart_at_accept = true;
  const Walk walk = pfa.sample(rng, options);
  EXPECT_TRUE(walk.symbols.empty());
  EXPECT_TRUE(walk.accepted);
  EXPECT_TRUE(walk.edges.empty());
}

TEST(PfaTest, RestartAtAcceptStillWorksOnProductiveLanguages) {
  // Sanity check that the dead-start guard does not disturb the normal
  // churn mode: a productive start state keeps restarting as before.
  PcorePfa f;
  support::Rng rng(17);
  WalkOptions options;
  options.size = 24;
  options.restart_at_accept = true;
  const Walk walk = f.pfa.sample(rng, options);
  EXPECT_GE(walk.symbols.size(), options.size);
}

// --- construction errors ----------------------------------------------------

TEST(PfaTest, UniformDefaultWhenSpecEmpty) {
  Alphabet alphabet;
  const Regex re = Regex::parse("a | b | c", alphabet);
  const Pfa pfa = Pfa::from_regex(re, DistributionSpec{}, alphabet);
  const auto& start = pfa.states()[pfa.start()];
  ASSERT_EQ(start.transitions.size(), 3u);
  for (const auto& t : start.transitions) {
    EXPECT_NEAR(t.probability, 1.0 / 3.0, 1e-12);
  }
}

TEST(PfaTest, ToDotIncludesProbabilities) {
  Fig3 f;
  const std::string dot = f.pfa.to_dot(f.alphabet);
  EXPECT_NE(dot.find("0.6"), std::string::npos);
  EXPECT_NE(dot.find("0.4"), std::string::npos);
}

TEST(PfaTest, PrefixProbabilityIgnoresAcceptance) {
  Fig3 f;
  EXPECT_NEAR(f.pfa.prefix_probability({f.a}), 0.6, 1e-12);
  EXPECT_NEAR(f.pfa.prefix_probability({f.a, f.c}), 0.18, 1e-12);
  EXPECT_DOUBLE_EQ(f.pfa.prefix_probability({f.d}), 0.0);
}

// Property sweep: for several seeds the sampler remains within the language.
class PfaSampleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PfaSampleSweep, AllSamplesAccepted) {
  PcorePfa f;
  support::Rng rng(GetParam());
  WalkOptions options;
  options.size = 1 + GetParam() % 30;
  for (int i = 0; i < 500; ++i) {
    const Walk walk = f.pfa.sample(rng, options);
    ASSERT_TRUE(walk.accepted);
    ASSERT_TRUE(f.pfa.accepts(walk.symbols));
    ASSERT_GT(walk_probability(f.pfa, walk), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PfaSampleSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace ptest::pfa
