#include "ptest/pfa/dfa.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "ptest/support/rng.hpp"

namespace ptest::pfa {
namespace {

struct Fixture {
  Alphabet alphabet;

  Dfa build(std::string_view pattern) {
    return Dfa::from_nfa(Nfa::from_regex(Regex::parse(pattern, alphabet)));
  }

  std::vector<SymbolId> word(std::initializer_list<const char*> names) {
    std::vector<SymbolId> out;
    for (const char* n : names) out.push_back(alphabet.at(n));
    return out;
  }
};

TEST(DfaTest, Fig3SubsetConstructionKeepsContextsSeparate) {
  // Subset construction keeps "after a" and "after c" distinct (different
  // bigram contexts) and merges the two accepting dead-ends: 4 states.
  Fixture f;
  const Dfa dfa = f.build("(a c* d) | b");
  EXPECT_EQ(dfa.size(), 4u);
}

TEST(DfaTest, Fig3MinimizedHasExactlyThreeStates) {
  // The paper's Fig. 3 drawing merges the language-equivalent "after a"
  // and "after c" states: full minimization reproduces its 3 states.
  Fixture f;
  const Dfa dfa = f.build("(a c* d) | b").minimized();
  EXPECT_EQ(dfa.size(), 3u);
}

TEST(DfaTest, MinimizedPreservesLanguage) {
  Fixture f;
  const Dfa dfa = f.build("TC((TCH)* | TS TR (TCH)*)* (TD$ | TY$)");
  const Dfa min = dfa.minimized();
  EXPECT_LT(min.size(), dfa.size());
  EXPECT_TRUE(min.accepts(f.word({"TC", "TD"})));
  EXPECT_TRUE(min.accepts(f.word({"TC", "TS", "TR", "TCH", "TY"})));
  EXPECT_FALSE(min.accepts(f.word({"TC", "TR", "TD"})));
  EXPECT_FALSE(min.accepts(f.word({"TC"})));
}

TEST(DfaTest, NonStartStatesHaveUniqueIncomingSymbol) {
  // Property of the Thompson-subset skeleton that makes bigram
  // distributions well-defined (see dfa.hpp).
  Fixture f;
  const Dfa dfa = f.build("TC((TCH)* | TS TR (TCH)*)* (TD$ | TY$)");
  std::vector<std::set<SymbolId>> incoming(dfa.size());
  for (StateId i = 0; i < dfa.size(); ++i) {
    for (const auto& [symbol, target] : dfa.states()[i].transitions) {
      incoming[target].insert(symbol);
    }
  }
  for (StateId i = 0; i < dfa.size(); ++i) {
    if (i == dfa.start()) continue;
    // Accepting dead-ends are merged and may take several symbols in.
    if (dfa.states()[i].transitions.empty()) continue;
    EXPECT_LE(incoming[i].size(), 1u) << "state " << i;
  }
}

TEST(DfaTest, Fig3AcceptsSameLanguageAsNfa) {
  Fixture f;
  const Regex re = Regex::parse("(a c* d) | b", f.alphabet);
  const Nfa nfa = Nfa::from_regex(re);
  const Dfa dfa = Dfa::from_nfa(nfa);
  // Exhaustive agreement over all words up to length 4.
  const std::size_t sigma = f.alphabet.size();
  std::vector<SymbolId> word;
  const std::function<void(std::size_t)> check = [&](std::size_t depth) {
    EXPECT_EQ(dfa.accepts(word), nfa.accepts(word))
        << "word: " << f.alphabet.render(word);
    if (depth == 4) return;
    for (SymbolId s = 0; s < sigma; ++s) {
      word.push_back(s);
      check(depth + 1);
      word.pop_back();
    }
  };
  check(0);
}

TEST(DfaTest, Eq2LifecycleAutomatonShape) {
  Fixture f;
  const Dfa dfa = f.build("TC((TCH)* | TS TR (TCH)*)* (TD$ | TY$)");
  // States: start, after-TC/TCH/TR (merged by behavior), after-TS, accept.
  // The automaton must be deterministic and every state must reach accept.
  const auto dist = dfa.distance_to_accept();
  for (const auto d : dist) {
    EXPECT_NE(d, std::numeric_limits<std::uint32_t>::max());
  }
  // Spot-check the language.
  EXPECT_TRUE(dfa.accepts(f.word({"TC", "TD"})));
  EXPECT_TRUE(dfa.accepts(f.word({"TC", "TS", "TR", "TCH", "TY"})));
  EXPECT_FALSE(dfa.accepts(f.word({"TC", "TS", "TS", "TD"})));
}

TEST(DfaTest, RunReportsIntermediateState) {
  Fixture f;
  const Dfa dfa = f.build("a b");
  const auto mid = dfa.run(f.word({"a"}));
  ASSERT_TRUE(mid.has_value());
  EXPECT_FALSE(dfa.states()[*mid].accepting);
  EXPECT_FALSE(dfa.run(f.word({"b"})).has_value());
}

TEST(DfaTest, DistanceToAcceptIsShortestPath) {
  Fixture f;
  const Dfa dfa = f.build("a b c");
  const auto dist = dfa.distance_to_accept();
  EXPECT_EQ(dist[dfa.start()], 3u);
}

TEST(DfaTest, EmptyRegexAcceptsOnlyEmptyWord) {
  Fixture f;
  const Dfa dfa = f.build("");
  EXPECT_TRUE(dfa.accepts({}));
  EXPECT_EQ(dfa.size(), 1u);
  EXPECT_TRUE(dfa.states()[dfa.start()].accepting);
}

TEST(DfaTest, ToDotMentionsAllStates) {
  Fixture f;
  const Dfa dfa = f.build("(a c* d) | b");
  const std::string dot = dfa.to_dot(f.alphabet);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
  EXPECT_NE(dot.find("label=\"a\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"d\""), std::string::npos);
}

// Property: DFA and NFA agree on random expressions over random words.
class DfaNfaAgreement : public ::testing::TestWithParam<int> {};

namespace {
// Generates a random regex string over a tiny alphabet.
std::string random_regex(support::Rng& rng, int depth) {
  static const char* kSymbols[] = {"a", "b", "c"};
  if (depth <= 0 || rng.chance(0.4)) {
    return kSymbols[rng.below(3)];
  }
  // Built with += (left operand drawn first): gcc 12 flags the
  // "(" + std::string&& form with a -Wrestrict false positive.
  std::string out;
  switch (rng.below(4)) {
    case 0:
      out += random_regex(rng, depth - 1);
      out += " ";
      out += random_regex(rng, depth - 1);
      return out;
    case 1:
      out += "(";
      out += random_regex(rng, depth - 1);
      out += " | ";
      out += random_regex(rng, depth - 1);
      out += ")";
      return out;
    case 2:
      out += "(";
      out += random_regex(rng, depth - 1);
      out += ")*";
      return out;
    default:
      out += "(";
      out += random_regex(rng, depth - 1);
      out += ")?";
      return out;
  }
}
}  // namespace

TEST_P(DfaNfaAgreement, RandomExpressions) {
  support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  for (int trial = 0; trial < 20; ++trial) {
    Alphabet alphabet;
    const std::string pattern = random_regex(rng, 3);
    const Regex re = Regex::parse(pattern, alphabet);
    const Nfa nfa = Nfa::from_regex(re);
    const Dfa dfa = Dfa::from_nfa(nfa);
    for (int w = 0; w < 50; ++w) {
      std::vector<SymbolId> word;
      const std::size_t len = rng.below(6);
      for (std::size_t i = 0; i < len; ++i) {
        word.push_back(static_cast<SymbolId>(rng.below(alphabet.size())));
      }
      ASSERT_EQ(dfa.accepts(word), nfa.accepts(word))
          << "regex: " << pattern << " word: " << alphabet.render(word);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfaNfaAgreement, ::testing::Range(0, 8));

}  // namespace
}  // namespace ptest::pfa
