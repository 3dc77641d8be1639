// Reference oracle for the bitset coverage fold.
//
// ReferenceTracker below is the std::set CoverageTracker the bitset one
// replaced, kept verbatim: it replays each pattern's symbols through the
// automaton.  Every catalog scenario (bug and benign plans), under each of
// the four (restart_at_accept, complete_to_accept) settings, feeds the
// same sampled patterns to both trackers over a seed sweep; their
// snapshots, reports, transitions_seen() in iteration order and
// uncovered_transitions() must agree after every session, after absorb()
// (of a sibling tracker, and of a reference snapshot of hand-built words:
// two lifecycles glued together, and random words that leave the
// language), after mark_transition() on edges and non-edges, and after a
// tracker is reassigned to a fresh one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/reference_session.hpp"
#include "ptest/pattern/coverage.hpp"

namespace ptest::pattern {
namespace {

// --- the std::set tracker, kept as the oracle --------------------------------

class ReferenceTracker {
 public:
  explicit ReferenceTracker(const pfa::Pfa& pfa, std::size_t ngram = 3)
      : pfa_(&pfa), ngram_(ngram == 0 ? 1 : ngram) {}

  void observe(const TestPattern& pattern) {
    std::uint32_t state = pfa_->start();
    states_seen_.insert(state);
    for (std::size_t i = 0; i < pattern.symbols.size(); ++i) {
      const pfa::SymbolId symbol = pattern.symbols[i];
      const auto& transitions = pfa_->states()[state].transitions;
      const pfa::PfaTransition* match = nullptr;
      for (const auto& t : transitions) {
        if (t.symbol == symbol) {
          match = &t;
          break;
        }
      }
      if (match == nullptr) {
        // Restart-at-accept patterns hop back to the start between
        // lifecycles; try from the start state before giving up.
        const auto& start_transitions =
            pfa_->states()[pfa_->start()].transitions;
        for (const auto& t : start_transitions) {
          if (t.symbol == symbol) {
            transitions_seen_.insert({pfa_->start(), symbol});
            match = &t;
            break;
          }
        }
        if (match == nullptr) return;  // pattern leaves the language
      } else {
        transitions_seen_.insert({state, symbol});
      }
      state = match->target;
      states_seen_.insert(state);
      if (i + 1 >= ngram_) {
        ngrams_seen_.insert(std::vector<pfa::SymbolId>(
            pattern.symbols.begin() +
                static_cast<std::ptrdiff_t>(i + 1 - ngram_),
            pattern.symbols.begin() + static_cast<std::ptrdiff_t>(i + 1)));
      }
    }
  }

  CoverageReport report() const {
    CoverageReport report;
    report.states_total = pfa_->states().size();
    report.states_covered = states_seen_.size();
    for (const auto& state : pfa_->states()) {
      report.transitions_total += state.transitions.size();
    }
    report.transitions_covered = transitions_seen_.size();
    report.ngrams_observed = ngrams_seen_.size();
    report.state_coverage =
        report.states_total == 0
            ? 0.0
            : static_cast<double>(report.states_covered) /
                  static_cast<double>(report.states_total);
    report.transition_coverage =
        report.transitions_total == 0
            ? 0.0
            : static_cast<double>(report.transitions_covered) /
                  static_cast<double>(report.transitions_total);
    return report;
  }

  void mark_transition(std::uint32_t state, pfa::SymbolId symbol) {
    if (state >= pfa_->states().size()) return;
    for (const auto& t : pfa_->states()[state].transitions) {
      if (t.symbol != symbol) continue;
      transitions_seen_.insert({state, symbol});
      states_seen_.insert(state);
      states_seen_.insert(t.target);
      return;
    }
  }

  CoverageState state() const {
    CoverageState snapshot;
    snapshot.states_total = pfa_->states().size();
    for (const auto& state : pfa_->states()) {
      snapshot.transitions_total += state.transitions.size();
    }
    snapshot.states = states_seen_;
    snapshot.transitions = transitions_seen_;
    snapshot.ngrams.insert(ngrams_seen_.begin(), ngrams_seen_.end());
    return snapshot;
  }

  void absorb(const CoverageState& other) {
    states_seen_.insert(other.states.begin(), other.states.end());
    transitions_seen_.insert(other.transitions.begin(),
                             other.transitions.end());
    ngrams_seen_.insert(other.ngrams.begin(), other.ngrams.end());
  }

  std::vector<std::pair<std::uint32_t, pfa::SymbolId>> uncovered_transitions()
      const {
    std::vector<std::pair<std::uint32_t, pfa::SymbolId>> out;
    for (std::uint32_t state = 0; state < pfa_->states().size(); ++state) {
      for (const auto& t : pfa_->states()[state].transitions) {
        if (!transitions_seen_.contains({state, t.symbol})) {
          out.emplace_back(state, t.symbol);
        }
      }
    }
    return out;
  }

  const std::set<std::pair<std::uint32_t, pfa::SymbolId>>& transitions_seen()
      const noexcept {
    return transitions_seen_;
  }

 private:
  const pfa::Pfa* pfa_;
  std::size_t ngram_;
  std::set<std::uint32_t> states_seen_;
  std::set<std::pair<std::uint32_t, pfa::SymbolId>> transitions_seen_;
  std::set<std::vector<pfa::SymbolId>> ngrams_seen_;
};

// --- comparison --------------------------------------------------------------

void expect_same_report(const CoverageReport& a, const CoverageReport& b) {
  EXPECT_EQ(a.states_total, b.states_total);
  EXPECT_EQ(a.states_covered, b.states_covered);
  EXPECT_EQ(a.transitions_total, b.transitions_total);
  EXPECT_EQ(a.transitions_covered, b.transitions_covered);
  EXPECT_EQ(a.ngrams_observed, b.ngrams_observed);
  EXPECT_EQ(a.state_coverage, b.state_coverage);
  EXPECT_EQ(a.transition_coverage, b.transition_coverage);
}

void expect_same(const CoverageTracker& tracker,
                 const ReferenceTracker& reference) {
  EXPECT_TRUE(tracker.state() == reference.state());
  expect_same_report(tracker.report(), reference.report());
  // Iteration order, not just set equality: corpus bytes and the
  // refiner's input follow it.
  const auto seen = tracker.transitions_seen();
  EXPECT_EQ(std::vector(seen.begin(), seen.end()),
            std::vector(reference.transitions_seen().begin(),
                        reference.transitions_seen().end()));
  EXPECT_EQ(tracker.uncovered_transitions(),
            reference.uncovered_transitions());
}

/// A word of random symbol ids, some outside the alphabet: exercises the
/// leave-the-language stop.
TestPattern random_word(support::Rng& rng, std::size_t alphabet_size) {
  TestPattern word;
  const std::size_t length = 1 + rng.below(8);
  for (std::size_t i = 0; i < length; ++i) {
    word.symbols.push_back(
        static_cast<pfa::SymbolId>(rng.below(alphabet_size + 2)));
  }
  return word;
}

struct SweepTotals {
  std::size_t sessions = 0;
  std::size_t early_sessions = 0;  // the first kEarlySeeds of each plan
  std::size_t partial_states = 0;  // early checks taken with coverage < 1
  std::size_t restarts = 0;        // lifecycle restarts inside a pattern
  std::size_t most_ngrams = 0;     // the largest n-gram count one plan saw
};

/// Times `pattern` hops back to the start: a symbol that follows a
/// dead-end accepting state.
std::size_t restarts_in(const pfa::Pfa& pfa, const TestPattern& pattern) {
  std::size_t restarts = 0;
  std::uint32_t state = pfa.start();
  for (const pfa::SymbolId symbol : pattern.symbols) {
    if (pfa.states()[state].transitions.empty()) {
      ++restarts;
      state = pfa.start();
    }
    for (const pfa::PfaTransition& t : pfa.states()[state].transitions) {
      if (t.symbol == symbol) state = t.target;
    }
  }
  return restarts;
}

constexpr std::uint64_t kSeedsPerVariant = 64;
/// The catalog automata saturate within a few dozen sessions; the
/// non-vacuity witness counts the sessions before that.
constexpr std::uint64_t kEarlySeeds = 16;

void sweep_variant(const std::string& label, const core::PtestConfig& config,
                   SweepTotals& totals) {
  SCOPED_TRACE(label);
  const core::CompiledTestPlanPtr plan = core::compile(config);
  const pfa::Pfa& pfa = plan->pfa;
  const std::size_t alphabet_size = plan->alphabet.size();
  pfa::WalkScratch scratch;
  support::Rng rng(config.seed ^ 0xc0de);

  CoverageTracker tracker(pfa);
  ReferenceTracker reference(pfa);
  // A second pair folds every other session, then is absorbed.
  CoverageTracker side(pfa);
  ReferenceTracker side_reference(pfa);
  // Hand-built words go through the reference only, and reach the
  // tracker under test as a snapshot to absorb.
  ReferenceTracker hand(pfa);
  expect_same(tracker, reference);

  for (std::uint64_t run = 0; run < kSeedsPerVariant; ++run) {
    const std::uint64_t seed = support::derive_seed(config.seed, run);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const core::AdaptiveTestResult generated =
        core::generate_and_merge(*plan, seed, scratch);
    CoverageTracker& into = run % 2 == 0 ? tracker : side;
    ReferenceTracker& ref_into = run % 2 == 0 ? reference : side_reference;
    for (const TestPattern& pattern : generated.patterns) {
      into.observe(pattern);
      ref_into.observe(pattern);
      totals.restarts += restarts_in(pfa, pattern);
    }
    // Two lifecycles back to back (the second starts from the first's
    // accepting state, so the replay hops to the start), then noise.
    TestPattern word = generated.patterns.front();
    for (const TestPattern& next : {generated.patterns.back(),
                                    random_word(rng, alphabet_size)}) {
      word.symbols.insert(word.symbols.end(), next.symbols.begin(),
                          next.symbols.end());
      hand.observe(word);
    }
    ++totals.sessions;
    expect_same(tracker, reference);
    expect_same(side, side_reference);
    if (run < kEarlySeeds) {
      ++totals.early_sessions;
      if (tracker.report().transition_coverage < 1.0) ++totals.partial_states;
    }
  }

  // absorb: the side pair's snapshot into the main pair, then the
  // hand-built words' snapshot into both.
  tracker.absorb(side.state());
  reference.absorb(side_reference.state());
  expect_same(tracker, reference);
  tracker.absorb(hand.state());
  reference.absorb(hand.state());
  expect_same(tracker, reference);
  totals.most_ngrams =
      std::max(totals.most_ngrams, tracker.report().ngrams_observed);

  // mark_transition on every edge of a fresh pair, one state at a time,
  // interleaved with pairs that name no edge: an unknown symbol, a state
  // past the end, and a symbol that exists elsewhere but not here.
  tracker = CoverageTracker(pfa);
  reference = ReferenceTracker(pfa);
  expect_same(tracker, reference);
  const auto states = static_cast<std::uint32_t>(pfa.states().size());
  for (std::uint32_t s = 0; s < states; ++s) {
    for (const pfa::PfaTransition& t : pfa.states()[s].transitions) {
      tracker.mark_transition(s, t.symbol);
      reference.mark_transition(s, t.symbol);
    }
    for (const auto& [state, symbol] :
         {std::pair<std::uint32_t, pfa::SymbolId>{s, 9999},
          {states + s, 0},
          {s, static_cast<pfa::SymbolId>(alphabet_size)}}) {
      tracker.mark_transition(state, symbol);
      reference.mark_transition(state, symbol);
    }
    expect_same(tracker, reference);
  }
  EXPECT_TRUE(tracker.uncovered_transitions().empty());
}

TEST(CoverageReferenceTest, CatalogSweepMatchesSetTracker) {
  SweepTotals totals;
  core::for_each_catalog_variant([&](const core::CatalogVariant& variant) {
    for (const bool restart : {false, true}) {
      for (const bool complete : {true, false}) {
        core::PtestConfig config = variant.config;
        config.restart_at_accept = restart;
        config.complete_to_accept = complete;
        sweep_variant(variant.label + (restart ? " restart" : "") +
                          (complete ? "" : " truncated"),
                      config, totals);
      }
    }
  });
  EXPECT_GE(totals.sessions, 4 * 14 * kSeedsPerVariant);
  // The sweep is not vacuous: most early checks ran with edges still
  // uncovered, and some patterns restarted at an accepting state.
  EXPECT_GT(totals.partial_states, totals.early_sessions / 2);
  EXPECT_GT(totals.restarts, 0u);
}

// The catalog automata see a few dozen n-grams at most; a free-order
// automaton sees more than 64, so the tracker's 64-slot hash table
// doubles twice (past 32 and past 64 keys) under the same sweep.
TEST(CoverageReferenceTest, WideAutomatonGrowsTheNgramTable) {
  core::PtestConfig config;
  config.regex = "(TC | TCH | TS | TR)* (TD$ | TY$)";
  config.s = 24;
  SweepTotals totals;
  sweep_variant("free order", config, totals);
  EXPECT_GT(totals.most_ngrams, 64u);
}

TEST(CoverageReferenceTest, EmptyTrackersAgree) {
  const scenario::Scenario& entry =
      scenario::ScenarioRegistry::builtin().all().front();
  const core::CompiledTestPlanPtr plan = core::compile(entry.config);
  const CoverageTracker tracker(plan->pfa);
  const ReferenceTracker reference(plan->pfa);
  expect_same(tracker, reference);
  EXPECT_EQ(tracker.report().states_covered, 0u);
  EXPECT_EQ(tracker.uncovered_transitions().size(),
            tracker.report().transitions_total);
}

}  // namespace
}  // namespace ptest::pattern
