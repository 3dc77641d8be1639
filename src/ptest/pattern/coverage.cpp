#include "ptest/pattern/coverage.hpp"

#include <algorithm>
#include <sstream>

namespace ptest::pattern {

std::string CoverageReport::to_string() const {
  std::ostringstream out;
  out << "states " << states_covered << "/" << states_total
      << ", transitions " << transitions_covered << "/" << transitions_total
      << ", distinct n-grams " << ngrams_observed;
  return out.str();
}

void CoverageState::merge(const CoverageState& other) {
  states_total = std::max(states_total, other.states_total);
  transitions_total = std::max(transitions_total, other.transitions_total);
  states.insert(other.states.begin(), other.states.end());
  transitions.insert(other.transitions.begin(), other.transitions.end());
  ngrams.insert(other.ngrams.begin(), other.ngrams.end());
}

namespace {

CoverageReport make_report(std::size_t states_total, std::size_t states_covered,
                           std::size_t transitions_total,
                           std::size_t transitions_covered,
                           std::size_t ngrams_observed) {
  CoverageReport report;
  report.states_total = states_total;
  report.states_covered = states_covered;
  report.transitions_total = transitions_total;
  report.transitions_covered = transitions_covered;
  report.ngrams_observed = ngrams_observed;
  report.state_coverage =
      states_total == 0 ? 0.0
                        : static_cast<double>(states_covered) /
                              static_cast<double>(states_total);
  report.transition_coverage =
      transitions_total == 0 ? 0.0
                             : static_cast<double>(transitions_covered) /
                                   static_cast<double>(transitions_total);
  return report;
}

std::size_t transition_count(const pfa::Pfa& pfa) {
  return pfa.offsets().empty() ? 0 : pfa.offsets().back();
}

bool test_bit(const std::vector<std::uint64_t>& bits, std::size_t index) {
  return (bits[index >> 6] >> (index & 63)) & 1;
}

/// Sets bit `index`; true when it was clear.
bool set_bit(std::vector<std::uint64_t>& bits, std::size_t index) {
  const std::uint64_t mask = std::uint64_t{1} << (index & 63);
  std::uint64_t& word = bits[index >> 6];
  if (word & mask) return false;
  word |= mask;
  return true;
}

}  // namespace

CoverageReport CoverageState::report() const {
  return make_report(states_total, states.size(), transitions_total,
                     transitions.size(), ngrams.size());
}

CoverageTracker::CoverageTracker(const pfa::Pfa& pfa, std::size_t ngram)
    : pfa_(&pfa),
      ngram_(ngram == 0 ? 1 : ngram),
      states_seen_((pfa.states().size() + 63) / 64),
      transitions_seen_((transition_count(pfa) + 63) / 64) {}

std::optional<std::uint32_t> CoverageTracker::edge(
    std::uint32_t state, pfa::SymbolId symbol) const {
  const std::vector<std::uint32_t>& offsets = pfa_->offsets();
  const std::vector<pfa::SymbolId>& symbols = pfa_->flat_symbols();
  for (std::uint32_t t = offsets[state]; t < offsets[state + 1]; ++t) {
    if (symbols[t] == symbol) return t;
  }
  return std::nullopt;
}

void CoverageTracker::mark_state(std::uint32_t state) {
  states_covered_ += set_bit(states_seen_, state) ? 1 : 0;
}

void CoverageTracker::mark_edge(std::uint32_t edge) {
  transitions_covered_ += set_bit(transitions_seen_, edge) ? 1 : 0;
}

void CoverageTracker::observe(const TestPattern& pattern) {
  const std::vector<pfa::SymbolId>& word = pattern.symbols;
  const std::uint32_t start = pfa_->start();
  std::uint32_t state = start;
  mark_state(state);
  for (std::size_t i = 0; i < word.size(); ++i) {
    std::optional<std::uint32_t> taken = edge(state, word[i]);
    // Restart-at-accept patterns hop back to the start between
    // lifecycles; try from the start state before giving up.
    if (!taken) taken = edge(start, word[i]);
    if (!taken) return;  // pattern leaves the language
    mark_edge(*taken);
    state = pfa_->flat_targets()[*taken];
    mark_state(state);
    if (i + 1 >= ngram_) {
      const std::span<const pfa::SymbolId> window(word.data() + i + 1 - ngram_,
                                                  ngram_);
      const auto at = ngrams_seen_.lower_bound(window);
      if (at == ngrams_seen_.end() || NgramLess{}(window, *at)) {
        ngrams_seen_.emplace_hint(at, window.begin(), window.end());
      }
    }
  }
}

CoverageReport CoverageTracker::report() const {
  return make_report(pfa_->states().size(), states_covered_,
                     transition_count(*pfa_), transitions_covered_,
                     ngrams_seen_.size());
}

void CoverageTracker::mark_transition(std::uint32_t state,
                                      pfa::SymbolId symbol) {
  if (state >= pfa_->states().size()) return;
  const std::optional<std::uint32_t> taken = edge(state, symbol);
  if (!taken) return;
  mark_edge(*taken);
  mark_state(state);
  mark_state(pfa_->flat_targets()[*taken]);
}

CoverageState CoverageTracker::state() const {
  CoverageState snapshot;
  snapshot.states_total = pfa_->states().size();
  snapshot.transitions_total = transition_count(*pfa_);
  for (std::uint32_t s = 0; s < snapshot.states_total; ++s) {
    if (test_bit(states_seen_, s)) {
      snapshot.states.insert(snapshot.states.end(), s);
    }
  }
  snapshot.transitions = transitions_seen();
  snapshot.ngrams = ngrams_seen_;
  return snapshot;
}

void CoverageTracker::absorb(const CoverageState& other) {
  const std::size_t states = pfa_->states().size();
  for (const std::uint32_t s : other.states) {
    if (s < states) mark_state(s);
  }
  for (const auto& [s, symbol] : other.transitions) {
    if (s >= states) continue;
    if (const auto taken = edge(s, symbol)) mark_edge(*taken);
  }
  ngrams_seen_.insert(other.ngrams.begin(), other.ngrams.end());
}

std::set<std::pair<std::uint32_t, pfa::SymbolId>>
CoverageTracker::transitions_seen() const {
  // Flat order is (state, symbol) order: offsets ascend with the state
  // and each state's transitions are symbol-sorted.
  const std::vector<std::uint32_t>& offsets = pfa_->offsets();
  std::set<std::pair<std::uint32_t, pfa::SymbolId>> out;
  for (std::uint32_t s = 0; s + 1 < offsets.size(); ++s) {
    for (std::uint32_t t = offsets[s]; t < offsets[s + 1]; ++t) {
      if (test_bit(transitions_seen_, t)) {
        out.emplace_hint(out.end(), s, pfa_->flat_symbols()[t]);
      }
    }
  }
  return out;
}

std::vector<std::pair<std::uint32_t, pfa::SymbolId>>
CoverageTracker::uncovered_transitions() const {
  const std::vector<std::uint32_t>& offsets = pfa_->offsets();
  std::vector<std::pair<std::uint32_t, pfa::SymbolId>> out;
  for (std::uint32_t s = 0; s + 1 < offsets.size(); ++s) {
    for (std::uint32_t t = offsets[s]; t < offsets[s + 1]; ++t) {
      if (!test_bit(transitions_seen_, t)) {
        out.emplace_back(s, pfa_->flat_symbols()[t]);
      }
    }
  }
  return out;
}

}  // namespace ptest::pattern
