#include "ptest/pattern/coverage.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

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

bool test_bit(const std::vector<std::uint64_t>& bits, std::size_t index) {
  return (bits[index >> 6] >> (index & 63)) & 1;
}

void set_bit(std::vector<std::uint64_t>& bits, std::size_t index) {
  bits[index >> 6] |= std::uint64_t{1} << (index & 63);
}

/// The low `bits` bits set: over ngram * symbol width bits it keeps the
/// last `ngram` symbols of a sliding window.
std::uint64_t key_mask(std::size_t bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

constexpr std::size_t kInitialSlots = 64;

}  // namespace

CoverageReport CoverageState::report() const {
  CoverageReport report;
  report.states_total = states_total;
  report.states_covered = states.size();
  report.transitions_total = transitions_total;
  report.transitions_covered = transitions.size();
  report.ngrams_observed = ngrams.size();
  report.state_coverage =
      states_total == 0 ? 0.0
                        : static_cast<double>(states.size()) /
                              static_cast<double>(states_total);
  report.transition_coverage =
      transitions_total == 0 ? 0.0
                             : static_cast<double>(transitions.size()) /
                                   static_cast<double>(transitions_total);
  return report;
}

CoverageTracker::CoverageTracker(const pfa::Pfa& pfa, std::size_t ngram)
    : pfa_(&pfa),
      ngram_(ngram == 0 ? 1 : ngram),
      states_seen_((pfa.states().size() + 63) / 64),
      transitions_seen_((pfa.flat_symbols().size() + 63) / 64),
      ngram_slots_(kInitialSlots) {
  const std::vector<pfa::SymbolId>& symbols = pfa.flat_symbols();
  const pfa::SymbolId widest =
      symbols.empty() ? 0 : *std::max_element(symbols.begin(), symbols.end());
  symbol_bits_ = std::max(1u, static_cast<unsigned>(std::bit_width(widest)));
  if (ngram_ > 64 / symbol_bits_) {
    throw std::invalid_argument(
        "CoverageTracker: " + std::to_string(ngram_) + "-grams of " +
        std::to_string(symbol_bits_) + "-bit symbols exceed 64 bits");
  }
}

std::optional<std::uint32_t> CoverageTracker::edge(
    std::uint32_t state, pfa::SymbolId symbol) const {
  const std::vector<std::uint32_t>& offsets = pfa_->offsets();
  const std::vector<pfa::SymbolId>& symbols = pfa_->flat_symbols();
  for (std::uint32_t t = offsets[state]; t < offsets[state + 1]; ++t) {
    if (symbols[t] == symbol) return t;
  }
  return std::nullopt;
}

std::uint32_t& CoverageTracker::ngram_slot(std::uint64_t key) {
  // Fibonacci hashing (the top bits of key * 2^64/phi), linear probing.
  const std::size_t mask = ngram_slots_.size() - 1;
  std::size_t slot = (key * 0x9e3779b97f4a7c15ULL) >>
                     (64 - std::countr_zero(ngram_slots_.size()));
  while (ngram_slots_[slot] != 0 &&
         ngram_keys_[ngram_slots_[slot] - 1] != key) {
    slot = (slot + 1) & mask;
  }
  return ngram_slots_[slot];
}

void CoverageTracker::insert_ngram(std::uint64_t key) {
  std::uint32_t& slot = ngram_slot(key);
  if (slot != 0) return;
  ngram_keys_.push_back(key);
  slot = static_cast<std::uint32_t>(ngram_keys_.size());
  if (2 * ngram_keys_.size() <= ngram_slots_.size()) return;
  // Over half full: double the table and re-place every key.
  ngram_slots_.assign(2 * ngram_slots_.size(), 0);
  for (std::uint32_t i = 0; i < ngram_keys_.size(); ++i) {
    ngram_slot(ngram_keys_[i]) = i + 1;
  }
}

void CoverageTracker::observe(const TestPattern& pattern) {
  const std::uint32_t* targets = pfa_->flat_targets().data();
  const pfa::SymbolId* symbols = pfa_->flat_symbols().data();
  const std::uint64_t mask = key_mask(ngram_ * symbol_bits_);
  set_bit(states_seen_, pfa_->start());
  std::uint64_t window = 0;
  std::size_t filled = 0;
  for (const std::uint32_t taken : pattern.edges) {
    set_bit(transitions_seen_, taken);
    set_bit(states_seen_, targets[taken]);
    window = ((window << symbol_bits_) | symbols[taken]) & mask;
    if (++filled >= ngram_) insert_ngram(window);
  }
}

CoverageReport CoverageTracker::report() const { return state().report(); }

void CoverageTracker::mark_transition(std::uint32_t state,
                                      pfa::SymbolId symbol) {
  if (state >= pfa_->states().size()) return;
  const std::optional<std::uint32_t> taken = edge(state, symbol);
  if (!taken) return;
  set_bit(transitions_seen_, *taken);
  set_bit(states_seen_, state);
  set_bit(states_seen_, pfa_->flat_targets()[*taken]);
}

CoverageState CoverageTracker::state() const {
  CoverageState snapshot;
  snapshot.states_total = pfa_->states().size();
  snapshot.transitions_total = pfa_->flat_symbols().size();
  for (std::uint32_t s = 0; s < snapshot.states_total; ++s) {
    if (test_bit(states_seen_, s)) {
      snapshot.states.insert(snapshot.states.end(), s);
    }
  }
  snapshot.transitions = transitions_seen();
  // Fixed-width keys with the first symbol highest sort like their
  // n-grams do lexicographically.
  std::vector<std::uint64_t> keys = ngram_keys_;
  std::sort(keys.begin(), keys.end());
  const std::uint64_t symbol_mask = key_mask(symbol_bits_);
  for (const std::uint64_t key : keys) {
    std::vector<pfa::SymbolId> ngram(ngram_);
    for (std::size_t i = 0; i < ngram_; ++i) {
      ngram[i] = static_cast<pfa::SymbolId>(
          (key >> ((ngram_ - 1 - i) * symbol_bits_)) & symbol_mask);
    }
    snapshot.ngrams.insert(snapshot.ngrams.end(), std::move(ngram));
  }
  return snapshot;
}

void CoverageTracker::absorb(const CoverageState& other) {
  const std::size_t states = pfa_->states().size();
  for (const std::uint32_t s : other.states) {
    if (s < states) set_bit(states_seen_, s);
  }
  for (const auto& [s, symbol] : other.transitions) {
    if (s >= states) continue;
    if (const auto taken = edge(s, symbol)) set_bit(transitions_seen_, *taken);
  }
  for (const std::vector<pfa::SymbolId>& ngram : other.ngrams) {
    bool fits = ngram.size() == ngram_;
    std::uint64_t key = 0;
    for (const pfa::SymbolId symbol : ngram) {
      fits = fits &&
             static_cast<unsigned>(std::bit_width(symbol)) <= symbol_bits_;
      key = (key << symbol_bits_) | symbol;
    }
    if (!fits) {
      throw std::invalid_argument(
          "CoverageTracker::absorb: an n-gram that is not " +
          std::to_string(ngram_) + " symbols of " +
          std::to_string(symbol_bits_) + " bits");
    }
    insert_ngram(key);
  }
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
