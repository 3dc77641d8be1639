// PFA coverage metrics.
//
// The paper's future work notes "the fault coverage of pTest also does not
// be verified" (§V).  As a proxy that is measurable without ground-truth
// faults, this module tracks structural coverage of the test model: which
// PFA states, transitions and symbol n-grams the generated patterns have
// exercised, read off the edges the sampler took (TestPattern::edges).
// bench_fault_coverage correlates these with seeded-bug detection rates.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ptest/pattern/pattern.hpp"
#include "ptest/pfa/pfa.hpp"

namespace ptest::pattern {

struct CoverageReport {
  std::size_t states_total = 0;
  std::size_t states_covered = 0;
  std::size_t transitions_total = 0;
  std::size_t transitions_covered = 0;
  std::size_t ngrams_observed = 0;  // distinct symbol n-grams seen
  double state_coverage = 0.0;       // covered / total
  double transition_coverage = 0.0;

  [[nodiscard]] std::string to_string() const;
};

using NgramSet = std::set<std::vector<pfa::SymbolId>>;

/// The full covered sets of one tracker, detached from its PFA — the
/// mergeable/serializable form a campaign shard ships to the fleet
/// coordinator (wire.cpp) and the session-batch runner's per-worker
/// trackers fold through when their campaign or epoch asks.  All three sets are plain unions under merge(),
/// which makes merging commutative, associative and idempotent; the
/// totals are copied from the source PFA so report() works without it.
struct CoverageState {
  std::size_t states_total = 0;
  std::size_t transitions_total = 0;
  std::set<std::uint32_t> states;
  std::set<std::pair<std::uint32_t, pfa::SymbolId>> transitions;
  NgramSet ngrams;

  /// Set-union fold.  Totals must describe the same automaton; merging
  /// states observed against different skeletons is a caller bug, so
  /// mismatching totals resolve to the larger value rather than lying
  /// silently.
  void merge(const CoverageState& other);

  /// Same derivation CoverageTracker::report() uses, off the snapshot.
  [[nodiscard]] CoverageReport report() const;

  [[nodiscard]] bool operator==(const CoverageState&) const = default;
};

/// Covered states and transitions are dense bitsets over the PFA's states
/// and its flat transition index (Pfa::offsets()).  N-grams are packed
/// integer keys (first symbol in the high bits, each symbol as wide as the
/// PFA's largest symbol id needs) in an open-addressing hash set, so
/// folding a pattern whose n-grams were seen before allocates nothing.
/// The set-valued views below are built on demand, in (state, symbol)
/// and lexicographic n-gram order.
class CoverageTracker {
 public:
  /// `ngram` is the window length for n-gram accounting (0 counts as 1).
  /// Throws std::invalid_argument when `ngram` packed symbols of the
  /// PFA's width do not fit in 64 bits.
  explicit CoverageTracker(const pfa::Pfa& pfa, std::size_t ngram = 3);

  /// Marks what a pattern from the generator visited: the start state,
  /// each edge it recorded (TestPattern::edges) and that edge's target,
  /// and its n-grams.  A pattern with no edges marks the start state
  /// only; pairs built by hand go through mark_transition.
  void observe(const TestPattern& pattern);

  /// Marks one (state, symbol) transition — and its endpoint states — as
  /// covered without replaying a pattern.  Pairs that name no edge of
  /// this tracker's PFA are ignored (a persisted corpus may predate a
  /// plan change).  This is how guided campaigns re-seed a fresh
  /// tracker from an accumulated CoverageCorpus: the corpus stores
  /// covered pairs, a new epoch's tracker starts from them.
  void mark_transition(std::uint32_t state, pfa::SymbolId symbol);

  [[nodiscard]] CoverageReport report() const;

  /// Snapshot of everything seen so far, detached from the PFA.
  [[nodiscard]] CoverageState state() const;

  /// Folds another tracker's (or a deserialized shard's) covered sets
  /// into this one.  No replay: the state must come from a tracker over
  /// the same automaton — the session-batch runner, guided epochs and the
  /// fleet coordinator guarantee that by construction.  States and pairs
  /// this tracker's PFA does not have are dropped; an n-gram of another
  /// length, or with a symbol wider than this tracker packs, throws
  /// std::invalid_argument.
  void absorb(const CoverageState& other);

  /// Transitions never exercised, as (state, symbol) pairs.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, pfa::SymbolId>>
  uncovered_transitions() const;

  /// Transitions exercised so far (corpus-fold surface; sorted).
  [[nodiscard]] std::set<std::pair<std::uint32_t, pfa::SymbolId>>
  transitions_seen() const;

 private:
  /// Flat index of `state`'s transition on `symbol`; nullopt when the
  /// pair names no edge.
  [[nodiscard]] std::optional<std::uint32_t> edge(std::uint32_t state,
                                                  pfa::SymbolId symbol) const;
  /// The hash-table slot that holds `key`, or the empty one it goes in.
  std::uint32_t& ngram_slot(std::uint64_t key);
  void insert_ngram(std::uint64_t key);

  const pfa::Pfa* pfa_;
  std::size_t ngram_;
  unsigned symbol_bits_;  // packed width of one symbol
  std::vector<std::uint64_t> states_seen_;       // bit per state
  std::vector<std::uint64_t> transitions_seen_;  // bit per flat transition
  /// Distinct n-gram keys in first-seen order, and the hash table over
  /// them: each slot holds a key's index + 1, or 0 when empty.
  std::vector<std::uint64_t> ngram_keys_;
  std::vector<std::uint32_t> ngram_slots_;
};

}  // namespace ptest::pattern
