// Probabilistic finite-state automaton — Definition 1 of the paper.
//
// A PFA here is the minimized DFA of the user's regular expression with a
// transition probability function P : δ -> R+ attached, normalized so that
// for every state with outgoing edges the probabilities sum to 1 (Eq. (1)).
// States that are accepting and have no outgoing edges (e.g. TD/TY in the
// pCore automaton, Fig. 5) are exempt from Eq. (1): a walk terminates there.
//
// Sampling a walk implements the paper's Algorithm 2: from the initial
// state, repeatedly MakeChoice among the outgoing edges until `s` symbols
// have been emitted (or a dead-end accepting state is reached).  The
// optional `complete_to_accept` mode then steers the walk to an accepting
// state so every emitted pattern is a word of the language — this is what
// lets the committer always retire the tasks it created.
//
// Hot path layout: construction flattens the per-state transition lists
// into structure-of-arrays tables (symbol / target / probability plus a
// per-state offset table) and precomputes, per state, a cumulative pick
// table for the full distribution and a distance-filtered one for the
// complete_to_accept steering.  The pick tables store *thresholds*: the
// exact rounding boundaries of the legacy Rng::weighted_index subtraction
// scan (recovered by binary search over the double bit pattern at build
// time), so a single rng.uniform() + std::upper_bound reproduces the
// legacy pick bit for bit — every golden fingerprint stays byte-stable.
// sample_into(WalkScratch&, ...) is the primary entry point: it reuses the
// caller's buffers so steady-state sampling does zero heap allocations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ptest/pfa/alphabet.hpp"
#include "ptest/pfa/dfa.hpp"
#include "ptest/pfa/distribution.hpp"
#include "ptest/pfa/regex.hpp"
#include "ptest/support/rng.hpp"

namespace ptest::pfa {

struct PfaTransition {
  SymbolId symbol = 0;
  StateId target = 0;
  double probability = 0.0;
};

struct PfaState {
  std::vector<PfaTransition> transitions;  // sorted by symbol id
  bool accepting = false;
  /// Incoming-symbol contexts, sorted.  With the default (non-minimized)
  /// skeleton every non-start state has exactly one; full minimization may
  /// merge states and yield several (see PfaBuildOptions::minimize).
  std::vector<SymbolId> contexts;
};

/// Result of sampling one walk.
struct Walk {
  std::vector<SymbolId> symbols;
  std::vector<StateId> states;  // states.size() == symbols.size() + 1
  /// True when the walk ended in an accepting state.
  bool accepted = false;
  /// Product of the chosen transition probabilities.
  double probability = 1.0;
};

struct WalkOptions;

/// Reusable sampling buffers, held by one worker and threaded through
/// Pfa::sample_into so steady-state sessions allocate nothing per walk.
/// Not thread-safe: each worker (WorkerPool participant, fleet shard)
/// owns its own scratch exclusively.
///
/// The scratch also keeps the jobs-invariant reuse accounting behind the
/// support::MetricsSnapshot `scratch_reuse_hits` / `sample_alloc_bytes_saved`
/// counters.  A call counts as a reuse hit when the emitted walk fits
/// within the session high-water mark (the capacity a session-fresh
/// scratch would already hold) — a pure function of the walk sequence,
/// so the counters are identical for every jobs value even though which
/// physical scratch served a session is not deterministic.
struct WalkScratch {
  Walk walk;
  /// Block of pre-drawn uniforms (Rng::uniform_batch); sized lazily.
  std::vector<double> uniforms;

  /// Resets the session high-water mark.  Called at the top of every
  /// session (core::generate_and_merge) so the reuse counters below stay
  /// independent of which worker's scratch the session landed on.
  void begin_session() noexcept {
    session_symbols_high_ = 0;
    session_states_high_ = 0;
  }

  /// Pre-sizes the buffers for walks under `options` so even the first
  /// samples allocate nothing (2x covers restart_at_accept state chains).
  void reserve(const WalkOptions& options);

  /// sample_into calls whose walk fit in session-high-water capacity.
  [[nodiscard]] std::uint64_t reuse_hits() const noexcept {
    return reuse_hits_;
  }
  /// Bytes of Walk-buffer allocation those hits avoided versus the
  /// allocate-per-call Pfa::sample wrapper.
  [[nodiscard]] std::uint64_t alloc_bytes_saved() const noexcept {
    return alloc_bytes_saved_;
  }

 private:
  friend class Pfa;
  std::size_t session_symbols_high_ = 0;
  std::size_t session_states_high_ = 0;
  std::uint64_t reuse_hits_ = 0;
  std::uint64_t alloc_bytes_saved_ = 0;
};

struct WalkOptions {
  /// Target number of emitted symbols (the paper's `s`).
  std::size_t size = 8;
  /// After `size` symbols, keep walking toward the nearest accepting state
  /// so the emitted pattern is a complete word of the language.
  bool complete_to_accept = true;
  /// When the walk reaches an absorbing accepting state (e.g. TD/TY in the
  /// pCore automaton) before `size` symbols, restart from the initial state
  /// and keep emitting.  This models the paper's stress scenario where
  /// tasks are continually created and removed (case study 1); the emitted
  /// pattern is then a concatenation of complete lifecycles.
  bool restart_at_accept = false;
  /// Hard cap on emitted symbols (guards complete_to_accept on automata
  /// with long accept distances).
  std::size_t max_size = 1024;
};

struct PfaBuildOptions {
  /// Fully minimize the automaton skeleton before attaching probabilities.
  /// Default off: the subset-construction skeleton keeps states with
  /// different probabilistic contexts distinct (the paper's Fig. 5 draws
  /// one node per last-executed service).  Turning it on reproduces the
  /// compact Fig. 3 drawing but may merge bigram contexts; when merged
  /// contexts carry conflicting explicit bigram weights, the smallest
  /// symbol id wins deterministically.
  bool minimize = false;
};

class Pfa {
 public:
  /// ConstructPFA of Algorithm 2: attaches `spec` to the DFA of `regex`.
  /// Throws std::invalid_argument if the spec yields a zero-mass state.
  static Pfa from_regex(const Regex& regex, const DistributionSpec& spec,
                        const Alphabet& alphabet,
                        const PfaBuildOptions& options = {});

  /// As above but starting from an already-built DFA.
  static Pfa from_dfa(Dfa dfa, const DistributionSpec& spec);

  [[nodiscard]] const std::vector<PfaState>& states() const noexcept {
    return states_;
  }
  [[nodiscard]] StateId start() const noexcept { return dfa_.start(); }
  [[nodiscard]] const Dfa& dfa() const noexcept { return dfa_; }

  /// Verifies Eq. (1): every state with outgoing edges has probabilities
  /// summing to 1 within `epsilon`; throws std::logic_error otherwise.
  void validate(double epsilon = 1e-9) const;

  /// Samples one walk (MakeChoice loop of Algorithm 2) into the caller's
  /// scratch, reusing its buffers — zero heap allocations once the
  /// scratch has warmed up.  The returned reference aliases scratch.walk
  /// and is valid until the next sample_into on the same scratch.  Draw
  /// sequence and picks are bit-identical to sample() below.
  const Walk& sample_into(WalkScratch& scratch, support::Rng& rng,
                          const WalkOptions& options) const;

  /// Samples one walk (MakeChoice loop of Algorithm 2).  Thin wrapper
  /// over sample_into that allocates a fresh Walk per call — prefer
  /// sample_into with a per-worker WalkScratch on hot paths.
  [[nodiscard]] Walk sample(support::Rng& rng, const WalkOptions& options) const;

  /// Probability of the automaton emitting exactly `word` (product of the
  /// deterministic transition probabilities; 0 if `word` leaves the
  /// language's prefix set or ends in a non-accepting state).
  [[nodiscard]] double word_probability(const std::vector<SymbolId>& word) const;

  /// Probability that a random walk begins with `prefix` (no acceptance
  /// requirement).
  [[nodiscard]] double prefix_probability(
      const std::vector<SymbolId>& prefix) const;

  /// True if `word` is in the underlying regular language.
  [[nodiscard]] bool accepts(const std::vector<SymbolId>& word) const {
    return dfa_.accepts(word);
  }

  /// Graphviz rendering with probability-labelled edges (cf. Fig. 3/5).
  [[nodiscard]] std::string to_dot(const Alphabet& alphabet) const;

  /// Flattened structure-of-arrays view of the transition table; state
  /// `s`'s transitions occupy the half-open index range
  /// [offsets()[s], offsets()[s+1]) of the parallel arrays, in the same
  /// (symbol-sorted) order as states()[s].transitions.
  [[nodiscard]] const std::vector<std::uint32_t>& offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] const std::vector<SymbolId>& flat_symbols() const noexcept {
    return flat_symbol_;
  }
  [[nodiscard]] const std::vector<StateId>& flat_targets() const noexcept {
    return flat_target_;
  }
  [[nodiscard]] const std::vector<double>& flat_probabilities()
      const noexcept {
    return flat_prob_;
  }

 private:
  /// No closer-to-accept edge leaves the state (accept_fallback_) or no
  /// dead-end accepting state is reachable (dead_distance_).
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Builds the SoA arrays and pick-threshold tables from states_;
  /// called once at the end of from_dfa.
  void build_sampling_tables();

  Dfa dfa_;
  std::vector<PfaState> states_;
  std::vector<std::uint32_t> accept_distance_;

  // --- sampling tables (see build_sampling_tables) -------------------------
  std::vector<std::uint32_t> offsets_;   // states+1 entries
  std::vector<SymbolId> flat_symbol_;    // per transition
  std::vector<StateId> flat_target_;     // per transition
  std::vector<double> flat_prob_;        // per transition
  /// Pick thresholds per transition: the walk takes transition j when the
  /// scaled draw falls in [threshold[j-1], threshold[j]) — boundaries are
  /// the exact rounding frontier of the legacy subtraction scan.
  std::vector<double> pick_threshold_;    // full distribution
  std::vector<double> accept_threshold_;  // distance-filtered (masked)
  /// Sequential floating-point weight sums the legacy scan scaled by.
  std::vector<double> total_mass_;   // per state, full distribution
  std::vector<double> accept_mass_;  // per state, closer-edge mass
  /// Slack fallback (last positive-weight transition, state-relative) for
  /// the masked table; kNone when the state has no closer-to-accept edge.
  std::vector<std::uint32_t> accept_fallback_;
  /// BFS distance to the nearest dead-end accepting state (kNone when no
  /// dead end is reachable).  Bounds how many uniforms may be pre-drawn:
  /// the next min(dead_distance_, remaining) steps each consume exactly
  /// one draw, so batching that many keeps the stream bit-identical.
  std::vector<std::uint32_t> dead_distance_;
};

}  // namespace ptest::pfa
