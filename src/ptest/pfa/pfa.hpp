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
// sample_into(Walk&, WalkScratch&, ...) is the one sampling path: it writes
// the caller's Walk (a session's pattern slot) in place, so steady-state
// sampling does zero heap allocations.
#pragma once

#include <algorithm>
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

/// One sampled walk, and the record a sampled test pattern lives in
/// (pattern::TestPattern names this type).
struct Walk {
  std::vector<SymbolId> symbols;
  /// Flat transition index (Pfa::offsets()) that emitted each symbol, so
  /// edges.size() == symbols.size() and flat_targets()[edges[i]] is the
  /// state after symbols[i], restart_at_accept hops included.  The
  /// coverage fold reads these.  Only the sampler fills them: a replay's
  /// per-slot projection (MergedPattern::project_all) leaves them empty.
  std::vector<std::uint32_t> edges;
  /// True when the walk ended in an accepting state.
  bool accepted = false;

  [[nodiscard]] bool empty() const noexcept { return symbols.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return symbols.size(); }
};

/// Cap on the symbols a complete_to_accept walk's steering adds (guards
/// automata with long accept distances), and on the room sample_into
/// makes in a walk's buffers.
inline constexpr std::size_t kMaxWalkSize = 1024;

/// The block of pre-drawn uniforms (Rng::uniform_batch) Pfa::sample_into
/// draws through, sized lazily on the first walk and held by one worker
/// so steady-state sessions allocate nothing per walk
/// (pfa/sample_alloc_probe_test checks that directly).  Not thread-safe:
/// each worker (WorkerPool participant, fleet shard) owns its own
/// scratch exclusively.  What a walk samples never depends on the
/// block's history, so which worker's scratch served a session is
/// invisible in its result.
struct WalkScratch {
  std::vector<double> uniforms;
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

  /// Samples one walk (MakeChoice loop of Algorithm 2) into `out`, in
  /// its existing buffers, sized on the first walk for longest_walk():
  /// once `out` and the scratch have taken one walk, later walks allocate
  /// nothing.  Draw sequence and picks are bit-identical to sample().
  void sample_into(Walk& out, WalkScratch& scratch, support::Rng& rng,
                   const WalkOptions& options) const;

  /// The most symbols a walk under `options` holds, capped at
  /// kMaxWalkSize: its `size` symbols, then a steering tail of at most
  /// the farthest accept distance.
  [[nodiscard]] std::size_t longest_walk(
      const WalkOptions& options) const noexcept {
    return std::min(options.size + max_accept_distance_, kMaxWalkSize);
  }

  /// Samples one walk into a fresh Walk through a call-local scratch.
  /// Thin wrapper over sample_into — prefer sample_into with kept buffers
  /// on hot paths.
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
  /// Largest finite accept_distance_: the longest steering tail a
  /// complete_to_accept walk can take.
  std::size_t max_accept_distance_ = 0;
};

}  // namespace ptest::pfa
