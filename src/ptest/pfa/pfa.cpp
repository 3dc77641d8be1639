#include "ptest/pfa/pfa.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>

namespace ptest::pfa {

namespace {

/// Upper bound on uniforms pre-drawn per Rng::uniform_batch refill.
constexpr std::size_t kUniformBatchMax = 64;

/// Value of `target` after the legacy weighted_index scan subtracted
/// weights[0..i] from it — the exact rounding chain the thresholds invert.
double scan_residual(std::span<const double> weights, std::size_t i,
                     double target) {
  for (std::size_t j = 0; j <= i; ++j) target -= weights[j];
  return target;
}

/// Smallest non-negative double x with scan_residual(w, i, x) >= 0.  The
/// residual is nondecreasing in x (IEEE subtraction is monotone under
/// round-to-nearest), so the legacy scan picks index i exactly when the
/// scaled draw lands in [threshold(i-1), threshold(i)) — binary search
/// over the bit pattern recovers the boundary to the last ulp.
double pick_threshold_for(std::span<const double> weights, std::size_t i) {
  std::uint64_t lo = 0;
  std::uint64_t hi =
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity());
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (scan_residual(weights, i, std::bit_cast<double>(mid)) >= 0.0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return std::bit_cast<double>(lo);
}

/// upper_bound over one state's threshold segment: first transition whose
/// threshold exceeds the scaled draw, or `fallback` (the legacy scan's
/// "last positive weight" slack rule) when the draw clears them all.
std::uint32_t pick_from_thresholds(const double* thresholds,
                                   std::uint32_t count, double target,
                                   std::uint32_t fallback) {
  const double* end = thresholds + count;
  const double* it = std::upper_bound(thresholds, end, target);
  if (it == end) return fallback;
  return static_cast<std::uint32_t>(it - thresholds);
}

}  // namespace

Pfa Pfa::from_regex(const Regex& regex, const DistributionSpec& spec,
                    const Alphabet& alphabet, const PfaBuildOptions& options) {
  (void)alphabet;  // ids are shared; kept in the signature for clarity
  Dfa dfa = Dfa::from_nfa(Nfa::from_regex(regex));
  if (options.minimize) dfa = dfa.minimized();
  return from_dfa(std::move(dfa), spec);
}

Pfa Pfa::from_dfa(Dfa dfa, const DistributionSpec& spec) {
  Pfa pfa;
  pfa.dfa_ = std::move(dfa);
  const auto& dfa_states = pfa.dfa_.states();
  pfa.states_.resize(dfa_states.size());

  // Collect each state's incoming-symbol contexts (used for bigram
  // weights).  The start state additionally carries kStartContext.
  for (StateId i = 0; i < dfa_states.size(); ++i) {
    for (const auto& [symbol, target] : dfa_states[i].transitions) {
      pfa.states_[target].contexts.push_back(symbol);
    }
  }
  for (PfaState& state : pfa.states_) {
    std::sort(state.contexts.begin(), state.contexts.end());
    state.contexts.erase(
        std::unique(state.contexts.begin(), state.contexts.end()),
        state.contexts.end());
  }
  pfa.states_[pfa.dfa_.start()].contexts.insert(
      pfa.states_[pfa.dfa_.start()].contexts.begin(),
      DistributionSpec::kStartContext);

  // Weight resolution: per-state override, then the first context (in
  // sorted order, start-context first) with an explicit bigram entry, then
  // global symbol weight / uniform.
  const auto resolve = [&spec](const PfaState& state, StateId id,
                               SymbolId next) -> double {
    if (const auto w = spec.explicit_state_weight(id, next)) return *w;
    for (const SymbolId context : state.contexts) {
      if (const auto w = spec.explicit_bigram_weight(context, next)) return *w;
    }
    return spec.fallback_weight(next);
  };

  for (StateId i = 0; i < dfa_states.size(); ++i) {
    PfaState& state = pfa.states_[i];
    state.accepting = dfa_states[i].accepting;
    if (dfa_states[i].transitions.empty()) {
      if (!state.accepting) {
        throw std::invalid_argument(
            "Pfa: non-accepting dead-end state (automaton not pruned?)");
      }
      continue;
    }
    double total = 0.0;
    for (const auto& [symbol, target] : dfa_states[i].transitions) {
      const double w = resolve(state, i, symbol);
      state.transitions.push_back({symbol, target, w});
      total += w;
    }
    if (!(total > 0.0)) {
      throw std::invalid_argument("Pfa: state " + std::to_string(i) +
                                  " has zero outgoing probability mass");
    }
    for (PfaTransition& t : state.transitions) t.probability /= total;
  }
  pfa.accept_distance_ = pfa.dfa_.distance_to_accept();
  pfa.validate();
  pfa.build_sampling_tables();
  return pfa;
}

void Pfa::build_sampling_tables() {
  const std::size_t state_count = states_.size();
  std::size_t transition_count = 0;
  for (const PfaState& state : states_) {
    transition_count += state.transitions.size();
  }

  offsets_.assign(state_count + 1, 0);
  flat_symbol_.clear();
  flat_target_.clear();
  flat_prob_.clear();
  pick_threshold_.clear();
  accept_threshold_.clear();
  flat_symbol_.reserve(transition_count);
  flat_target_.reserve(transition_count);
  flat_prob_.reserve(transition_count);
  pick_threshold_.reserve(transition_count);
  accept_threshold_.reserve(transition_count);
  max_accept_distance_ = 0;
  for (const std::uint32_t d : accept_distance_) {
    if (d != kNone && d > max_accept_distance_) max_accept_distance_ = d;
  }
  total_mass_.assign(state_count, 0.0);
  accept_mass_.assign(state_count, 0.0);
  accept_fallback_.assign(state_count, kNone);

  std::vector<double> masked;
  for (StateId s = 0; s < state_count; ++s) {
    const std::vector<PfaTransition>& transitions = states_[s].transitions;
    offsets_[s] = static_cast<std::uint32_t>(flat_symbol_.size());

    // The masked weights the complete_to_accept steering used to rebuild
    // every step: probability on strictly-closer edges, zero elsewhere.
    // Static per state, so folded into the precomputed tables here.
    masked.clear();
    double total = 0.0;
    double mass = 0.0;
    for (const PfaTransition& t : transitions) {
      flat_symbol_.push_back(t.symbol);
      flat_target_.push_back(t.target);
      flat_prob_.push_back(t.probability);
      total += t.probability;  // same order as the legacy sequential sum
      const bool closer =
          accept_distance_[t.target] + 1 == accept_distance_[s];
      masked.push_back(closer ? t.probability : 0.0);
      mass += masked.back();
      if (closer) {
        accept_fallback_[s] =
            static_cast<std::uint32_t>(masked.size()) - 1;
      }
    }
    total_mass_[s] = total;
    accept_mass_[s] = mass;

    const std::span<const double> probs(
        flat_prob_.data() + offsets_[s], transitions.size());
    for (std::size_t i = 0; i < transitions.size(); ++i) {
      pick_threshold_.push_back(pick_threshold_for(probs, i));
      accept_threshold_.push_back(pick_threshold_for(masked, i));
    }
  }
  offsets_[state_count] = static_cast<std::uint32_t>(flat_symbol_.size());

  // BFS distance to the nearest dead-end accepting state over reversed
  // edges: while a walk is at distance >= d from every dead end, its next
  // min(d, remaining) steps each consume exactly one uniform, which is
  // what licenses batching the draws without perturbing the stream.
  dead_distance_.assign(state_count, kNone);
  std::vector<std::vector<StateId>> reverse(state_count);
  std::deque<StateId> frontier;
  for (StateId s = 0; s < state_count; ++s) {
    if (states_[s].transitions.empty()) {
      dead_distance_[s] = 0;
      frontier.push_back(s);
    }
    for (const PfaTransition& t : states_[s].transitions) {
      reverse[t.target].push_back(s);
    }
  }
  while (!frontier.empty()) {
    const StateId v = frontier.front();
    frontier.pop_front();
    for (const StateId u : reverse[v]) {
      if (dead_distance_[u] == kNone) {
        dead_distance_[u] = dead_distance_[v] + 1;
        frontier.push_back(u);
      }
    }
  }
}

void Pfa::validate(double epsilon) const {
  for (StateId i = 0; i < states_.size(); ++i) {
    const PfaState& state = states_[i];
    if (state.transitions.empty()) {
      if (!state.accepting) {
        throw std::logic_error("Pfa::validate: dead non-accepting state " +
                               std::to_string(i));
      }
      continue;
    }
    double total = 0.0;
    for (const PfaTransition& t : state.transitions) {
      if (!(t.probability > 0.0) || t.probability > 1.0) {
        throw std::logic_error(
            "Pfa::validate: transition probability out of (0,1] at state " +
            std::to_string(i));
      }
      total += t.probability;
    }
    if (std::abs(total - 1.0) > epsilon) {
      throw std::logic_error("Pfa::validate: Eq.(1) violated at state " +
                             std::to_string(i) + ": sum = " +
                             std::to_string(total));
    }
  }
}

void Pfa::sample_into(Walk& walk, WalkScratch& scratch, support::Rng& rng,
                      const WalkOptions& options) const {
  // Room for the longest walk, so a kept walk is sized once.
  const std::size_t longest = longest_walk(options);
  walk.symbols.reserve(longest);
  walk.edges.reserve(longest);
  walk.symbols.clear();
  walk.edges.clear();
  walk.accepted = false;

  const StateId start = dfa_.start();
  StateId current = start;

  // Pre-drawn uniforms for the emission loop.  A refill may only cover
  // steps that are certain to draw: the next min(dead_distance_,
  // remaining) steps all start in states with outgoing edges, so exactly
  // that many draws get consumed before any break/restart — the stream
  // position at every exit matches the draw-per-step legacy sampler.
  std::size_t buffered = 0;
  std::size_t next_uniform = 0;
  while (walk.symbols.size() < options.size) {
    const std::uint32_t begin = offsets_[current];
    const std::uint32_t count = offsets_[current + 1] - begin;
    if (count == 0) {  // dead-end accepting state
      if (!options.restart_at_accept) break;
      // A restart that lands in a dead-end start state (the ε-only
      // language) can never emit a symbol: breaking here instead of
      // restarting avoids an infinite loop.
      if (offsets_[start + 1] == offsets_[start]) break;
      current = start;  // next lifecycle (case study 1 churn)
      continue;
    }
    if (next_uniform == buffered) {
      std::size_t certain = options.size - walk.symbols.size();
      if (dead_distance_[current] != kNone) {
        certain = std::min<std::size_t>(certain, dead_distance_[current]);
      }
      certain = std::min(certain, kUniformBatchMax);
      if (scratch.uniforms.size() < certain) {
        scratch.uniforms.resize(kUniformBatchMax);
      }
      rng.uniform_batch(std::span<double>(scratch.uniforms.data(), certain));
      buffered = certain;
      next_uniform = 0;
    }
    const double target =
        scratch.uniforms[next_uniform++] * total_mass_[current];
    // All probabilities are positive, so the scan's slack fallback is
    // simply the state's last transition.
    const std::uint32_t pick = pick_from_thresholds(
        pick_threshold_.data() + begin, count, target, count - 1);
    const std::uint32_t j = begin + pick;
    walk.symbols.push_back(flat_symbol_[j]);
    walk.edges.push_back(j);
    current = flat_target_[j];
  }

  if (options.complete_to_accept) {
    // Steer to the nearest accepting state: among edges that strictly
    // decrease the BFS distance-to-accept, choose proportionally to their
    // configured probability.  Accepting states stop immediately.  The
    // closer-edge mask is static per state, so the masked pick table was
    // built once at construction instead of per step here.
    while (!states_[current].accepting &&
           walk.symbols.size() < kMaxWalkSize) {
      const std::uint32_t fallback = accept_fallback_[current];
      if (fallback == kNone) break;  // should not happen after pruning
      const std::uint32_t begin = offsets_[current];
      const std::uint32_t count = offsets_[current + 1] - begin;
      const double target = rng.uniform() * accept_mass_[current];
      const std::uint32_t pick = pick_from_thresholds(
          accept_threshold_.data() + begin, count, target, fallback);
      const std::uint32_t j = begin + pick;
      walk.symbols.push_back(flat_symbol_[j]);
      walk.edges.push_back(j);
      current = flat_target_[j];
    }
  }
  walk.accepted = states_[current].accepting;
}

Walk Pfa::sample(support::Rng& rng, const WalkOptions& options) const {
  Walk walk;
  WalkScratch scratch;
  sample_into(walk, scratch, rng, options);
  return walk;
}

double Pfa::prefix_probability(const std::vector<SymbolId>& prefix) const {
  StateId current = dfa_.start();
  double p = 1.0;
  for (const SymbolId symbol : prefix) {
    const PfaState& state = states_[current];
    double step = 0.0;
    StateId next = current;
    for (const PfaTransition& t : state.transitions) {
      if (t.symbol == symbol) {
        step = t.probability;
        next = t.target;
        break;
      }
    }
    if (step == 0.0) return 0.0;
    p *= step;
    current = next;
  }
  return p;
}

double Pfa::word_probability(const std::vector<SymbolId>& word) const {
  const auto end_state = dfa_.run(word);
  if (!end_state || !states_[*end_state].accepting) return 0.0;
  return prefix_probability(word);
}

std::string Pfa::to_dot(const Alphabet& alphabet) const {
  std::ostringstream out;
  out << "digraph pfa {\n  rankdir=LR;\n";
  for (StateId i = 0; i < states_.size(); ++i) {
    out << "  q" << i << " [shape="
        << (states_[i].accepting ? "doublecircle" : "circle") << "];\n";
  }
  out << "  start [shape=point];\n  start -> q" << dfa_.start() << ";\n";
  out.precision(3);
  for (StateId i = 0; i < states_.size(); ++i) {
    for (const PfaTransition& t : states_[i].transitions) {
      out << "  q" << i << " -> q" << t.target << " [label=\""
          << alphabet.name(t.symbol) << " (" << t.probability << ")\"];\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace ptest::pfa
