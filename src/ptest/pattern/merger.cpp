#include "ptest/pattern/merger.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>

namespace ptest::pattern {

const char* to_string(MergeOp op) noexcept {
  switch (op) {
    case MergeOp::kSequential: return "sequential";
    case MergeOp::kRoundRobin: return "round-robin";
    case MergeOp::kRandom: return "random";
    case MergeOp::kCyclic: return "cyclic";
    case MergeOp::kShuffle: return "shuffle";
  }
  return "?";
}

std::optional<MergeOp> merge_op_from_string(std::string_view name) noexcept {
  if (name == "sequential") return MergeOp::kSequential;
  if (name == "round-robin") return MergeOp::kRoundRobin;
  if (name == "random") return MergeOp::kRandom;
  if (name == "cyclic") return MergeOp::kCyclic;
  if (name == "shuffle") return MergeOp::kShuffle;
  return std::nullopt;
}

void PatternMerger::reset(const MergerOptions& options, support::Rng rng) {
  options_ = options;
  rng_ = rng;
}

MergedPattern PatternMerger::merge(const std::vector<TestPattern>& patterns) {
  MergedPattern merged;
  merge_into(patterns, merged);
  return merged;
}

void PatternMerger::merge_into(const std::vector<TestPattern>& patterns,
                               MergedPattern& out) {
  // Every op emits each symbol exactly once.
  std::size_t total = 0;
  for (const TestPattern& pattern : patterns) total += pattern.symbols.size();
  out.elements.clear();
  out.elements.reserve(total);
  switch (options_.op) {
    case MergeOp::kSequential: return merge_sequential(patterns, out);
    case MergeOp::kRoundRobin: return merge_round_robin(patterns, out);
    case MergeOp::kRandom: return merge_random(patterns, out);
    case MergeOp::kCyclic: return merge_cyclic(patterns, out);
    case MergeOp::kShuffle: return merge_shuffle(patterns, out);
  }
}

void PatternMerger::merge_sequential(const std::vector<TestPattern>& patterns,
                                     MergedPattern& out) {
  for (SlotIndex slot = 0; slot < patterns.size(); ++slot) {
    for (const pfa::SymbolId symbol : patterns[slot].symbols) {
      out.elements.push_back({slot, symbol});
    }
  }
}

void PatternMerger::merge_round_robin(const std::vector<TestPattern>& patterns,
                                      MergedPattern& out) {
  // Round k emits symbol k of every pattern still that long, in slot
  // order, so the round index is every live slot's cursor.
  std::size_t longest = 0;
  for (const TestPattern& pattern : patterns) {
    longest = std::max(longest, pattern.symbols.size());
  }
  for (std::size_t round = 0; round < longest; ++round) {
    for (SlotIndex slot = 0; slot < patterns.size(); ++slot) {
      if (round < patterns[slot].symbols.size()) {
        out.elements.push_back({slot, patterns[slot].symbols[round]});
      }
    }
  }
}

void PatternMerger::merge_random(const std::vector<TestPattern>& patterns,
                                 MergedPattern& out) {
  cursor_.assign(patterns.size(), 0);
  live_.clear();
  for (SlotIndex slot = 0; slot < patterns.size(); ++slot) {
    if (!patterns[slot].symbols.empty()) live_.push_back(slot);
  }
  while (!live_.empty()) {
    const std::size_t pick =
        static_cast<std::size_t>(rng_.below(live_.size()));
    const SlotIndex slot = live_[pick];
    out.elements.push_back({slot, patterns[slot].symbols[cursor_[slot]++]});
    if (cursor_[slot] == patterns[slot].symbols.size()) {
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
}

void PatternMerger::merge_cyclic(const std::vector<TestPattern>& patterns,
                                 MergedPattern& out) {
  // Rotate across slots, each turn emitting a chunk that runs up to and
  // including the break symbol (TS by convention).  Round k thus suspends
  // every task in ring order before any of them is resumed in round k+1 —
  // the cyclic execution sequences of case study 2.
  cursor_.assign(patterns.size(), 0);
  // max_chunk == 0 means "unbounded": chunks end only at a break symbol
  // (or pattern end).  The pre-fix code treated 0 as "take nothing" and
  // silently emitted an empty merge, dropping every symbol.
  const std::size_t chunk_limit =
      options_.max_chunk == 0 ? std::numeric_limits<std::size_t>::max()
                              : options_.max_chunk;
  bool emitted = true;
  while (emitted) {
    emitted = false;
    for (SlotIndex slot = 0; slot < patterns.size(); ++slot) {
      std::size_t taken = 0;
      while (cursor_[slot] < patterns[slot].symbols.size() &&
             taken < chunk_limit) {
        const pfa::SymbolId symbol = patterns[slot].symbols[cursor_[slot]++];
        out.elements.push_back({slot, symbol});
        ++taken;
        emitted = true;
        if (std::find(options_.cyclic_break_symbols.begin(),
                      options_.cyclic_break_symbols.end(), symbol) !=
            options_.cyclic_break_symbols.end()) {
          break;
        }
      }
    }
  }
}

void PatternMerger::merge_shuffle(const std::vector<TestPattern>& patterns,
                                  MergedPattern& out) {
  // Uniform random linear extension: put each pattern's slot id once per
  // symbol into a deck, shuffle the deck, then deal symbols in per-slot
  // order.
  std::vector<SlotIndex>& deck = live_;
  deck.clear();
  for (SlotIndex slot = 0; slot < patterns.size(); ++slot) {
    deck.insert(deck.end(), patterns[slot].symbols.size(), slot);
  }
  rng_.shuffle(deck);
  cursor_.assign(patterns.size(), 0);
  for (const SlotIndex slot : deck) {
    out.elements.push_back({slot, patterns[slot].symbols[cursor_[slot]++]});
  }
}

std::vector<MergedPattern> PatternMerger::enumerate_interleavings(
    const std::vector<TestPattern>& patterns, std::size_t limit) {
  std::vector<MergedPattern> results;
  std::vector<std::size_t> cursor(patterns.size(), 0);
  MergedPattern current;
  const std::function<void()> recurse = [&] {
    if (results.size() >= limit) return;
    bool any = false;
    for (SlotIndex slot = 0; slot < patterns.size(); ++slot) {
      if (cursor[slot] >= patterns[slot].symbols.size()) continue;
      any = true;
      current.elements.push_back({slot, patterns[slot].symbols[cursor[slot]]});
      ++cursor[slot];
      recurse();
      --cursor[slot];
      current.elements.pop_back();
      if (results.size() >= limit) return;
    }
    if (!any) results.push_back(current);
  };
  recurse();
  return results;
}

}  // namespace ptest::pattern
