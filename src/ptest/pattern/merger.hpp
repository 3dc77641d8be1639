// PatternMerger — the `op`-driven interleaver of Algorithm 1.
//
// "The pattern merger extracts subsequences from each test pattern ... and
// then systematically merges all subsequences into one final test pattern.
// It is similar to a process scheduler." (§II-B).  The `op` parameter
// "indicates the pattern merger to produce the specific test pattern that
// can help the bug detector find out the specific bug such as slave system
// crashes or concurrency faults" (§III-B).
//
// Merge operators:
//   kSequential — concatenate patterns (no interleaving; the functional-
//                 testing strawman).
//   kRoundRobin — one service from each live pattern per round (fair
//                 scheduler model).
//   kRandom     — repeatedly pick a random live pattern (ConTest-flavoured
//                 schedule noise at the command level).
//   kCyclic     — rotate chunks that end right after a suspend (TS) /
//                 blocking-relevant service; this is the operator case
//                 study 2 uses to "force these tasks to complete several
//                 sets of cyclic execution sequences" and expose deadlock.
//   kShuffle    — random linear extension: a uniformly random interleaving
//                 that preserves each pattern's order.
#pragma once

#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "ptest/pattern/pattern.hpp"
#include "ptest/pfa/alphabet.hpp"
#include "ptest/support/rng.hpp"

namespace ptest::pattern {

enum class MergeOp : std::uint8_t {
  kSequential = 0,
  kRoundRobin,
  kRandom,
  kCyclic,
  kShuffle,
};

[[nodiscard]] const char* to_string(MergeOp op) noexcept;
[[nodiscard]] std::optional<MergeOp> merge_op_from_string(
    std::string_view name) noexcept;

struct MergerOptions {
  MergeOp op = MergeOp::kRoundRobin;
  /// For kCyclic: symbols that end a chunk — the scheduling boundaries the
  /// rotation aligns on.  Typically {TS, TR}: breaking after *suspend*
  /// parks every task in ring order, and breaking after *resume* makes the
  /// resumes a full rotation of their own, so every task is back in play
  /// before any task's cleanup (TD/TY) runs — the "several sets of cyclic
  /// execution sequences" of case study 2.  Empty = chunks bounded only by
  /// max_chunk (degenerates toward round robin).
  std::vector<pfa::SymbolId> cyclic_break_symbols;
  /// For kCyclic: upper bound on a chunk when no break symbol appears.
  /// 0 = unbounded — a chunk runs until a break symbol or the pattern's
  /// end (with no break symbols that degenerates to kSequential).
  std::size_t max_chunk = 8;
};

class PatternMerger {
 public:
  /// An unarmed merger, for callers that keep one and reset() it per
  /// merge.
  PatternMerger() = default;
  PatternMerger(MergerOptions options, support::Rng rng)
      : options_(std::move(options)), rng_(rng) {}

  /// Re-arms a kept merger: copies `options` into the kept ones and
  /// restarts the stream from `rng`.  The options and the working lists
  /// keep their capacity, so a warm reset() plus merge_into() allocates
  /// nothing.
  void reset(const MergerOptions& options, support::Rng rng);

  /// Merges `patterns` into `out`, replacing its elements and reusing its
  /// buffer; slot i corresponds to patterns[i].
  void merge_into(const std::vector<TestPattern>& patterns,
                  MergedPattern& out);

  /// merge_into() a fresh pattern.
  [[nodiscard]] MergedPattern merge(const std::vector<TestPattern>& patterns);

  /// Enumerates *all* interleavings of the patterns' orders, up to `limit`
  /// results (CHESS-style systematic exploration uses this; the count
  /// grows multinomially, so the limit matters).
  [[nodiscard]] static std::vector<MergedPattern> enumerate_interleavings(
      const std::vector<TestPattern>& patterns, std::size_t limit);

 private:
  void merge_sequential(const std::vector<TestPattern>& patterns,
                        MergedPattern& out);
  void merge_round_robin(const std::vector<TestPattern>& patterns,
                         MergedPattern& out);
  void merge_random(const std::vector<TestPattern>& patterns,
                    MergedPattern& out);
  void merge_cyclic(const std::vector<TestPattern>& patterns,
                    MergedPattern& out);
  void merge_shuffle(const std::vector<TestPattern>& patterns,
                     MergedPattern& out);

  MergerOptions options_;
  support::Rng rng_;
  /// Working lists, kept across merges: the next symbol index per slot,
  /// and the live slots (random) or the dealing deck (shuffle).
  std::vector<std::size_t> cursor_;
  std::vector<SlotIndex> live_;
};

}  // namespace ptest::pattern
