// Compile-once / execute-many split of Algorithm 1.
//
// The paper treats the PFA as a fixed artifact that many test sessions
// sample from, but the original adaptive_test() rebuilt the whole
// regex -> NFA -> DFA -> PFA pipeline (and re-parsed the distribution
// text) on every call — so a campaign's throughput was dominated by
// redundant compilation instead of session execution.
//
// A CompiledTestPlan freezes everything about an AdaptiveTest that does
// NOT depend on the per-run seed: the interned alphabet, the parsed
// regular expression, the parsed DistributionSpec, the built PFA, and
// the walk/merger options (cyclic break mnemonics resolved to symbol ids
// once).  Plans are held as std::shared_ptr<const ...>:
// after compile() returns, nothing ever mutates the plan, so any number
// of threads may execute() against the same plan concurrently without
// synchronization.  A plan is also a plain value: SessionBatchRunner
// copies it onto each helper thread, so no helper reads cache lines next
// to the caller's per-session allocations.
//
// Determinism: execute(plan, seed, setup, scratch) seeds every random
// stream from `seed` exactly the way adaptive_test(config, ...) seeds
// them from config.seed, so a compiled plan run under seed s is
// bit-identical to a one-shot adaptive_test with config.seed = s (and
// campaigns to any jobs=N schedule).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "ptest/core/config.hpp"
#include "ptest/pfa/pfa.hpp"

namespace ptest::core {

struct CompiledTestPlan {
  /// The config the plan was compiled from.  config.seed is only the
  /// default: execute() takes the per-run seed explicitly.
  PtestConfig config;
  /// Interned symbols — the six service mnemonics plus whatever the
  /// regex / distribution text introduced.  Shared read-only.
  pfa::Alphabet alphabet;
  pfa::Regex regex;
  pfa::DistributionSpec spec;
  pfa::Pfa pfa;
  /// The walk options every pattern is sampled with (Pfa::sample_into):
  /// config.s and the complete/restart flags.
  pfa::WalkOptions walk_options;
  /// Merge options: config.op, cyclic breaks at TC, TS and TR.
  pattern::MergerOptions merger_options;
};

using CompiledTestPlanPtr = std::shared_ptr<const CompiledTestPlan>;

/// Builds the fixed artifact once: interns the service alphabet on top
/// of `alphabet` (which may already hold symbols from other expressions
/// over the same service set), parses config.regex and
/// config.distributions, constructs the PFA, and resolves the
/// walk/merger options.  Throws what the underlying parsers /
/// constructors throw (RegexParseError, std::invalid_argument).
[[nodiscard]] CompiledTestPlanPtr compile(const PtestConfig& config,
                                          const pfa::Alphabet& alphabet = {});

/// compile() with `spec` (when engaged) replacing the parse of
/// config.distributions — everything else identical.  This is how the
/// guided campaign recompiles a refined plan each epoch: the refiner
/// produces a DistributionSpec programmatically (per-state weights have
/// no parse syntax), and the compile/execute split then treats the
/// refined plan exactly like any other.
[[nodiscard]] CompiledTestPlanPtr compile_with_spec(
    const PtestConfig& config, std::optional<pfa::DistributionSpec> spec,
    const pfa::Alphabet& alphabet = {});

}  // namespace ptest::core
