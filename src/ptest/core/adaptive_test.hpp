// AdaptiveTest — Algorithm 1 of the paper.
//
//   procedure AdaptiveTest(RE, n, s, op):
//     for i = 1..n:  T[i] <- PatternGenerator(RE, PD, s)
//     M <- PatternMerger(T, n, op)
//     fork BugDetector;  Committer(M)
//
// PatternGenerator (Algorithm 2) is Pfa::sample_into on the compiled
// PFA, writing T[i] in place into the result's pattern slot i.
//
// The implementation is split into two stages (see test_plan.hpp):
//
//   compile(config, alphabet)                     -> CompiledTestPlan
//   execute(plan, seed, setup, scratch, rig, out) -> one session in `out`
//
// so that campaigns build the PFA artifact once per arm and only the
// seed-dependent sampling / merging / session work runs per session.
// Every src/ caller that runs more than one session (campaigns, guided
// epochs, the systematic baseline) keeps a SessionRig and loads each
// session into it; a rig serves any plan with its config and alphabet.
// adaptive_test() keeps the original one-shot signature as a thin
// compile-then-execute wrapper for callers that run a single session.
#pragma once

#include "ptest/core/session.hpp"
#include "ptest/core/test_plan.hpp"

namespace ptest::core {

struct AdaptiveTestResult {
  SessionResult session;
  std::vector<pattern::TestPattern> patterns;
  pattern::MergedPattern merged;
  /// Patterns rejected as replicas (only when config.dedup_patterns).
  std::size_t duplicates_rejected = 0;
};

/// Runs one adaptive test against a precompiled plan into `out`: samples
/// n patterns through the caller's scratch into out.patterns, merges them
/// with the plan's op into out.merged through the rig's kept merger, and
/// runs the session on `rig`, which must be a rig built from a plan with
/// the same config and alphabet (`plan` itself, or the plan it was
/// refined from: a guided epoch's refined plans only move
/// probabilities).  Every step reuses the capacity `out` and the
/// rig already have, so a caller that keeps one `out` per rig runs warm
/// sessions allocating only what the session's tasks allocate.  A report
/// comes back as its head; rig.complete_report() fills its body until
/// the rig's next load() (see SessionRig::run).  Every random stream
/// derives from `seed`; the plan is shared read-only, so concurrent
/// calls on the same plan are safe as long as each caller passes its own
/// scratch, rig and `out`.  This is the one session path; the overload
/// below wraps it.
void execute(const CompiledTestPlan& plan, std::uint64_t seed,
             const WorkloadSetup& setup, pfa::WalkScratch& scratch,
             SessionRig& rig, AdaptiveTestResult& out);

/// execute() into a fresh result on a freshly built rig, with the report
/// completed.  The result is the same as on a kept rig.
[[nodiscard]] AdaptiveTestResult execute(const CompiledTestPlan& plan,
                                         std::uint64_t seed,
                                         const WorkloadSetup& setup,
                                         pfa::WalkScratch& scratch);

/// The generation+merge phases only (no session) against a precompiled
/// plan, into `out`'s patterns and merged pattern through `merger` (which
/// it re-arms); leaves out.session alone.  Pattern i is sampled in place
/// into out.patterns[i] on the first fork of Rng(seed); the merger draws
/// from the second.  Under config.dedup_patterns a candidate whose
/// symbols equal an accepted slot's is a replica and is resampled.  The
/// sampling hot path a campaign pays per session: warm, with dedup or
/// without, it allocates nothing.
void generate_and_merge(const CompiledTestPlan& plan, std::uint64_t seed,
                        pfa::WalkScratch& scratch,
                        pattern::PatternMerger& merger,
                        AdaptiveTestResult& out);

/// generate_and_merge() into a fresh result through a fresh merger.
[[nodiscard]] AdaptiveTestResult generate_and_merge(
    const CompiledTestPlan& plan, std::uint64_t seed,
    pfa::WalkScratch& scratch);

/// One-shot wrapper: compile(config, alphabet) + execute(plan,
/// config.seed, setup) through a call-local scratch.  Interned symbols
/// are copied back into `alphabet` so callers can render the result.
[[nodiscard]] AdaptiveTestResult adaptive_test(const PtestConfig& config,
                                               pfa::Alphabet& alphabet,
                                               const WorkloadSetup& setup);

}  // namespace ptest::core
