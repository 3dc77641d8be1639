#include "ptest/core/adaptive_test.hpp"

#include <algorithm>

#include "ptest/obs/trace.hpp"

namespace ptest::core {

// Sampling + merge phases of Algorithm 1 against a compiled plan.  All
// randomness derives from `seed` via the same fork order the one-shot
// API used, so adaptive_test() and plan-based callers see identical
// streams.
void generate_and_merge(const CompiledTestPlan& plan, std::uint64_t seed,
                        pfa::WalkScratch& scratch,
                        pattern::PatternMerger& merger,
                        AdaptiveTestResult& out) {
  support::Rng session_rng(seed);
  support::Rng generator_rng = session_rng.fork();
  support::Rng merger_rng = session_rng.fork();

  const std::size_t n = plan.config.n;
  out.patterns.resize(n);
  out.duplicates_rejected = 0;
  const auto sample = [&](pattern::TestPattern& slot) {
    plan.pfa.sample_into(slot, scratch, generator_rng, plan.walk_options);
  };
  std::size_t accepted = 0;
  if (plan.config.dedup_patterns) {
    // One span per session's dedup'd sampling loop, not per candidate:
    // per-pattern events would dominate the ring at production rates.
    PTEST_OBS_SPAN("dedup");
    // Keep sampling until n unique patterns (bounded retry); a rejected
    // candidate is overwritten by the next.  A replica is a candidate
    // whose symbols equal an accepted slot's: n is a handful, so a scan
    // of the accepted slots decides it without allocating.
    const std::size_t max_attempts = n * 64 + 64;
    for (std::size_t attempts = 0; accepted < n && attempts < max_attempts;
         ++attempts) {
      pattern::TestPattern& candidate = out.patterns[accepted];
      sample(candidate);
      const auto replica = [&](const pattern::TestPattern& kept) {
        return kept.symbols == candidate.symbols;
      };
      if (std::any_of(out.patterns.begin(),
                      out.patterns.begin() + accepted, replica)) {
        ++out.duplicates_rejected;
      } else {
        ++accepted;
      }
    }
  }
  // Without dedup, every slot; with it, a language too small for n
  // distinct patterns accepts replicas to keep the configured concurrency.
  for (; accepted < n; ++accepted) sample(out.patterns[accepted]);

  // Room for the longest merge, so a kept result is sized once.
  out.merged.elements.reserve(n * plan.pfa.longest_walk(plan.walk_options));
  merger.reset(plan.merger_options, merger_rng);
  merger.merge_into(out.patterns, out.merged);
}

AdaptiveTestResult generate_and_merge(const CompiledTestPlan& plan,
                                      std::uint64_t seed,
                                      pfa::WalkScratch& scratch) {
  AdaptiveTestResult result;
  pattern::PatternMerger merger;
  generate_and_merge(plan, seed, scratch, merger, result);
  return result;
}

void execute(const CompiledTestPlan& plan, std::uint64_t seed,
             const WorkloadSetup& setup, pfa::WalkScratch& scratch,
             SessionRig& rig, AdaptiveTestResult& out) {
  generate_and_merge(plan, seed, scratch, rig.merger(), out);
  rig.load(seed, out.merged, out.patterns, setup);
  rig.run(out.session);
}

AdaptiveTestResult execute(const CompiledTestPlan& plan, std::uint64_t seed,
                           const WorkloadSetup& setup,
                           pfa::WalkScratch& scratch) {
  SessionRig rig(plan.config, plan.alphabet);
  AdaptiveTestResult result;
  execute(plan, seed, setup, scratch, rig, result);
  if (result.session.report) rig.complete_report(*result.session.report);
  return result;
}

AdaptiveTestResult adaptive_test(const PtestConfig& config,
                                 pfa::Alphabet& alphabet,
                                 const WorkloadSetup& setup) {
  const CompiledTestPlanPtr plan = compile(config, alphabet);
  alphabet = plan->alphabet;  // hand interned symbols back to the caller
  pfa::WalkScratch scratch;
  return execute(*plan, config.seed, setup, scratch);
}

}  // namespace ptest::core
