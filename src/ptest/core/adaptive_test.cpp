#include "ptest/core/adaptive_test.hpp"

#include "ptest/obs/trace.hpp"
#include "ptest/pattern/dedup.hpp"

namespace ptest::core {

// Sampling + merge phases of Algorithm 1 against a compiled plan.  All
// randomness derives from `seed` via the same fork order the one-shot
// API used, so adaptive_test() and plan-based callers see identical
// streams.
AdaptiveTestResult generate_and_merge(const CompiledTestPlan& plan,
                                      std::uint64_t seed,
                                      pfa::WalkScratch& scratch) {
  support::Rng session_rng(seed);
  support::Rng generator_rng = session_rng.fork();
  support::Rng merger_rng = session_rng.fork();

  const PtestConfig& config = plan.config;
  pattern::PatternGenerator generator(plan.pfa, plan.generator_options,
                                      generator_rng);

  // Session-scoped reuse accounting: the high-water mark restarts so the
  // counters are a pure function of (plan, seed), not of which worker's
  // scratch this session happened to land on.
  scratch.begin_session();
  const std::uint64_t reuse_before = scratch.reuse_hits();
  const std::uint64_t bytes_before = scratch.alloc_bytes_saved();

  AdaptiveTestResult result;
  if (config.dedup_patterns) {
    // One span per session's dedup'd sampling loop, not per candidate:
    // per-pattern events would dominate the ring at production rates.
    PTEST_OBS_SPAN("dedup");
    pattern::PatternDeduper deduper;
    // Keep sampling until n unique patterns (bounded retry).
    std::size_t attempts = 0;
    const std::size_t max_attempts = config.n * 64 + 64;
    while (result.patterns.size() < config.n && attempts < max_attempts) {
      ++attempts;
      pattern::TestPattern candidate = generator.generate(scratch);
      if (deduper.insert(candidate)) {
        result.patterns.push_back(std::move(candidate));
      }
    }
    result.duplicates_rejected = deduper.rejected_count();
    // Language too small for n distinct patterns: accept replicas to keep
    // the configured concurrency.
    while (result.patterns.size() < config.n) {
      result.patterns.push_back(generator.generate(scratch));
    }
  } else {
    result.patterns = generator.generate(config.n, scratch);
  }

  pattern::PatternMerger merger(plan.merger_options, merger_rng);
  result.merged = merger.merge(result.patterns);
  result.scratch_reuse_hits = scratch.reuse_hits() - reuse_before;
  result.sample_alloc_bytes_saved = scratch.alloc_bytes_saved() - bytes_before;
  return result;
}

AdaptiveTestResult execute(const CompiledTestPlan& plan, std::uint64_t seed,
                           const WorkloadSetup& setup,
                           pfa::WalkScratch& scratch, SessionRig& rig) {
  AdaptiveTestResult result = generate_and_merge(plan, seed, scratch);
  rig.load(seed, result.merged, result.patterns, setup);
  result.session = rig.run();
  return result;
}

AdaptiveTestResult execute(const CompiledTestPlan& plan, std::uint64_t seed,
                           const WorkloadSetup& setup,
                           pfa::WalkScratch& scratch) {
  SessionRig rig(plan.config, plan.alphabet);
  return execute(plan, seed, setup, scratch, rig);
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
