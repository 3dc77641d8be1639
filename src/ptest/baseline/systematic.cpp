#include "ptest/baseline/systematic.hpp"

#include <utility>

#include "ptest/pattern/merger.hpp"

namespace ptest::baseline {

SystematicResult systematic_explore(const core::PtestConfig& config,
                                    pfa::Alphabet& alphabet,
                                    const core::WorkloadSetup& setup,
                                    const SystematicOptions& options) {
  const core::CompiledTestPlanPtr plan = core::compile(config, alphabet);
  alphabet = plan->alphabet;  // hand interned symbols back to the caller
  pfa::WalkScratch scratch;
  core::AdaptiveTestResult generated =
      core::generate_and_merge(*plan, config.seed, scratch);

  const std::vector<pattern::MergedPattern> interleavings =
      pattern::PatternMerger::enumerate_interleavings(
          generated.patterns, options.max_interleavings);

  SystematicResult result;
  result.interleavings_total = interleavings.size();
  result.exhausted_budget =
      interleavings.size() >= options.max_interleavings;

  // One rig serves every interleaving: each is a load and a run into the
  // same kept result.
  core::SessionRig rig(plan->config, plan->alphabet);
  core::SessionResult session;
  for (const pattern::MergedPattern& merged : interleavings) {
    if (result.runs_executed >= options.max_runs) {
      result.exhausted_budget = true;
      break;
    }
    ++result.runs_executed;
    rig.load(config.seed, merged, generated.patterns, setup);
    rig.run(session);
    if (session.outcome == core::Outcome::kBug) {
      result.found = true;
      rig.complete_report(*session.report);
      result.report = std::move(session.report);
      break;
    }
  }
  return result;
}

}  // namespace ptest::baseline
