#include <gtest/gtest.h>

#include "ptest/baseline/noise.hpp"
#include "ptest/baseline/random_walk.hpp"
#include "ptest/baseline/systematic.hpp"
#include "ptest/pattern/merger.hpp"
#include "ptest/scenario/registry.hpp"
#include "ptest/workload/philosophers.hpp"
#include "ptest/workload/quicksort.hpp"

namespace ptest::baseline {
namespace {

core::PtestConfig quicksort_config() {
  core::PtestConfig config;
  config.n = 4;
  config.s = 6;
  config.program_id = workload::kQuicksortProgramId;
  return config;
}

TEST(NoiseTest, ArmsKernelAndCommitterNoise) {
  const auto config = with_contest_noise(quicksort_config(), {0.3, 5});
  EXPECT_DOUBLE_EQ(config.kernel.schedule_noise, 0.3);
  EXPECT_EQ(config.noise_max_delay, 5u);
  EXPECT_EQ(config.op, pattern::MergeOp::kRoundRobin);
}

TEST(NoiseTest, NoisySessionStillPassesCleanWorkload) {
  const auto config = with_contest_noise(quicksort_config(), {0.25, 4});
  pfa::Alphabet alphabet;
  const auto result =
      core::adaptive_test(config, alphabet, workload::register_quicksort);
  EXPECT_EQ(result.session.outcome, core::Outcome::kPassed);
}

TEST(RandomWalkTest, PatternIsUniformOverServicesAndSlots) {
  pfa::Alphabet alphabet;
  bridge::intern_service_alphabet(alphabet);
  support::Rng rng(5);
  const auto merged = random_command_pattern(alphabet, 4, 6000, rng);
  ASSERT_EQ(merged.size(), 6000u);
  std::map<pfa::SymbolId, int> symbol_counts;
  std::map<pattern::SlotIndex, int> slot_counts;
  for (const auto& e : merged.elements) {
    ++symbol_counts[e.symbol];
    ++slot_counts[e.slot];
  }
  EXPECT_EQ(symbol_counts.size(), 6u);
  EXPECT_EQ(slot_counts.size(), 4u);
  for (const auto& [symbol, count] : symbol_counts) {
    EXPECT_NEAR(count, 1000, 150);
  }
}

TEST(RandomWalkTest, MostRandomCommandsAreWastedOnIllegalSequences) {
  // The paper's motivation for model-driven patterns: naive random
  // command sequences are mostly illegal — the committer cannot even
  // issue services for slots with no live task, and issued ones bounce
  // off the kernel's state checks.
  core::PtestConfig config = quicksort_config();
  config.s = 25;  // 100 random commands
  config.seed = 1;
  config.detector.termination_horizon = 100000;  // tolerate leftovers
  config.max_ticks = 300000;
  pfa::Alphabet alphabet;
  const auto result =
      random_baseline_test(config, alphabet, workload::register_quicksort);
  const std::size_t total = result.merged.size();
  ASSERT_EQ(total, 100u);
  // Most elements were not even issuable (unbound slots)...
  EXPECT_LT(result.session.stats.commands_issued, total / 2);
  // ...and of those issued, some still failed kernel state checks.
  EXPECT_GT(result.session.stats.commands_failed, 0u);
}

TEST(SystematicTest, ExhaustsTinyStateSpace) {
  core::PtestConfig config = quicksort_config();
  config.n = 2;
  config.s = 2;
  pfa::Alphabet alphabet;
  const auto result = systematic_explore(config, alphabet,
                                         workload::register_quicksort);
  EXPECT_FALSE(result.found);  // clean workload
  EXPECT_GT(result.runs_executed, 0u);
  EXPECT_GT(result.interleavings_total, 1u);
}

TEST(SystematicTest, FindsPhilosopherDeadlockExhaustively) {
  core::PtestConfig config;
  config.n = 3;
  config.s = 4;
  config.program_id = workload::kPhilosopherProgramId;
  config.max_ticks = 50000;
  pfa::Alphabet alphabet;
  SystematicOptions options;
  options.max_interleavings = 4096;
  options.max_runs = 4096;
  const auto result = systematic_explore(
      config, alphabet,
      [](pcore::PcoreKernel& kernel) {
        (void)workload::register_philosophers(kernel, /*buggy=*/true,
                                              /*meals=*/3);
      },
      options);
  // Systematic exploration provides certainty on this tiny space — it
  // either finds the deadlock or proves none is reachable from these
  // patterns.  Either way it must terminate within budget.
  EXPECT_LE(result.runs_executed, options.max_runs);
  if (result.found) {
    EXPECT_EQ(result.report->kind, core::BugKind::kDeadlock);
  }
}

TEST(SystematicTest, BudgetCapsEnumeration) {
  core::PtestConfig config = quicksort_config();
  config.n = 4;
  config.s = 6;
  pfa::Alphabet alphabet;
  SystematicOptions options;
  options.max_interleavings = 10;
  options.max_runs = 3;
  const auto result = systematic_explore(config, alphabet,
                                         workload::register_quicksort,
                                         options);
  EXPECT_TRUE(result.exhausted_budget);
  EXPECT_LE(result.runs_executed, 3u);
}

// --- systematic_explore against a session per interleaving ---------------

/// systematic_explore as a loop that wires a fresh TestSession for each
/// interleaving: the oracle for the one kept rig the explorer loads
/// every interleaving into.
SystematicResult explore_with_fresh_sessions(const core::PtestConfig& config,
                                             const core::WorkloadSetup& setup,
                                             const SystematicOptions& options) {
  const core::CompiledTestPlanPtr plan = core::compile(config);
  pfa::WalkScratch scratch;
  const core::AdaptiveTestResult generated =
      core::generate_and_merge(*plan, config.seed, scratch);
  const std::vector<pattern::MergedPattern> interleavings =
      pattern::PatternMerger::enumerate_interleavings(
          generated.patterns, options.max_interleavings);
  SystematicResult result;
  result.interleavings_total = interleavings.size();
  result.exhausted_budget =
      interleavings.size() >= options.max_interleavings;
  for (const pattern::MergedPattern& merged : interleavings) {
    if (result.runs_executed >= options.max_runs) {
      result.exhausted_budget = true;
      break;
    }
    ++result.runs_executed;
    core::TestSession session(config, plan->alphabet, merged,
                              generated.patterns, setup);
    core::SessionResult session_result = session.run();
    if (session_result.outcome == core::Outcome::kBug) {
      result.found = true;
      result.report = std::move(session_result.report);
      break;
    }
  }
  return result;
}

void expect_matches_fresh_sessions(const core::PtestConfig& config,
                                   const core::WorkloadSetup& setup,
                                   const SystematicOptions& options) {
  pfa::Alphabet alphabet;
  const SystematicResult kept =
      systematic_explore(config, alphabet, setup, options);
  const SystematicResult fresh =
      explore_with_fresh_sessions(config, setup, options);
  EXPECT_EQ(kept.found, fresh.found);
  EXPECT_EQ(kept.runs_executed, fresh.runs_executed);
  EXPECT_EQ(kept.interleavings_total, fresh.interleavings_total);
  EXPECT_EQ(kept.exhausted_budget, fresh.exhausted_budget);
  ASSERT_EQ(kept.report.has_value(), fresh.report.has_value());
  if (!kept.report) return;
  EXPECT_EQ(kept.report->signature(), fresh.report->signature());
  EXPECT_EQ(kept.report->seed, fresh.report->seed);
  EXPECT_EQ(kept.report->merged.elements, fresh.report->merged.elements);
}

TEST(SystematicTest, TinyStateSpaceMatchesFreshSessions) {
  core::PtestConfig config = quicksort_config();
  config.n = 2;
  config.s = 2;
  expect_matches_fresh_sessions(config, workload::register_quicksort, {});
}

TEST(SystematicTest, BudgetCappedRunMatchesFreshSessions) {
  SystematicOptions options;
  options.max_interleavings = 10;
  options.max_runs = 3;
  expect_matches_fresh_sessions(quicksort_config(),
                                workload::register_quicksort, options);
}

TEST(SystematicTest, FoundBugMatchesFreshSessions) {
  // A crash found a few interleavings in: the kept rig has run clean
  // sessions before the one that files the report.
  const scenario::Scenario* entry =
      scenario::ScenarioRegistry::builtin().find("aba-stack");
  ASSERT_NE(entry, nullptr);
  pfa::Alphabet alphabet;
  const SystematicResult result =
      systematic_explore(entry->config, alphabet, entry->setup);
  ASSERT_TRUE(result.found);
  EXPECT_GT(result.runs_executed, 1u);
  expect_matches_fresh_sessions(entry->config, entry->setup, {});
}

}  // namespace
}  // namespace ptest::baseline
