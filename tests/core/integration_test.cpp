// End-to-end pTest runs on the simulated OMAP: Algorithm 1 against the
// paper's two case studies, plus the detector/replay contracts.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "ptest/core/adaptive_test.hpp"
#include "ptest/core/bug_detector.hpp"
#include "ptest/core/replay.hpp"
#include "ptest/pcore/programs.hpp"
#include "ptest/scenario/registry.hpp"
#include "ptest/workload/philosophers.hpp"
#include "ptest/workload/quicksort.hpp"
#include "pfa/walk_probability.hpp"

namespace ptest::core {
namespace {

const char* kFig5Distributions =
    "TC -> TCH = 0.6; TC -> TS = 0.2; TC -> TD = 0.1; TC -> TY = 0.1;"
    "TCH -> TCH = 0.6; TCH -> TS = 0.2; TCH -> TD = 0.1; TCH -> TY = 0.1;"
    "TS -> TR = 1.0;"
    "TR -> TCH = 0.4; TR -> TS = 0.3; TR -> TY = 0.2; TR -> TD = 0.1";

PtestConfig base_config() {
  PtestConfig config;
  config.distributions = kFig5Distributions;
  return config;
}

TEST(IntegrationTest, CleanWorkloadPassesUnderStress) {
  PtestConfig config = base_config();
  config.n = 4;
  config.s = 8;
  config.program_id = workload::kQuicksortProgramId;
  pfa::Alphabet alphabet;
  const auto result =
      adaptive_test(config, alphabet, workload::register_quicksort);
  EXPECT_EQ(result.session.outcome, Outcome::kPassed)
      << (result.session.report
              ? result.session.report->render(alphabet)
              : "no report");
  EXPECT_GT(result.session.stats.commands_issued, 0u);
  EXPECT_EQ(result.session.stats.commands_issued,
            result.session.stats.commands_acked);
}

TEST(IntegrationTest, CaseStudy1StressFindsGcCrash) {
  // 16 concurrent quicksort tasks with create/delete churn against the
  // latent GC bug — pTest must surface a slave crash.
  PtestConfig config = base_config();
  config.n = 16;
  config.s = 24;
  config.restart_at_accept = true;  // keep churning lifecycles
  config.program_id = workload::kQuicksortProgramId;
  config.kernel.fault_plan.gc_corruption = true;
  config.kernel.fault_plan.churn_threshold = 24;
  config.kernel.fault_plan.live_block_threshold = 20;
  config.max_ticks = 500000;

  pfa::Alphabet alphabet;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 8 && !found; ++seed) {
    config.seed = seed;
    const auto result =
        adaptive_test(config, alphabet, workload::register_quicksort);
    if (result.session.outcome == Outcome::kBug) {
      ASSERT_TRUE(result.session.report.has_value());
      EXPECT_EQ(result.session.report->kind, BugKind::kSlaveCrash);
      EXPECT_NE(result.session.report->kernel.panic_reason.find("corrupted"),
                std::string::npos);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "GC crash not found in 8 stress runs";
}

TEST(IntegrationTest, CaseStudy1NoFalsePositiveWithoutFault) {
  PtestConfig config = base_config();
  config.n = 16;
  config.s = 12;
  config.program_id = workload::kQuicksortProgramId;
  config.max_ticks = 500000;
  pfa::Alphabet alphabet;
  const auto result =
      adaptive_test(config, alphabet, workload::register_quicksort);
  EXPECT_EQ(result.session.outcome, Outcome::kPassed);
}

TEST(IntegrationTest, CaseStudy2CyclicMergeFindsPhilosopherDeadlock) {
  PtestConfig config = base_config();
  config.n = 3;
  config.s = 10;
  config.op = pattern::MergeOp::kCyclic;
  config.program_id = workload::kPhilosopherProgramId;
  config.max_ticks = 100000;
  config.command_spacing = 12;

  pfa::Alphabet alphabet;
  const WorkloadSetup setup = [](pcore::PcoreKernel& kernel) {
    (void)workload::register_philosophers(kernel, /*buggy=*/true,
                                          /*meals=*/500);
  };

  bool found = false;
  BugReport report;
  PtestConfig found_config;
  for (std::uint64_t seed = 1; seed <= 32 && !found; ++seed) {
    config.seed = seed;
    const auto result = adaptive_test(config, alphabet, setup);
    if (result.session.outcome == Outcome::kBug &&
        result.session.report->kind == BugKind::kDeadlock) {
      found = true;
      report = *result.session.report;
      found_config = config;
    }
  }
  ASSERT_TRUE(found) << "deadlock not found in 32 cyclic runs";
  EXPECT_EQ(report.culprits.size(), 3u);  // the full philosopher cycle

  // Replay reproduces the identical deadlock (paper: "helps users
  // reproduce the bugs").
  const auto replayed = replay(report, found_config, alphabet, setup);
  EXPECT_TRUE(verify_reproduces(report, replayed))
      << "replayed outcome: " << to_string(replayed.outcome);
}

TEST(IntegrationTest, FixedPhilosophersNeverDeadlock) {
  PtestConfig config = base_config();
  config.n = 3;
  config.s = 10;
  config.op = pattern::MergeOp::kCyclic;
  config.program_id = workload::kPhilosopherProgramId;
  config.max_ticks = 100000;
  config.command_spacing = 12;
  pfa::Alphabet alphabet;
  const WorkloadSetup setup = [](pcore::PcoreKernel& kernel) {
    (void)workload::register_philosophers(kernel, /*buggy=*/false,
                                          /*meals=*/500);
  };
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    config.seed = seed;
    const auto result = adaptive_test(config, alphabet, setup);
    if (result.session.outcome == Outcome::kBug) {
      FAIL() << "ordered-acquisition control deadlocked: "
             << result.session.report->render(alphabet);
    }
  }
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  PtestConfig config = base_config();
  config.n = 4;
  config.s = 8;
  config.program_id = workload::kQuicksortProgramId;
  pfa::Alphabet alphabet;
  const auto first =
      adaptive_test(config, alphabet, workload::register_quicksort);
  const auto second =
      adaptive_test(config, alphabet, workload::register_quicksort);
  EXPECT_EQ(first.merged.elements, second.merged.elements);
  EXPECT_EQ(first.session.outcome, second.session.outcome);
  EXPECT_EQ(first.session.stats.ticks, second.session.stats.ticks);
  EXPECT_EQ(first.session.stats.commands_issued,
            second.session.stats.commands_issued);
}

TEST(IntegrationTest, NoTerminationDetectedForImmortalTasks) {
  // Tasks that never exit and are never deleted: the detector must flag
  // no-termination after the committer finishes (Fig. 1-style livelock
  // signature).
  PtestConfig config = base_config();
  config.regex = "TC$";  // create only
  config.distributions.clear();
  config.n = 2;
  config.s = 1;
  config.program_id = 50;
  config.detector.termination_horizon = 512;
  config.max_ticks = 100000;
  config.command_spacing = 12;
  pfa::Alphabet alphabet;
  const auto result = adaptive_test(config, alphabet,
                                    [](pcore::PcoreKernel& kernel) {
    kernel.register_program(50, [](std::uint32_t) {
      return pcore::Program{"idle", pcore::idle()};
    });
  });
  ASSERT_EQ(result.session.outcome, Outcome::kBug);
  EXPECT_EQ(result.session.report->kind, BugKind::kNoTermination);
  EXPECT_EQ(result.session.report->culprits.size(), 2u);
}

TEST(IntegrationTest, DedupReducesReplicasInShortPatterns) {
  PtestConfig config = base_config();
  config.n = 8;
  config.s = 2;
  config.dedup_patterns = true;
  pfa::WalkScratch scratch;
  const auto result = generate_and_merge(*compile(config), config.seed, scratch);
  EXPECT_EQ(result.patterns.size(), 8u);
  EXPECT_GT(result.duplicates_rejected, 0u);
}

/// generate_and_merge's result for `plan` at `seed`, built by hand: each
/// pattern is a Pfa::sample on the first fork of Rng(seed); with dedup, a
/// draw whose symbols an earlier pattern had is dropped for the first
/// n * 64 + 64 draws, and every later draw is kept; a PatternMerger on
/// the second fork merges them.
AdaptiveTestResult hand_generate(const CompiledTestPlan& plan,
                                 std::uint64_t seed) {
  support::Rng session_rng(seed);
  support::Rng generator_rng = session_rng.fork();
  support::Rng merger_rng = session_rng.fork();
  const std::size_t n = plan.config.n;
  AdaptiveTestResult out;
  std::set<std::vector<pfa::SymbolId>> seen;
  for (std::size_t draws = 1; out.patterns.size() < n; ++draws) {
    pattern::TestPattern sampled =
        plan.pfa.sample(generator_rng, plan.walk_options);
    if (plan.config.dedup_patterns && draws <= n * 64 + 64 &&
        !seen.insert(sampled.symbols).second) {
      ++out.duplicates_rejected;
      continue;
    }
    out.patterns.push_back(std::move(sampled));
  }
  pattern::PatternMerger merger(plan.merger_options, merger_rng);
  out.merged = merger.merge(out.patterns);
  return out;
}

/// Runs generate_and_merge on `plan` over 8 seeds, in place into one kept
/// result through one kept merger, and checks each against hand_generate.
/// Returns how many sessions took a replica into a slot.
std::size_t expect_hand_streams(const CompiledTestPlan& plan,
                                const std::string& label) {
  pfa::WalkScratch scratch;
  pattern::PatternMerger merger;
  AdaptiveTestResult kept;
  std::size_t with_replicas = 0;
  for (std::uint64_t k = 0; k < 8; ++k) {
    const std::uint64_t seed = support::derive_seed(plan.config.seed, k);
    SCOPED_TRACE(label + " seed#" + std::to_string(k));
    generate_and_merge(plan, seed, scratch, merger, kept);
    const AdaptiveTestResult hand = hand_generate(plan, seed);
    EXPECT_EQ(kept.patterns.size(), hand.patterns.size());
    if (kept.patterns.size() != hand.patterns.size()) continue;
    std::set<std::vector<pfa::SymbolId>> distinct;
    for (std::size_t i = 0; i < hand.patterns.size(); ++i) {
      EXPECT_EQ(kept.patterns[i].symbols, hand.patterns[i].symbols) << i;
      EXPECT_EQ(kept.patterns[i].edges, hand.patterns[i].edges) << i;
      EXPECT_EQ(kept.patterns[i].accepted, hand.patterns[i].accepted) << i;
      EXPECT_EQ(pfa::walk_probability(plan.pfa, kept.patterns[i]),
                pfa::walk_probability(plan.pfa, hand.patterns[i]))
          << i;
      distinct.insert(hand.patterns[i].symbols);
    }
    EXPECT_EQ(kept.merged.elements, hand.merged.elements);
    EXPECT_EQ(kept.duplicates_rejected, hand.duplicates_rejected);
    with_replicas += distinct.size() < hand.patterns.size();
  }
  return with_replicas;
}

TEST(GenerateAndMergeTest, PatternsAreTheGeneratorForkSampledInPlace) {
  const auto& catalog = scenario::ScenarioRegistry::builtin().all();
  ASSERT_GE(catalog.size(), 5u);
  for (std::size_t e = 0; e < 5; ++e) {
    for (const bool dedup : {false, true}) {
      PtestConfig config = catalog[e].config;
      config.dedup_patterns = dedup;
      const std::string label =
          catalog[e].name + (dedup ? " +dedup" : " -dedup");
      const std::size_t with_replicas =
          expect_hand_streams(*compile(config), label);
      // The catalog plans' languages hold n distinct patterns, so dedup
      // never falls back to replicas on them.
      if (dedup) {
        EXPECT_EQ(with_replicas, 0u) << label;
      }
    }
    // A one-symbol language cannot fill n distinct slots: dedup gives up
    // after n * 64 + 64 draws and the open slots take replicas.
    PtestConfig small = catalog[e].config;
    small.dedup_patterns = true;
    small.s = 1;
    small.n = 8;
    EXPECT_EQ(expect_hand_streams(*compile(small), catalog[e].name + " s=1"),
              8u)
        << catalog[e].name;
  }
}

TEST(BugDetectorUnitTest, FindsThreeTaskCycleBuiltByHand) {
  // Deterministically build the philosopher deadlock at the kernel level
  // by suspending each task right after it acquires its first fork.
  pcore::PcoreKernel kernel;
  sim::Soc soc;
  soc.attach(kernel);
  const auto table = workload::register_philosophers(kernel, /*buggy=*/true);

  std::array<pcore::TaskId, 3> tasks{};
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_EQ(kernel.task_create(workload::kPhilosopherProgramId, i,
                                 static_cast<pcore::Priority>(5 + i),
                                 tasks[i]),
              pcore::Status::kOk);
    // Run until this philosopher holds its first fork, then suspend it.
    for (int step = 0; step < 100; ++step) {
      if (kernel.mutex(table.forks[i]).owner == tasks[i]) break;
      (void)soc.step();
    }
    ASSERT_EQ(kernel.mutex(table.forks[i]).owner, tasks[i]);
    ASSERT_EQ(kernel.task_suspend(tasks[i]), pcore::Status::kOk);
  }
  // Resume all: each now blocks on its second fork -> cycle.  (Each task
  // finishes its hold-and-wait window — up to ~20 steps — before its
  // second lock, and they run one at a time.)
  for (const auto t : tasks) ASSERT_EQ(kernel.task_resume(t), pcore::Status::kOk);
  (void)soc.run(300);

  const auto cycle = BugDetector::find_deadlock_cycle(kernel);
  EXPECT_EQ(cycle.size(), 3u);
}

TEST(BugDetectorUnitTest, NoCycleWithoutDeadlock) {
  pcore::PcoreKernel kernel;
  EXPECT_TRUE(BugDetector::find_deadlock_cycle(kernel).empty());
}

// Property sweep: merge op × seed — sessions always terminate decisively.
struct SweepParam {
  pattern::MergeOp op;
  std::uint64_t seed;
};

class SessionSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SessionSweep, EveryConfigurationTerminatesDecisively) {
  PtestConfig config = base_config();
  config.n = 4;
  config.s = 6;
  config.op = GetParam().op;
  config.seed = GetParam().seed;
  config.program_id = workload::kQuicksortProgramId;
  pfa::Alphabet alphabet;
  const auto result =
      adaptive_test(config, alphabet, workload::register_quicksort);
  EXPECT_NE(result.session.outcome, Outcome::kTickLimit);
}

INSTANTIATE_TEST_SUITE_P(
    OpsAndSeeds, SessionSweep,
    ::testing::Values(SweepParam{pattern::MergeOp::kSequential, 1},
                      SweepParam{pattern::MergeOp::kRoundRobin, 2},
                      SweepParam{pattern::MergeOp::kRandom, 3},
                      SweepParam{pattern::MergeOp::kCyclic, 4},
                      SweepParam{pattern::MergeOp::kShuffle, 5},
                      SweepParam{pattern::MergeOp::kRoundRobin, 6},
                      SweepParam{pattern::MergeOp::kCyclic, 7},
                      SweepParam{pattern::MergeOp::kShuffle, 8}));

}  // namespace
}  // namespace ptest::core
