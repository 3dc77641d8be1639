// End-to-end pTest runs on the simulated OMAP: Algorithm 1 against the
// paper's two case studies, plus the detector/replay contracts.
#include <gtest/gtest.h>

#include "ptest/core/adaptive_test.hpp"
#include "ptest/core/bug_detector.hpp"
#include "ptest/core/replay.hpp"
#include "ptest/pcore/programs.hpp"
#include "ptest/workload/philosophers.hpp"
#include "ptest/workload/quicksort.hpp"

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
