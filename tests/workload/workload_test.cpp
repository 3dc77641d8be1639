#include <gtest/gtest.h>

#include <algorithm>

#include "ptest/support/fnv.hpp"
#include "ptest/workload/fig1.hpp"
#include "ptest/workload/philosophers.hpp"
#include "ptest/workload/quicksort.hpp"
#include "ptest/workload/seeded_bugs.hpp"

namespace ptest::workload {
namespace {

TEST(QuicksortTest, SortsItsDataWhenRunAlone) {
  pcore::PcoreKernel kernel;
  register_quicksort(kernel);
  sim::Soc soc;
  soc.attach(kernel);
  pcore::TaskId task = pcore::kInvalidTask;
  ASSERT_EQ(kernel.task_create(kQuicksortProgramId, /*seed=*/3, 5, task),
            pcore::Status::kOk);
  (void)soc.run(2000);
  // Program exits 0 on a verified sort; slot freed, no panic.
  EXPECT_EQ(kernel.live_task_count(), 0u);
  EXPECT_FALSE(kernel.panicked());
}

TEST(QuicksortTest, DifferentSeedsDifferentData) {
  const auto a = quicksort_input(1);
  EXPECT_NE(a, quicksort_input(2));
  EXPECT_EQ(a, quicksort_input(1));
  EXPECT_EQ(a.size(), kQuicksortElements);
}

TEST(QuicksortTest, SurvivesSuspendResumeMidSort) {
  pcore::PcoreKernel kernel;
  register_quicksort(kernel);
  sim::Soc soc;
  soc.attach(kernel);
  pcore::TaskId task = pcore::kInvalidTask;
  ASSERT_EQ(kernel.task_create(kQuicksortProgramId, 1, 5, task),
            pcore::Status::kOk);
  (void)soc.run(20);
  ASSERT_EQ(kernel.task_suspend(task), pcore::Status::kOk);
  (void)soc.run(100);
  ASSERT_EQ(kernel.task_resume(task), pcore::Status::kOk);
  (void)soc.run(2000);
  EXPECT_EQ(kernel.live_task_count(), 0u);
  EXPECT_FALSE(kernel.panicked());
}

TEST(PhilosophersTest, RunAloneEachFinishesMeals) {
  pcore::PcoreKernel kernel;
  (void)register_philosophers(kernel, /*buggy=*/true, /*meals=*/2);
  sim::Soc soc;
  soc.attach(kernel);
  // Sequential execution (unique priorities, no suspends): no deadlock
  // even for the buggy variant.
  for (std::uint32_t i = 0; i < 3; ++i) {
    pcore::TaskId task = pcore::kInvalidTask;
    ASSERT_EQ(kernel.task_create(kPhilosopherProgramId, i,
                                 static_cast<pcore::Priority>(5 + i), task),
              pcore::Status::kOk);
  }
  (void)soc.run(5000);
  EXPECT_EQ(kernel.live_task_count(), 0u);
  EXPECT_FALSE(kernel.panicked());
}

TEST(PhilosophersTest, BuggyOrderIsCyclicFixedIsNot) {
  pcore::PcoreKernel kernel;
  const auto table = register_philosophers(kernel, true);
  // Buggy: every philosopher takes its own fork, then its right
  // neighbour's — the cycle fork0 -> fork1 -> fork2 -> fork0.
  for (std::uint32_t i = 0; i < kPhilosopherCount; ++i) {
    const auto [first, second] = philosopher_forks(table, i, /*buggy=*/true);
    EXPECT_EQ(first, table.forks[i]);
    EXPECT_EQ(second, table.forks[(i + 1) % kPhilosopherCount]);
  }
  // Fixed: lower mutex id first, so philosopher 2 takes fork0 then fork2.
  const auto fixed = philosopher_forks(table, 2, /*buggy=*/false);
  EXPECT_EQ(fixed.first, std::min(table.forks[0], table.forks[2]));
  EXPECT_EQ(fixed.second, std::max(table.forks[0], table.forks[2]));
  // The index is taken modulo the table size.
  EXPECT_EQ(philosopher_forks(table, 5, true),
            philosopher_forks(table, 2, true));
}

TEST(PhilosophersTest, FirstLockStepTakesTheFirstFork) {
  // The registered body locks the forks philosopher_forks names, in order.
  for (const bool buggy : {true, false}) {
    pcore::PcoreKernel kernel;
    const auto table = register_philosophers(kernel, buggy);
    sim::Soc soc;
    soc.attach(kernel);
    pcore::TaskId task = pcore::kInvalidTask;
    ASSERT_EQ(kernel.task_create(kPhilosopherProgramId, 2, 5, task),
              pcore::Status::kOk);
    const auto [first, second] = philosopher_forks(table, 2, buggy);
    for (int i = 0; i < 4 && !kernel.mutex(first).owner; ++i) (void)soc.step();
    EXPECT_EQ(kernel.mutex(first).owner, task);
    EXPECT_FALSE(kernel.mutex(second).owner.has_value());
  }
}

TEST(Fig1Test, SimultaneousResumesLivelock) {
  // Both resumes land together: S2 (higher priority) sets y, spins on x
  // after S1 set x — the paper's K a L f g h b c g h ... order.
  Fig1Options options;
  options.m1_delay = 0;
  options.m2_delay = 0;
  const Fig1Result result = run_fig1(options);
  EXPECT_TRUE(result.livelocked);
  EXPECT_FALSE(result.completed);
  // Both tasks kept spinning (many steps, no exit).
  EXPECT_GT(result.s1_steps, 10u);
  EXPECT_GT(result.s2_steps, 10u);
}

TEST(Fig1Test, WellSeparatedResumesComplete) {
  // M2 resumes S2 long after S1 finished: the L f g K i j a b d e-style
  // completion order.
  Fig1Options options;
  options.m1_delay = 0;
  options.m2_delay = 500;
  const Fig1Result result = run_fig1(options);
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.livelocked);
}

TEST(Fig1Test, SweepFindsBothOutcomes) {
  int livelocks = 0, completions = 0;
  for (sim::Tick delay = 0; delay <= 40; delay += 2) {
    Fig1Options options;
    options.m2_delay = delay;
    const Fig1Result result = run_fig1(options);
    livelocks += result.livelocked;
    completions += result.completed;
  }
  EXPECT_GT(livelocks, 0);
  EXPECT_GT(completions, 0);
}

TEST(Fig1Test, DelaySweepIsPinnedCellByCell) {
  // Every (m1_delay, m2_delay) in 0..10 x 0..10 at master quanta 1 and 4,
  // each cell's whole Fig1Result folded into one FNV-1a digest, so any
  // change to when M1/M2 post, poll or finish shows up here.
  std::uint64_t digest = support::kFnvOffset;
  int livelocks = 0;
  for (const sim::Tick quantum : {sim::Tick{1}, sim::Tick{4}}) {
    for (sim::Tick m1 = 0; m1 <= 10; ++m1) {
      for (sim::Tick m2 = 0; m2 <= 10; ++m2) {
        Fig1Options options;
        options.m1_delay = m1;
        options.m2_delay = m2;
        options.master_quantum = quantum;
        const Fig1Result result = run_fig1(options);
        digest = support::fnv1a_word(digest, result.livelocked, 1);
        digest = support::fnv1a_word(digest, result.completed, 1);
        digest = support::fnv1a_word(digest, result.ticks, 8);
        digest = support::fnv1a_word(digest, result.s1_steps, 8);
        digest = support::fnv1a_word(digest, result.s2_steps, 8);
        livelocks += result.livelocked;
      }
    }
  }
  EXPECT_EQ(livelocks, 20);
  EXPECT_EQ(digest, 0x227825798f8e0adcULL);
}

TEST(SeededBugsTest, LostUpdateManifestsUnderInterleaving) {
  pcore::KernelConfig config;
  config.panic_on_nonzero_exit = true;
  pcore::PcoreKernel kernel(config);
  register_seeded_bug(kernel, SeededBug::kLostUpdate);
  sim::Soc soc;
  soc.attach(kernel);
  // Two equal-priority tasks; the yield window interleaves their RMW.
  for (int i = 0; i < 2; ++i) {
    pcore::TaskId task = pcore::kInvalidTask;
    ASSERT_EQ(kernel.task_create(seeded_bug_program_id(SeededBug::kLostUpdate),
                                 0, 5, task),
              pcore::Status::kOk);
  }
  (void)soc.run(100);
  EXPECT_TRUE(kernel.panicked());  // in-program race assertion fired
}

TEST(SeededBugsTest, LostUpdateSafeWhenAlone) {
  pcore::KernelConfig config;
  config.panic_on_nonzero_exit = true;
  pcore::PcoreKernel kernel(config);
  register_seeded_bug(kernel, SeededBug::kLostUpdate);
  sim::Soc soc;
  soc.attach(kernel);
  pcore::TaskId task = pcore::kInvalidTask;
  ASSERT_EQ(kernel.task_create(seeded_bug_program_id(SeededBug::kLostUpdate),
                               0, 5, task),
            pcore::Status::kOk);
  (void)soc.run(100);
  EXPECT_FALSE(kernel.panicked());
  EXPECT_EQ(kernel.shared_word(2), 1);
}

TEST(SeededBugsTest, DeadlockPairManifestsWithSuspendWindow) {
  pcore::PcoreKernel kernel;
  register_seeded_bug(kernel, SeededBug::kDeadlockPair);
  sim::Soc soc;
  soc.attach(kernel);
  pcore::TaskId a = pcore::kInvalidTask, b = pcore::kInvalidTask;
  ASSERT_EQ(kernel.task_create(
                seeded_bug_program_id(SeededBug::kDeadlockPair), 0, 9, a),
            pcore::Status::kOk);
  // Let A take its first lock, then suspend it and start B.
  (void)soc.run(2);
  ASSERT_EQ(kernel.task_suspend(a), pcore::Status::kOk);
  ASSERT_EQ(kernel.task_create(
                seeded_bug_program_id(SeededBug::kDeadlockPair), 1, 9, b),
            pcore::Status::kOk);
  (void)soc.run(5);
  ASSERT_EQ(kernel.task_resume(a), pcore::Status::kOk);
  (void)soc.run(20);
  // Both blocked on each other's mutex.
  EXPECT_EQ(kernel.tcb(a).state, pcore::TaskState::kBlocked);
  EXPECT_EQ(kernel.tcb(b).state, pcore::TaskState::kBlocked);
}

TEST(SeededBugsTest, NamesAndIdsStable) {
  EXPECT_STREQ(to_string(SeededBug::kLostUpdate), "lost-update");
  EXPECT_EQ(seeded_bug_program_id(SeededBug::kOrderViolation), 11u);
}

}  // namespace
}  // namespace ptest::workload
