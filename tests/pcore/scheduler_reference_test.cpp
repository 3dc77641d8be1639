// Reference oracle for the mask-walking scheduler.
//
// reference_pick below is the 16-TCB scan PriorityScheduler::pick
// replaced: it reads every slot's state and yield_pending flag.  The
// production pick reads the kernel's runnable and yield slot masks
// instead and must choose the same task on every table: random states
// (all six), priorities drawn from a narrow range so ties are common,
// yield flags left on non-runnable slots (as a deleted yielder leaves
// them), and an incumbent that is absent, runnable or not runnable.
#include <gtest/gtest.h>

#include <array>

#include "ptest/pcore/scheduler.hpp"
#include "ptest/support/rng.hpp"

namespace ptest::pcore {
namespace {

TaskId reference_pick(const std::array<Tcb, kMaxTasks>& tcbs,
                      TaskId current) {
  for (const bool include_yielded : {false, true}) {
    TaskId best = kInvalidTask;
    Priority best_priority = 0;
    for (TaskId i = 0; i < kMaxTasks; ++i) {
      const Tcb& tcb = tcbs[i];
      if (tcb.state != TaskState::kReady &&
          tcb.state != TaskState::kRunning) {
        continue;
      }
      if (!include_yielded && tcb.yield_pending) continue;
      const bool better =
          best == kInvalidTask || tcb.priority > best_priority ||
          (tcb.priority == best_priority && i == current);
      if (better) {
        best = i;
        best_priority = tcb.priority;
      }
    }
    if (best != kInvalidTask) return best;
  }
  return kInvalidTask;
}

constexpr std::array<TaskState, 6> kStates = {
    TaskState::kFree,      TaskState::kReady,   TaskState::kRunning,
    TaskState::kSuspended, TaskState::kBlocked, TaskState::kTerminated};

TEST(SchedulerReferenceTest, MaskPickMatchesTableScan) {
  constexpr int kTables = 200000;
  support::Rng rng(0x5ced);
  const PriorityScheduler scheduler;
  // How often each edge the two picks must agree on came up.
  std::size_t none_runnable = 0, yield_pass_skipped = 0,
              yielders_only = 0, incumbent_tie = 0, slot_tie = 0,
              current_not_runnable = 0;
  std::array<std::size_t, kStates.size()> state_seen{};
  for (int n = 0; n < kTables; ++n) {
    std::array<Tcb, kMaxTasks> tcbs{};
    SlotMask runnable = 0;
    SlotMask yielded = 0;
    // Sparse and dense tables both: a per-table bias toward kFree.
    const double free_share = rng.uniform();
    const auto top = static_cast<std::uint64_t>(rng.between(1, 4));
    for (TaskId i = 0; i < kMaxTasks; ++i) {
      Tcb& tcb = tcbs[i];
      const std::size_t s =
          rng.chance(free_share) ? 0 : rng.below(kStates.size());
      tcb.state = kStates[s];
      ++state_seen[s];
      tcb.priority = static_cast<Priority>(rng.below(top));
      tcb.yield_pending = rng.chance(0.3);
      const auto bit = slot_bit(i);
      if (is_runnable(tcb.state)) runnable |= bit;
      if (tcb.yield_pending) yielded |= bit;
    }
    TaskId current = kInvalidTask;
    if (rng.chance(0.75)) current = static_cast<TaskId>(rng.below(kMaxTasks));

    const TaskId expected = reference_pick(tcbs, current);
    const TaskId actual = scheduler.pick(tcbs, runnable, yielded, current);
    ASSERT_EQ(actual, expected) << "table " << n;

    if (current != kInvalidTask && !is_runnable(tcbs[current].state)) {
      ++current_not_runnable;
    }
    if (expected == kInvalidTask) {
      ++none_runnable;
      continue;
    }
    const SlotMask fresh = runnable & static_cast<SlotMask>(~yielded);
    if (fresh == 0) ++yielders_only;
    if (fresh != 0 && (runnable & yielded) != 0) ++yield_pass_skipped;
    const SlotMask pool = fresh != 0 ? fresh : runnable;
    std::size_t tied = 0;
    for (SlotMask m = pool; m != 0; m &= m - 1) {
      tied += tcbs[lowest_slot(m)].priority == tcbs[expected].priority;
    }
    if (tied > 1) ++(expected == current ? incumbent_tie : slot_tie);
  }
  for (std::size_t s = 0; s < kStates.size(); ++s) {
    EXPECT_GT(state_seen[s], 0u) << to_string(kStates[s]);
  }
  EXPECT_GT(none_runnable, 0u);
  EXPECT_GT(yield_pass_skipped, 0u);
  EXPECT_GT(yielders_only, 0u);
  EXPECT_GT(incumbent_tie, 0u);
  EXPECT_GT(slot_tie, 0u);
  EXPECT_GT(current_not_runnable, 0u);
}

}  // namespace
}  // namespace ptest::pcore
