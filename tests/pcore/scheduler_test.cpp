#include "ptest/pcore/scheduler.hpp"

#include <gtest/gtest.h>

namespace ptest::pcore {
namespace {

std::array<Tcb, kMaxTasks> make_table() { return {}; }

/// Picks from `tcbs` with the slot masks the kernel would keep for it.
TaskId pick(const PriorityScheduler& scheduler,
            const std::array<Tcb, kMaxTasks>& tcbs, TaskId current) {
  SlotMask runnable = 0;
  SlotMask yielded = 0;
  for (TaskId i = 0; i < kMaxTasks; ++i) {
    const auto bit = slot_bit(i);
    if (is_runnable(tcbs[i].state)) runnable |= bit;
    if (tcbs[i].yield_pending) yielded |= bit;
  }
  return scheduler.pick(tcbs, runnable, yielded, current);
}

TEST(SchedulerTest, EmptyTableYieldsInvalid) {
  PriorityScheduler scheduler;
  const auto tcbs = make_table();
  EXPECT_EQ(pick(scheduler, tcbs, kInvalidTask), kInvalidTask);
}

TEST(SchedulerTest, PicksHighestPriorityReady) {
  PriorityScheduler scheduler;
  auto tcbs = make_table();
  tcbs[2].state = TaskState::kReady;
  tcbs[2].priority = 5;
  tcbs[7].state = TaskState::kReady;
  tcbs[7].priority = 9;
  tcbs[4].state = TaskState::kSuspended;
  tcbs[4].priority = 15;  // not runnable, must be ignored
  EXPECT_EQ(pick(scheduler, tcbs, kInvalidTask), 7);
}

TEST(SchedulerTest, TieBreaksTowardIncumbent) {
  PriorityScheduler scheduler;
  auto tcbs = make_table();
  tcbs[1].state = TaskState::kReady;
  tcbs[1].priority = 5;
  tcbs[3].state = TaskState::kRunning;
  tcbs[3].priority = 5;
  EXPECT_EQ(pick(scheduler, tcbs, 3), 3);
}

TEST(SchedulerTest, TieWithoutIncumbentPicksLowestSlot) {
  PriorityScheduler scheduler;
  auto tcbs = make_table();
  tcbs[6].state = TaskState::kReady;
  tcbs[6].priority = 5;
  tcbs[2].state = TaskState::kReady;
  tcbs[2].priority = 5;
  EXPECT_EQ(pick(scheduler, tcbs, kInvalidTask), 2);
}

TEST(SchedulerTest, BlockedAndTerminatedIgnored) {
  PriorityScheduler scheduler;
  auto tcbs = make_table();
  tcbs[0].state = TaskState::kBlocked;
  tcbs[0].priority = 9;
  tcbs[1].state = TaskState::kTerminated;
  tcbs[1].priority = 9;
  tcbs[2].state = TaskState::kReady;
  tcbs[2].priority = 1;
  EXPECT_EQ(pick(scheduler, tcbs, kInvalidTask), 2);
}

TEST(SchedulerTest, DispatchCountersTrackSwitchesAndPreemptions) {
  PriorityScheduler scheduler;
  scheduler.note_dispatch(kInvalidTask, 1, false);  // first dispatch
  scheduler.note_dispatch(1, 1, true);              // same task: no switch
  scheduler.note_dispatch(1, 2, true);              // preemption
  scheduler.note_dispatch(2, 3, false);             // 2 blocked: plain switch
  EXPECT_EQ(scheduler.context_switches(), 3u);
  EXPECT_EQ(scheduler.preemptions(), 1u);
}

}  // namespace
}  // namespace ptest::pcore
