#include "ptest/pcore/kernel.hpp"

#include <gtest/gtest.h>

#include <string>

#include "ptest/pcore/programs.hpp"
#include "ptest/support/rng.hpp"

namespace ptest::pcore {
namespace {

constexpr std::uint32_t kIdleId = 100;
constexpr std::uint32_t kComputeId = 101;

class KernelFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = std::make_unique<PcoreKernel>(config_);
    kernel_->register_program(kIdleId, [](std::uint32_t) {
      return Program{"idle", idle()};
    });
    kernel_->register_program(kComputeId, [](std::uint32_t units) {
      return Program{"compute", finite_compute(units)};
    });
    soc_.attach(*kernel_);
  }

  TaskId create(Priority priority, std::uint32_t program = kIdleId,
                std::uint32_t arg = 0) {
    TaskId task = kInvalidTask;
    EXPECT_EQ(kernel_->task_create(program, arg, priority, task), Status::kOk);
    return task;
  }

  KernelConfig config_{};
  sim::Soc soc_;
  std::unique_ptr<PcoreKernel> kernel_;
};

TEST_F(KernelFixture, CreateAssignsSlotsUpTo16) {
  for (int i = 0; i < 16; ++i) {
    (void)create(static_cast<Priority>(i + 1));
  }
  EXPECT_EQ(kernel_->live_task_count(), 16u);
  TaskId overflow = kInvalidTask;
  EXPECT_EQ(kernel_->task_create(kIdleId, 0, 1, overflow), Status::kErrNoSlot);
}

TEST_F(KernelFixture, CreateUnknownProgramFails) {
  TaskId task = kInvalidTask;
  EXPECT_EQ(kernel_->task_create(999, 0, 1, task), Status::kErrBadProgram);
}

TEST_F(KernelFixture, DeleteFreesSlotForReuse) {
  const TaskId a = create(5);
  EXPECT_EQ(kernel_->task_delete(a), Status::kOk);
  EXPECT_EQ(kernel_->live_task_count(), 0u);
  const TaskId b = create(5);
  EXPECT_EQ(a, b);  // slot reused
  EXPECT_GT(kernel_->tcb(b).generation, 1u);
}

TEST_F(KernelFixture, ServicesRejectDeadOrInvalidTasks) {
  EXPECT_EQ(kernel_->task_suspend(3), Status::kErrBadTask);
  EXPECT_EQ(kernel_->task_resume(99), Status::kErrBadTask);
  const TaskId a = create(5);
  EXPECT_EQ(kernel_->task_delete(a), Status::kOk);
  EXPECT_EQ(kernel_->task_delete(a), Status::kErrBadTask);
  EXPECT_EQ(kernel_->task_chanprio(a, 7), Status::kErrBadTask);
}

TEST_F(KernelFixture, SuspendResumeLifecycle) {
  const TaskId a = create(5);
  EXPECT_EQ(kernel_->task_suspend(a), Status::kOk);
  EXPECT_EQ(kernel_->tcb(a).state, TaskState::kSuspended);
  // Double suspend is illegal (TS only from ready/running).
  EXPECT_EQ(kernel_->task_suspend(a), Status::kErrBadState);
  EXPECT_EQ(kernel_->task_resume(a), Status::kOk);
  EXPECT_EQ(kernel_->tcb(a).state, TaskState::kReady);
  // Resume of a non-suspended task is illegal (matches Eq. (2): TR only
  // after TS).
  EXPECT_EQ(kernel_->task_resume(a), Status::kErrBadState);
}

TEST_F(KernelFixture, SuspendedTaskDoesNotRun) {
  const TaskId a = create(5);
  (void)kernel_->task_suspend(a);
  (void)soc_.run(50);
  EXPECT_EQ(kernel_->tcb(a).steps, 0u);
  (void)kernel_->task_resume(a);
  (void)soc_.run(50);
  EXPECT_GT(kernel_->tcb(a).steps, 0u);
}

TEST_F(KernelFixture, HighestPriorityRuns) {
  const TaskId low = create(3);
  const TaskId high = create(9);
  (void)soc_.run(20);
  EXPECT_EQ(kernel_->tcb(low).steps, 0u);
  EXPECT_GT(kernel_->tcb(high).steps, 0u);
}

TEST_F(KernelFixture, ChanprioCausesPreemption) {
  const TaskId a = create(5);
  const TaskId b = create(3);
  (void)soc_.run(10);
  EXPECT_EQ(kernel_->tcb(b).steps, 0u);
  EXPECT_EQ(kernel_->task_chanprio(b, 8), Status::kOk);
  (void)soc_.run(10);
  EXPECT_GT(kernel_->tcb(b).steps, 0u);
  EXPECT_EQ(kernel_->tcb(a).state, TaskState::kReady);  // preempted
}

TEST_F(KernelFixture, FiniteProgramExitsAndFreesSlot) {
  const TaskId a = create(5, kComputeId, /*units=*/10);
  (void)soc_.run(20);
  EXPECT_EQ(kernel_->tcb(a).state, TaskState::kFree);
  EXPECT_EQ(kernel_->live_task_count(), 0u);
}

TEST_F(KernelFixture, YieldServiceTerminatesTask) {
  const TaskId a = create(5);
  (void)soc_.run(5);
  EXPECT_EQ(kernel_->task_yield(a), Status::kOk);
  EXPECT_EQ(kernel_->live_task_count(), 0u);
}

TEST_F(KernelFixture, TaskMemoryReclaimedAfterDeleteAndGc) {
  const auto before = kernel_->heap().stats().live_blocks;
  const TaskId a = create(5);
  EXPECT_EQ(kernel_->heap().stats().live_blocks, before + 2);  // TCB + stack
  (void)kernel_->task_delete(a);
  kernel_->heap().collect();
  EXPECT_EQ(kernel_->heap().stats().live_blocks, before);
}

TEST_F(KernelFixture, MutexBlockingAndOwnershipTransfer) {
  const MutexId m = kernel_->mutex_create();
  kernel_->register_program(200, [m](std::uint32_t hold) {
    return Program{"lock-hold", lock_hold(m, hold)};
  });
  const TaskId high = create(9, 200, /*hold=*/5);
  const TaskId low = create(3, 200, /*hold=*/5);
  (void)soc_.run(3);
  // High-priority task holds the mutex and computes.
  EXPECT_EQ(kernel_->mutex(m).owner, high);
  (void)soc_.run(200);
  // Both finished: mutex released, both slots free.
  EXPECT_FALSE(kernel_->mutex(m).owner.has_value());
  EXPECT_EQ(kernel_->live_task_count(), 0u);
  EXPECT_EQ(kernel_->mutex(m).acquisitions, 2u);
  (void)low;
}

TEST_F(KernelFixture, BlockedTaskCannotYieldButCanBeDeleted) {
  const MutexId m = kernel_->mutex_create();
  kernel_->register_program(200, [m](std::uint32_t) {
    return Program{"lock-hold", lock_hold(m, 1000000)};
  });
  // Low-priority holder acquires first; high-priority waiter then
  // preempts, attempts the lock and blocks.
  const TaskId holder = create(3, 200);
  (void)soc_.run(3);
  const TaskId waiter = create(9, 200);
  (void)soc_.run(10);
  EXPECT_EQ(kernel_->tcb(waiter).state, TaskState::kBlocked);
  EXPECT_EQ(kernel_->task_yield(waiter), Status::kErrBadState);
  EXPECT_EQ(kernel_->task_delete(waiter), Status::kOk);
  EXPECT_TRUE(kernel_->mutex(m).waiters.empty());
  (void)holder;
}

TEST_F(KernelFixture, DeletingMutexHolderHandsLockToWaiter) {
  const MutexId m = kernel_->mutex_create();
  kernel_->register_program(200, [m](std::uint32_t) {
    return Program{"lock-hold", lock_hold(m, 1000000)};
  });
  const TaskId holder = create(3, 200);
  (void)soc_.run(3);
  const TaskId waiter = create(9, 200);
  (void)soc_.run(10);
  ASSERT_EQ(kernel_->mutex(m).owner, holder);
  EXPECT_EQ(kernel_->task_delete(holder), Status::kOk);
  EXPECT_EQ(kernel_->mutex(m).owner, waiter);
  EXPECT_EQ(kernel_->tcb(waiter).state, TaskState::kReady);
}

// --- wait-graph epoch ---------------------------------------------------------
//
// The epoch moves only when a task enters or leaves kBlocked.  Each test
// isolates one bump site (a contended lock, a release with hand-off,
// task_delete of a blocked task or of an owner with a waiter) or one
// owner change that is no edge of the wait-for graph (taking a free
// mutex, releasing or deleting the owner of a mutex nobody waits on).

class WaitGraphEpochTest : public KernelFixture {
 protected:
  static constexpr std::uint32_t kHoldId = 200;

  void SetUp() override {
    KernelFixture::SetUp();
    mutex_ = kernel_->mutex_create();
    kernel_->register_program(kHoldId, [m = mutex_](std::uint32_t hold) {
      return Program{"lock-hold", lock_hold(m, hold)};
    });
  }

  /// Steps until `done()` holds; returns false if it never does.
  template <typename Pred>
  bool step_until(Pred done, int limit = 100) {
    for (int i = 0; i < limit && !done(); ++i) (void)soc_.step();
    return done();
  }

  [[nodiscard]] bool owned() const {
    return kernel_->mutex(mutex_).owner.has_value();
  }

  MutexId mutex_ = 0;
};

TEST_F(WaitGraphEpochTest, StaysPutOnAFreeAcquireAndAdvancesOnContention) {
  const TaskId holder = create(3, kHoldId, /*hold=*/1000000);
  std::uint64_t epoch = kernel_->wait_graph_epoch();
  ASSERT_TRUE(step_until([&] { return owned(); }));
  EXPECT_EQ(kernel_->wait_graph_epoch(), epoch);

  epoch = kernel_->wait_graph_epoch();
  const TaskId waiter = create(9, kHoldId, /*hold=*/1);
  ASSERT_TRUE(step_until(
      [&] { return kernel_->tcb(waiter).state == TaskState::kBlocked; }));
  EXPECT_GT(kernel_->wait_graph_epoch(), epoch);
  EXPECT_EQ(kernel_->mutex(mutex_).owner, holder);
}

// run_quiet ticks the kernel alone and stops, without advancing the
// clock, after the tick on which a panic, a live-count change, an epoch
// change or the `last` tick happened.

TEST_F(KernelFixture, RunQuietStopsAtLastWithoutAdvancing) {
  const TaskId task = create(5);
  EXPECT_EQ(kernel_->run_quiet(soc_, 9), 10u);
  EXPECT_EQ(soc_.now(), 9u);
  EXPECT_EQ(kernel_->tcb(task).steps, 10u);
  soc_.clock().advance();
  EXPECT_EQ(kernel_->run_quiet(soc_, soc_.now()), 1u);
  EXPECT_EQ(soc_.now(), 10u);
}

TEST_F(KernelFixture, RunQuietStopsOnTheTickATaskExits) {
  (void)create(1);
  (void)create(5, kComputeId, /*units=*/3);
  // Three compute steps on ticks 0-2, the exit on tick 3.
  EXPECT_EQ(kernel_->run_quiet(soc_, 100), 4u);
  EXPECT_EQ(soc_.now(), 3u);
  EXPECT_EQ(kernel_->live_task_count(), 1u);
}

TEST_F(WaitGraphEpochTest, RunQuietStopsOnAnEpochChangeAndOnAPanic) {
  const TaskId holder = create(3, kHoldId, /*hold=*/1000000);
  ASSERT_TRUE(step_until([&] { return owned(); }));
  const TaskId waiter = create(9, kHoldId, /*hold=*/1);
  const std::uint64_t epoch = kernel_->wait_graph_epoch();
  const sim::Tick start = soc_.now();
  const sim::Tick ran = kernel_->run_quiet(soc_, start + 100);
  EXPECT_EQ(ran, 1u);  // the waiter's first step blocks on the held mutex
  EXPECT_EQ(soc_.now(), start + ran - 1);
  EXPECT_EQ(kernel_->tcb(waiter).state, TaskState::kBlocked);
  EXPECT_EQ(kernel_->mutex(mutex_).owner, holder);
  EXPECT_GT(kernel_->wait_graph_epoch(), epoch);

  soc_.clock().advance();
  kernel_->force_panic("test");
  EXPECT_EQ(kernel_->run_quiet(soc_, soc_.now() + 50), 1u);
}

TEST_F(WaitGraphEpochTest, AdvancesOnUnlockHandOff) {
  const TaskId holder = create(3, kHoldId, /*hold=*/20);
  ASSERT_TRUE(step_until([&] { return owned(); }));
  const TaskId waiter = create(9, kHoldId, /*hold=*/1000000);
  ASSERT_TRUE(step_until(
      [&] { return kernel_->tcb(waiter).state == TaskState::kBlocked; }));
  const std::uint64_t epoch = kernel_->wait_graph_epoch();
  ASSERT_TRUE(step_until(
      [&] { return kernel_->mutex(mutex_).owner == waiter; }));
  EXPECT_GT(kernel_->wait_graph_epoch(), epoch);
  EXPECT_NE(kernel_->tcb(waiter).state, TaskState::kBlocked);
  (void)holder;
}

TEST_F(WaitGraphEpochTest, AdvancesOnDeletingABlockedTask) {
  (void)create(3, kHoldId, /*hold=*/1000000);
  ASSERT_TRUE(step_until([&] { return owned(); }));
  const TaskId waiter = create(9, kHoldId, /*hold=*/1);
  ASSERT_TRUE(step_until(
      [&] { return kernel_->tcb(waiter).state == TaskState::kBlocked; }));
  const std::uint64_t epoch = kernel_->wait_graph_epoch();
  ASSERT_EQ(kernel_->task_delete(waiter), Status::kOk);
  EXPECT_GT(kernel_->wait_graph_epoch(), epoch);
}

TEST_F(WaitGraphEpochTest, AdvancesOnDeletingAnOwnerWithAWaiter) {
  const TaskId holder = create(3, kHoldId, /*hold=*/1000000);
  ASSERT_TRUE(step_until([&] { return owned(); }));
  const TaskId waiter = create(9, kHoldId, /*hold=*/1000000);
  ASSERT_TRUE(step_until(
      [&] { return kernel_->tcb(waiter).state == TaskState::kBlocked; }));
  const std::uint64_t epoch = kernel_->wait_graph_epoch();
  ASSERT_EQ(kernel_->task_delete(holder), Status::kOk);
  EXPECT_GT(kernel_->wait_graph_epoch(), epoch);
  EXPECT_EQ(kernel_->mutex(mutex_).owner, waiter);
}

TEST_F(WaitGraphEpochTest, StaysPutOnDeletingAnOwnerNobodyWaitsFor) {
  const TaskId holder = create(3, kHoldId, /*hold=*/1000000);
  ASSERT_TRUE(step_until([&] { return owned(); }));
  const std::uint64_t epoch = kernel_->wait_graph_epoch();
  ASSERT_EQ(kernel_->task_delete(holder), Status::kOk);
  EXPECT_EQ(kernel_->wait_graph_epoch(), epoch);
  EXPECT_FALSE(kernel_->mutex(mutex_).owner.has_value());
}

TEST_F(WaitGraphEpochTest, StaysPutOnAnUncontendedLockAndUnlock) {
  (void)create(3, kHoldId, /*hold=*/5);
  const std::uint64_t epoch = kernel_->wait_graph_epoch();
  ASSERT_TRUE(step_until([&] { return owned(); }));
  ASSERT_TRUE(step_until([&] { return !owned(); }));
  EXPECT_EQ(kernel_->mutex(mutex_).acquisitions, 1u);
  EXPECT_EQ(kernel_->wait_graph_epoch(), epoch);
}

TEST_F(KernelFixture, WaitGraphEpochStaysPutAcrossComputeAndYield) {
  kernel_->register_program(203, [](std::uint32_t) {
    return Program{"script",
                   script({StepResult::compute(), StepResult::yield()},
                          /*loop=*/true)};
  });
  (void)create(5);
  (void)create(5, 203);
  (void)create(4, kComputeId, /*units=*/1000);
  const std::uint64_t epoch = kernel_->wait_graph_epoch();
  (void)soc_.run(200);
  EXPECT_EQ(kernel_->wait_graph_epoch(), epoch);
}

TEST_F(KernelFixture, ResumeKeepsThePreSuspendLastProgress) {
  // task_resume returns a task to kReady without touching last_progress,
  // so a starvation check counts the suspended stretch as waiting and
  // fires on the first tick past its horizon.  A deadline-based check
  // must keep this behaviour.
  const TaskId low = create(3);
  (void)soc_.run(2);
  const sim::Tick progressed_at = kernel_->tcb(low).last_progress;
  ASSERT_EQ(kernel_->task_suspend(low), Status::kOk);
  (void)create(9);
  (void)soc_.run(50);
  ASSERT_EQ(kernel_->task_resume(low), Status::kOk);
  EXPECT_EQ(kernel_->tcb(low).state, TaskState::kReady);
  EXPECT_EQ(kernel_->tcb(low).last_progress, progressed_at);
  (void)soc_.step();  // the high-priority task keeps the CPU
  EXPECT_EQ(kernel_->tcb(low).state, TaskState::kReady);
  EXPECT_EQ(kernel_->tcb(low).last_progress, progressed_at);
}

TEST_F(KernelFixture, SlotReusedBeforeDispatchInheritsAStaleYield) {
  // A yielder deleted before the next dispatch leaves yield_pending set on
  // its slot, and task_create does not clear it: the new occupant is
  // passed over once.  The kernel's yield mask must mirror the flag.
  kernel_->register_program(203, [](std::uint32_t) {
    return Program{"script", script({StepResult::yield()}, /*loop=*/true)};
  });
  const TaskId yielder = create(9, 203);
  const TaskId low = create(3);
  ASSERT_TRUE(soc_.step());
  ASSERT_TRUE(kernel_->tcb(yielder).yield_pending);
  ASSERT_EQ(kernel_->task_delete(yielder), Status::kOk);
  const TaskId reused = create(9);
  ASSERT_EQ(reused, yielder);
  EXPECT_TRUE(kernel_->tcb(reused).yield_pending);
  EXPECT_EQ(kernel_->yield_mask(), slot_bit(reused));

  ASSERT_TRUE(soc_.step());  // the stale flag hands this tick to `low`
  EXPECT_EQ(kernel_->tcb(reused).steps, 0u);
  EXPECT_EQ(kernel_->tcb(low).steps, 1u);
  EXPECT_FALSE(kernel_->tcb(reused).yield_pending);
  EXPECT_EQ(kernel_->yield_mask(), 0u);

  ASSERT_TRUE(soc_.step());
  EXPECT_EQ(kernel_->tcb(reused).steps, 1u);
  EXPECT_EQ(kernel_->tcb(low).steps, 1u);
}

TEST_F(KernelFixture, SlotMasksAndLiveCountFollowEveryService) {
  // Random service churn over lock-holding and yielding programs; after
  // every call and every tick the kept masks and count equal a fresh scan.
  const MutexId mutex = kernel_->mutex_create();
  kernel_->register_program(200, [mutex](std::uint32_t hold) {
    return Program{"lock-hold", lock_hold(mutex, hold)};
  });
  kernel_->register_program(203, [](std::uint32_t) {
    return Program{"script",
                   script({StepResult::compute(), StepResult::yield()},
                          /*loop=*/true)};
  });
  const std::array<std::uint32_t, 4> programs = {kIdleId, kComputeId, 200,
                                                 203};
  support::Rng rng(7);
  auto expect_consistent = [&](int round) {
    SlotMask runnable = 0;
    SlotMask yielded = 0;
    std::size_t live = 0;
    for (TaskId i = 0; i < kMaxTasks; ++i) {
      const Tcb& tcb = kernel_->tcb(i);
      const auto bit = slot_bit(i);
      if (is_runnable(tcb.state)) runnable |= bit;
      if (tcb.yield_pending) yielded |= bit;
      live += is_live(tcb.state);
    }
    ASSERT_EQ(kernel_->runnable_mask(), runnable) << "round " << round;
    ASSERT_EQ(kernel_->yield_mask(), yielded) << "round " << round;
    ASSERT_EQ(kernel_->live_task_count(), live) << "round " << round;
  };
  for (int round = 0; round < 4000; ++round) {
    const auto task = static_cast<TaskId>(rng.below(kMaxTasks));
    switch (rng.below(7)) {
      case 0:
      case 1: {
        TaskId created = kInvalidTask;
        (void)kernel_->task_create(programs[rng.below(programs.size())],
                                   static_cast<std::uint32_t>(rng.below(6)),
                                   static_cast<Priority>(rng.below(4)),
                                   created);
        break;
      }
      case 2: (void)kernel_->task_delete(task); break;
      case 3: (void)kernel_->task_suspend(task); break;
      case 4: (void)kernel_->task_resume(task); break;
      case 5: (void)kernel_->task_yield(task); break;
      default:
        (void)kernel_->task_chanprio(task,
                                     static_cast<Priority>(rng.below(4)));
        break;
    }
    expect_consistent(round);
    (void)soc_.run(rng.below(3));
    expect_consistent(round);
  }
  EXPECT_FALSE(kernel_->panicked());
}

TEST_F(KernelFixture, PanickedKernelRejectsServices) {
  kernel_->force_panic("test");
  TaskId task = kInvalidTask;
  EXPECT_EQ(kernel_->task_create(kIdleId, 0, 1, task), Status::kErrPanicked);
  EXPECT_EQ(kernel_->task_suspend(0), Status::kErrPanicked);
}

TEST_F(KernelFixture, SnapshotReflectsState) {
  const MutexId m = kernel_->mutex_create();
  kernel_->register_program(200, [m](std::uint32_t) {
    return Program{"lock-hold", lock_hold(m, 1000000)};
  });
  (void)create(3, 200);
  (void)soc_.run(3);
  (void)create(9, 200);
  (void)soc_.run(10);
  const KernelSnapshot snap = kernel_->snapshot();
  EXPECT_EQ(snap.live_tasks, 2u);
  EXPECT_FALSE(snap.panicked);
  bool saw_holder = false, saw_waiter = false;
  for (const auto& task : snap.tasks) {
    if (!task.holds.empty()) saw_holder = true;
    if (task.waiting_on) saw_waiter = true;
  }
  EXPECT_TRUE(saw_holder);
  EXPECT_TRUE(saw_waiter);
}

TEST_F(KernelFixture, SharedWordsBoundsChecked) {
  kernel_->set_shared_word(0, 42);
  EXPECT_EQ(kernel_->shared_word(0), 42);
  EXPECT_THROW((void)kernel_->shared_word(999), std::out_of_range);
}

TEST_F(KernelFixture, NonzeroExitPanicsWhenArmed) {
  config_.panic_on_nonzero_exit = true;
  kernel_ = std::make_unique<PcoreKernel>(config_);
  kernel_->register_program(201, [](std::uint32_t) {
    return Program{"script", script({StepResult::exit(2)})};
  });
  sim::Soc soc;
  soc.attach(*kernel_);
  TaskId task = kInvalidTask;
  ASSERT_EQ(kernel_->task_create(201, 0, 5, task), Status::kOk);
  (void)soc.run(5);
  EXPECT_TRUE(kernel_->panicked());
  EXPECT_NE(kernel_->panic_reason().find("assertion"), std::string::npos);
}

TEST_F(KernelFixture, UnlockingUnownedMutexPanics) {
  (void)kernel_->mutex_create();
  kernel_->register_program(202, [](std::uint32_t) {
    return Program{"script", script({StepResult::unlock(0)})};
  });
  TaskId task = kInvalidTask;
  ASSERT_EQ(kernel_->task_create(202, 0, 5, task), Status::kOk);
  (void)soc_.run(5);
  EXPECT_TRUE(kernel_->panicked());
}

TEST_F(KernelFixture, ScheduleNoiseStillRunsOnlyRunnableTasks) {
  config_.schedule_noise = 0.5;
  kernel_ = std::make_unique<PcoreKernel>(config_);
  kernel_->register_program(kIdleId, [](std::uint32_t) {
    return Program{"idle", idle()};
  });
  sim::Soc soc;
  soc.attach(*kernel_);
  TaskId low = kInvalidTask, high = kInvalidTask;
  ASSERT_EQ(kernel_->task_create(kIdleId, 0, 2, low), Status::kOk);
  ASSERT_EQ(kernel_->task_create(kIdleId, 0, 9, high), Status::kOk);
  (void)kernel_->task_suspend(low);
  (void)soc.run(100);
  // Noise must never schedule the suspended task.
  EXPECT_EQ(kernel_->tcb(low).steps, 0u);
  EXPECT_GT(kernel_->tcb(high).steps, 0u);
}

// reset() rewrites only the TCBs below the highest slot task_create
// filled and the mutexes mutex_create made.  A session that filled slots
// up to 11, freed the top one again, contended two mutexes and yielded
// must still reset to a kernel equal to a fresh one, entry by entry.
TEST(KernelTest, ResetMatchesAFreshKernel) {
  PcoreKernel used;
  sim::Soc soc;
  soc.attach(used);
  const MutexId m0 = used.mutex_create();
  const MutexId m1 = used.mutex_create();
  used.register_program(1, [](std::uint32_t) {
    return Program{"idle", idle()};
  });
  used.register_program(2, [m0, m1](std::uint32_t which) {
    return Program{"lock-hold", lock_hold(which == 0 ? m0 : m1, 1000000)};
  });
  used.register_program(3, [](std::uint32_t) {
    return Program{"yielder", script({StepResult::yield()}, /*loop=*/true)};
  });
  const auto create = [&](std::uint32_t program, std::uint32_t arg,
                          Priority priority) {
    TaskId task = kInvalidTask;
    EXPECT_EQ(used.task_create(program, arg, priority, task), Status::kOk);
    return task;
  };
  // Low-priority holders take both mutexes, each preempting the last,
  // then higher-priority waiters block on them; a yielder and idle tasks
  // fill the slots up to 11.
  (void)create(2, 0, 3);
  (void)soc.run(2);
  (void)create(2, 1, 4);
  (void)soc.run(2);
  (void)create(2, 0, 9);
  (void)create(2, 1, 9);
  (void)create(3, 0, 8);
  TaskId top = kInvalidTask;
  while (top != 11) top = create(1, 0, 1);
  (void)soc.run(12);
  ASSERT_EQ(used.mutex(m0).contentions, 1u);
  ASSERT_EQ(used.mutex(m1).contentions, 1u);
  ASSERT_EQ(used.tcb(2).state, TaskState::kBlocked);
  ASSERT_GT(used.tcb(4).steps, 0u);
  ASSERT_EQ(used.task_delete(top), Status::kOk);
  ASSERT_EQ(used.tcb(top).state, TaskState::kFree);
  ASSERT_EQ(used.tcb(top).generation, 1u);
  ASSERT_GT(used.wait_graph_epoch(), 0u);

  used.reset();
  const PcoreKernel fresh;
  for (TaskId t = 0; t < kMaxTasks; ++t) {
    SCOPED_TRACE("slot " + std::to_string(t));
    const Tcb& a = used.tcb(t);
    const Tcb& b = fresh.tcb(t);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.priority, b.priority);
    EXPECT_EQ(a.body.valid(), b.body.valid());
    EXPECT_EQ(a.program, b.program);
    EXPECT_EQ(a.tcb_block, b.tcb_block);
    EXPECT_EQ(a.stack_block, b.stack_block);
    EXPECT_EQ(a.waiting_on, b.waiting_on);
    EXPECT_EQ(a.yield_pending, b.yield_pending);
    EXPECT_EQ(a.created_at, b.created_at);
    EXPECT_EQ(a.last_progress, b.last_progress);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.generation, b.generation);
  }
  for (MutexId m = 0; m < kMaxMutexes; ++m) {
    SCOPED_TRACE("mutex " + std::to_string(m));
    const KMutex& a = used.mutex(m);
    const KMutex& b = fresh.mutex(m);
    EXPECT_EQ(a.exists, b.exists);
    EXPECT_EQ(a.owner, b.owner);
    EXPECT_EQ(a.waiters, b.waiters);
    EXPECT_EQ(a.acquisitions, b.acquisitions);
    EXPECT_EQ(a.contentions, b.contentions);
  }
  EXPECT_EQ(used.runnable_mask(), fresh.runnable_mask());
  EXPECT_EQ(used.yield_mask(), fresh.yield_mask());
  EXPECT_EQ(used.live_task_count(), fresh.live_task_count());
  EXPECT_EQ(used.wait_graph_epoch(), fresh.wait_graph_epoch());
  EXPECT_EQ(used.service_calls(), fresh.service_calls());
  EXPECT_EQ(used.context_switches(), fresh.context_switches());
  EXPECT_FALSE(used.has_program(1));
  // The next session numbers its first mutex 0 again.
  EXPECT_EQ(used.mutex_create(), 0u);
}

// Property sweep: create/delete churn at every count never leaks slots.
class KernelChurnSweep : public ::testing::TestWithParam<int> {};

TEST_P(KernelChurnSweep, ChurnLeavesKernelClean) {
  PcoreKernel kernel;
  kernel.register_program(1, [](std::uint32_t) {
    return Program{"idle", idle()};
  });
  sim::Soc soc;
  soc.attach(kernel);
  const int rounds = GetParam();
  for (int r = 0; r < rounds; ++r) {
    std::vector<TaskId> tasks;
    for (int i = 0; i < 16; ++i) {
      TaskId t = kInvalidTask;
      ASSERT_EQ(kernel.task_create(1, 0, static_cast<Priority>(i), t),
                Status::kOk);
      tasks.push_back(t);
    }
    (void)soc.run(5);
    for (const TaskId t : tasks) {
      ASSERT_EQ(kernel.task_delete(t), Status::kOk);
    }
  }
  kernel.heap().collect();
  EXPECT_EQ(kernel.live_task_count(), 0u);
  EXPECT_FALSE(kernel.panicked());
  EXPECT_EQ(kernel.heap().stats().live_blocks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Rounds, KernelChurnSweep,
                         ::testing::Values(1, 4, 16, 64));

}  // namespace
}  // namespace ptest::pcore
