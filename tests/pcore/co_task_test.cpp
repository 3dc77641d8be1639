// CoTask runtime tests: the co_await -> StepResult desugaring contract,
// per-resume environment indirection, and coroutine frame lifetime:
// locals in a suspended frame must be destroyed when the task is deleted,
// the kernel panics, or the kernel is torn down mid-campaign.
#include "ptest/pcore/co_task.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "ptest/pcore/kernel.hpp"

namespace ptest::pcore {
namespace {

/// A hand-filled environment for stepping coroutines outside a kernel.
struct FakeEnv {
  std::vector<std::int32_t> words = std::vector<std::int32_t>(4, 0);
  StepEnv env{7, &words, nullptr, 0};
};

/// RAII witness for frame-local destruction.  Constructed when the body
/// first resumes (code before the first co_await runs on step 1), so
/// `*alive` counts frames whose locals have been created but not yet
/// destroyed.
struct FrameProbe {
  explicit FrameProbe(int* counter) : alive(counter) { ++*alive; }
  FrameProbe(const FrameProbe&) = delete;
  FrameProbe& operator=(const FrameProbe&) = delete;
  ~FrameProbe() { --*alive; }
  int* alive;
};

CoTask all_ops_body() {
  co_await compute(3);
  co_await yield();
  co_await lock(4);
  co_await unlock(4);
  co_return 7;
}

TEST(CoTaskTest, AwaitsDesugarToStepResults) {
  CoTask task = all_ops_body();
  FakeEnv fake;
  ASSERT_TRUE(task.valid());

  StepResult step = task.step(fake.env);
  EXPECT_EQ(step.kind, StepKind::kCompute);
  EXPECT_EQ(step.arg, 3u);
  EXPECT_EQ(task.step(fake.env).kind, StepKind::kYield);
  step = task.step(fake.env);
  EXPECT_EQ(step.kind, StepKind::kLock);
  EXPECT_EQ(step.arg, 4u);
  step = task.step(fake.env);
  EXPECT_EQ(step.kind, StepKind::kUnlock);
  EXPECT_EQ(step.arg, 4u);

  step = task.step(fake.env);
  EXPECT_EQ(step.kind, StepKind::kExit);
  EXPECT_EQ(step.arg, 7u);
  EXPECT_TRUE(task.done());
  // Terminal behaviour: the exit step repeats without resuming the frame.
  for (int i = 0; i < 5; ++i) {
    step = task.step(fake.env);
    EXPECT_EQ(step.kind, StepKind::kExit);
    EXPECT_EQ(step.arg, 7u);
  }
}

CoTask env_body() {
  TaskEnv task = co_await env();
  task.set_shared(0, 1);
  co_await compute();
  task.set_shared(0, 2);
  co_await compute();
  co_return static_cast<std::uint32_t>(task.shared(1));
}

TEST(CoTaskTest, EnvIndirectsThroughPerResumeEnvironment) {
  // The TaskEnv handle obtained before the first suspension must keep
  // working across co_awaits even when every step carries a *different*
  // environment: it reads the one passed to the current resume.
  CoTask task = env_body();
  FakeEnv first;
  FakeEnv second;
  (void)task.step(first.env);   // writes 1 via the env handle
  (void)task.step(second.env);  // same handle, new environment: writes 2
  EXPECT_EQ(first.words.at(0), 1);
  EXPECT_EQ(second.words.at(0), 2);
  FakeEnv third;
  third.words[1] = 7;
  const StepResult step = task.step(third.env);
  EXPECT_EQ(step.kind, StepKind::kExit);
  EXPECT_EQ(step.arg, 7u);  // read from the third environment
}

CoTask throwing_body() {
  co_await compute();
  throw std::runtime_error("boom");
  co_return 0;  // unreachable; keeps control from flowing off the end
}

TEST(CoTaskTest, ExceptionPropagatesThenTaskIsTerminal) {
  CoTask task = throwing_body();
  FakeEnv fake;
  EXPECT_EQ(task.step(fake.env).kind, StepKind::kCompute);
  EXPECT_THROW((void)task.step(fake.env), std::runtime_error);
  // The error is consumed; the frame is done and reports a failing exit.
  EXPECT_TRUE(task.done());
  const StepResult step = task.step(fake.env);
  EXPECT_EQ(step.kind, StepKind::kExit);
  EXPECT_EQ(step.arg, 1u);
}

CoTask probe_body(int* alive) {
  FrameProbe probe(alive);
  std::vector<int> scratch(64, 42);  // heap-owning local in the frame
  for (;;) {
    co_await compute(static_cast<std::uint32_t>(scratch.size()));
  }
}

TEST(CoTaskTest, DestroyingSuspendedFrameRunsLocalDestructors) {
  int alive = 0;
  {
    CoTask task = probe_body(&alive);
    EXPECT_EQ(alive, 0);  // body has not started yet (initial suspend)
    FakeEnv fake;
    (void)task.step(fake.env);
    (void)task.step(fake.env);
    EXPECT_EQ(alive, 1);
  }  // CoTask destroyed while suspended mid-loop
  EXPECT_EQ(alive, 0);
}

TEST(CoTaskTest, MoveTransfersFrameOwnership) {
  int alive = 0;
  FakeEnv fake;
  CoTask task = probe_body(&alive);
  (void)task.step(fake.env);
  CoTask stolen = std::move(task);
  EXPECT_FALSE(task.valid());  // NOLINT(bugprone-use-after-move): tested
  EXPECT_TRUE(stolen.valid());
  EXPECT_EQ(alive, 1);
  stolen = CoTask();  // move-assign over it: old frame destroyed
  EXPECT_EQ(alive, 0);
}

// --- frame lifetime under the kernel ---------------------------------------

CoTask blocking_probe_body(int* alive, std::uint32_t mutex) {
  FrameProbe probe(alive);
  co_await lock(mutex);
  for (;;) co_await compute();
}

CoTask hold_forever_body(std::uint32_t mutex) {
  co_await lock(mutex);
  for (;;) co_await compute();
}

TEST(CoTaskKernelTest, TaskDeleteDestroysBlockedFrame) {
  int alive = 0;
  PcoreKernel kernel;
  sim::Soc soc;
  soc.attach(kernel);
  const MutexId mutex = kernel.mutex_create();
  kernel.register_program(1, [mutex](std::uint32_t) {
    return Program{"holder", hold_forever_body(mutex)};
  });
  kernel.register_program(2, [&alive, mutex](std::uint32_t) {
    return Program{"victim", blocking_probe_body(&alive, mutex)};
  });

  TaskId holder = kInvalidTask;
  ASSERT_EQ(kernel.task_create(1, 0, /*priority=*/5, holder), Status::kOk);
  for (int i = 0; i < 4; ++i) (void)soc.step();
  ASSERT_EQ(kernel.mutex(mutex).owner, holder);
  // Park the holder so the victim gets scheduled and blocks on the mutex.
  ASSERT_EQ(kernel.task_suspend(holder), Status::kOk);

  TaskId victim = kInvalidTask;
  ASSERT_EQ(kernel.task_create(2, 0, /*priority=*/4, victim), Status::kOk);
  for (int i = 0; i < 4; ++i) (void)soc.step();
  ASSERT_EQ(kernel.tcb(victim).state, TaskState::kBlocked);
  ASSERT_EQ(alive, 1);

  // Deleting the blocked task reclaims its TCB and must destroy the
  // suspended coroutine frame — running the destructors of its locals.
  ASSERT_EQ(kernel.task_delete(victim), Status::kOk);
  EXPECT_EQ(alive, 0);
  EXPECT_FALSE(kernel.panicked());
}

CoTask failing_body() {
  co_await compute();
  co_return 42;  // assertion failure under panic_on_nonzero_exit
}

TEST(CoTaskKernelTest, PanicKeepsSuspendedFramesThenTeardownFrees) {
  // When another task panics the kernel, a bystander suspended mid-body
  // stays alive for the bug detector's post-mortem snapshot; destroying
  // the kernel (session teardown after the report) frees its frame.
  int alive = 0;
  {
    KernelConfig config;
    config.panic_on_nonzero_exit = true;
    PcoreKernel kernel(config);
    sim::Soc soc;
    soc.attach(kernel);
    kernel.register_program(1, [&alive](std::uint32_t) {
      return Program{"bystander", probe_body(&alive)};
    });
    kernel.register_program(2, [](std::uint32_t) {
      return Program{"failer", failing_body()};
    });
    TaskId bystander = kInvalidTask;
    ASSERT_EQ(kernel.task_create(1, 0, /*priority=*/5, bystander),
              Status::kOk);
    for (int i = 0; i < 3; ++i) (void)soc.step();
    ASSERT_EQ(alive, 1);  // bystander suspended mid-loop

    // Higher priority: the failer preempts, exits nonzero, kernel panics.
    TaskId failer = kInvalidTask;
    ASSERT_EQ(kernel.task_create(2, 0, /*priority=*/9, failer), Status::kOk);
    for (int i = 0; i < 8 && !kernel.panicked(); ++i) (void)soc.step();
    ASSERT_TRUE(kernel.panicked());
    EXPECT_EQ(alive, 1);
  }  // kernel destroyed — the campaign-abort / session-teardown path
  EXPECT_EQ(alive, 0);
}

TEST(CoTaskKernelTest, KernelTeardownDestroysRunningFrames) {
  // Campaign abort: a session can be dropped while tasks are mid-body.
  int alive = 0;
  {
    PcoreKernel kernel;
    sim::Soc soc;
    soc.attach(kernel);
    kernel.register_program(1, [&alive](std::uint32_t) {
      return Program{"spinner", probe_body(&alive)};
    });
    TaskId task = kInvalidTask;
    ASSERT_EQ(kernel.task_create(1, 0, /*priority=*/5, task), Status::kOk);
    for (int i = 0; i < 5; ++i) (void)soc.step();
    EXPECT_EQ(alive, 1);
  }
  EXPECT_EQ(alive, 0);
}

}  // namespace
}  // namespace ptest::pcore
