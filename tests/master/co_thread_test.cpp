// CoThread runtime tests: primitive awaiter desugaring, the kDone repeat
// contract, and the remote_cmd awaiter — posting over the bridge, polling
// for the Response *without resuming the frame*, and resuming the body
// with the Response once the slave answers.
#include "ptest/master/co_thread.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "ptest/bridge/committee.hpp"
#include "ptest/master/scheduler.hpp"
#include "ptest/pcore/kernel.hpp"
#include "ptest/pcore/programs.hpp"

namespace ptest::master {
namespace {

CoThread primitive_body() {
  co_await proceed();
  co_await wait();
}

TEST(CoThreadTest, PrimitiveAwaitsDesugarToThreadSteps) {
  sim::Soc soc;
  bridge::Channel channel(soc);
  MasterContext ctx(soc, channel);
  CoThread thread = primitive_body();
  ASSERT_TRUE(thread.valid());
  EXPECT_EQ(thread.step(ctx), ThreadStep::kContinue);
  EXPECT_EQ(thread.step(ctx), ThreadStep::kWaiting);
  EXPECT_EQ(thread.step(ctx), ThreadStep::kDone);
  EXPECT_TRUE(thread.done());
  // A scheduler that steps a finished thread again just sees kDone.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(thread.step(ctx), ThreadStep::kDone);
  }
}

CoThread env_body(sim::Tick* seen) {
  MasterEnv master = co_await env();
  *seen = master.now();
  co_await proceed();
  *seen = master.now();  // same handle, fresh per-step context
}

TEST(CoThreadTest, EnvIndirectsThroughPerStepContext) {
  sim::Soc soc;
  bridge::Channel channel(soc);
  MasterContext ctx(soc, channel);
  sim::Tick seen = 999;
  CoThread thread = env_body(&seen);
  (void)thread.step(ctx);
  EXPECT_EQ(seen, soc.now());
  (void)soc.step();  // advance simulated time between steps
  (void)soc.step();
  (void)thread.step(ctx);
  EXPECT_EQ(seen, soc.now());
  EXPECT_TRUE(thread.done());
}

CoThread throwing_body() {
  co_await proceed();
  throw std::runtime_error("boom");
}

TEST(CoThreadTest, ExceptionPropagatesThenThreadIsDone) {
  sim::Soc soc;
  bridge::Channel channel(soc);
  MasterContext ctx(soc, channel);
  CoThread thread = throwing_body();
  EXPECT_EQ(thread.step(ctx), ThreadStep::kContinue);
  EXPECT_THROW((void)thread.step(ctx), std::runtime_error);
  EXPECT_TRUE(thread.done());
  EXPECT_EQ(thread.step(ctx), ThreadStep::kDone);
}

CoThread suspend_task_body(bridge::Command command, bridge::Response* out,
                           bool* resumed) {
  const bridge::Response response = co_await remote_cmd(command);
  *resumed = true;
  *out = response;
}

TEST(CoThreadTest, RemoteCmdPollsWithoutResumingUntilResponse) {
  sim::Soc soc;
  bridge::Channel channel(soc);
  pcore::PcoreKernel kernel;
  bridge::Committee committee(channel, kernel);
  soc.attach(committee);
  soc.attach(kernel);
  kernel.register_program(1, [](std::uint32_t) {
    return pcore::Program{"idle", pcore::idle()};
  });
  pcore::TaskId task = pcore::kInvalidTask;
  ASSERT_EQ(kernel.task_create(1, 0, /*priority=*/5, task),
            pcore::Status::kOk);

  bridge::Command command;
  command.seq = 77;
  command.service = bridge::Service::kTaskSuspend;
  command.task = task;

  bridge::Response response;
  bool resumed = false;
  MasterContext ctx(soc, channel);
  CoThread thread = suspend_task_body(command, &response, &resumed);

  // The posting step itself reports kContinue (the post landed).
  EXPECT_EQ(thread.step(ctx), ThreadStep::kContinue);
  // The committee has not run yet: the adapter polls, reports kWaiting,
  // and must NOT resume the body.
  EXPECT_EQ(thread.step(ctx), ThreadStep::kWaiting);
  EXPECT_EQ(thread.step(ctx), ThreadStep::kWaiting);
  EXPECT_FALSE(resumed);

  // Let the slave consume the command and post its Response.
  ThreadStep step = ThreadStep::kWaiting;
  for (int i = 0; i < 20 && step != ThreadStep::kDone; ++i) {
    (void)soc.step();
    step = thread.step(ctx);
  }
  EXPECT_EQ(step, ThreadStep::kDone);
  ASSERT_TRUE(resumed);
  EXPECT_EQ(response.seq, 77u);
  EXPECT_EQ(response.status, bridge::ResponseStatus::kOk);
  EXPECT_EQ(kernel.tcb(task).state, pcore::TaskState::kSuspended);
}

TEST(CoThreadTest, CoMasterThreadRunsUnderScheduler) {
  sim::Soc soc;
  bridge::Channel channel(soc);
  pcore::PcoreKernel kernel;
  bridge::Committee committee(channel, kernel);
  MasterScheduler scheduler(channel);
  kernel.register_program(1, [](std::uint32_t) {
    return pcore::Program{"idle", pcore::idle()};
  });
  pcore::TaskId task = pcore::kInvalidTask;
  ASSERT_EQ(kernel.task_create(1, 0, /*priority=*/5, task),
            pcore::Status::kOk);

  bridge::Command command;
  command.seq = 5;
  command.service = bridge::Service::kTaskSuspend;
  command.task = task;
  bridge::Response response;
  bool resumed = false;
  scheduler.add(make_co_thread("co-suspend",
                               suspend_task_body(command, &response,
                                                 &resumed)));
  soc.attach(scheduler);
  soc.attach(committee);
  soc.attach(kernel);
  for (sim::Tick t = 0; t < 1000 && !scheduler.all_done(); ++t) {
    (void)soc.step();
  }
  EXPECT_TRUE(scheduler.all_done());
  EXPECT_TRUE(resumed);
  EXPECT_EQ(response.status, bridge::ResponseStatus::kOk);
  EXPECT_EQ(kernel.tcb(task).state, pcore::TaskState::kSuspended);
}

}  // namespace
}  // namespace ptest::master
