#include "ptest/pcore/programs.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <vector>

#include "ptest/pcore/sync.hpp"

namespace ptest::pcore {
namespace {

/// A hand-filled environment for stepping bodies outside a kernel: task 0,
/// two shared words and two mutexes.
struct FakeEnv {
  std::vector<std::int32_t> words{0, 0};
  std::array<KMutex, 2> mutexes{};
  StepEnv env{0, &words, mutexes.data(), mutexes.size()};
};

void expect_step(CoTask& body, StepEnv& env, StepResult expected) {
  const StepResult step = body.step(env);
  EXPECT_EQ(step.kind, expected.kind);
  EXPECT_EQ(step.arg, expected.arg);
}

TEST(ProgramTest, IdleNeverExits) {
  CoTask body = idle();
  FakeEnv fake;
  for (int i = 0; i < 100; ++i) {
    expect_step(body, fake.env, StepResult::compute());
  }
}

TEST(ProgramTest, FiniteComputeExitsAfterUnits) {
  CoTask body = finite_compute(3);
  FakeEnv fake;
  for (int i = 0; i < 3; ++i) {
    expect_step(body, fake.env, StepResult::compute());
  }
  expect_step(body, fake.env, StepResult::exit(0));
}

TEST(ProgramTest, ScriptReplaysAndExits) {
  CoTask body = script({StepResult::compute(2), StepResult::yield(),
                        StepResult::lock(3)});
  FakeEnv fake;
  expect_step(body, fake.env, StepResult::compute(2));
  expect_step(body, fake.env, StepResult::yield());
  expect_step(body, fake.env, StepResult::lock(3));
  expect_step(body, fake.env, StepResult::exit(0));
}

TEST(ProgramTest, ScriptLoopsWhenAsked) {
  CoTask body = script({StepResult::compute()}, /*loop=*/true);
  FakeEnv fake;
  for (int i = 0; i < 10; ++i) {
    expect_step(body, fake.env, StepResult::compute());
  }
}

TEST(ProgramTest, LockHoldSequence) {
  CoTask body = lock_hold(/*mutex=*/1, /*hold_steps=*/2);
  FakeEnv fake;
  expect_step(body, fake.env, StepResult::lock(1));
  fake.mutexes[1].owner = fake.env.task;  // kernel grants the lock
  expect_step(body, fake.env, StepResult::compute());
  expect_step(body, fake.env, StepResult::compute());
  expect_step(body, fake.env, StepResult::unlock(1));
  expect_step(body, fake.env, StepResult::exit(0));
}

TEST(ProgramTest, LockHoldYieldsUntilOwnershipArrives) {
  CoTask body = lock_hold(/*mutex=*/1, /*hold_steps=*/1);
  FakeEnv fake;
  expect_step(body, fake.env, StepResult::lock(1));
  fake.mutexes[1].owner = 5;  // another task still owns it
  expect_step(body, fake.env, StepResult::yield());
  expect_step(body, fake.env, StepResult::yield());
  fake.mutexes[1].owner = fake.env.task;
  expect_step(body, fake.env, StepResult::compute());
  expect_step(body, fake.env, StepResult::unlock(1));
  expect_step(body, fake.env, StepResult::exit(0));
}

CoTask read_word_body(std::size_t index) {
  TaskEnv task = co_await env();
  co_return static_cast<std::uint32_t>(task.shared(index));
}

TEST(ProgramTest, SharedWordsAreBoundsChecked) {
  FakeEnv fake;
  fake.words[1] = 9;
  CoTask in_range = read_word_body(1);
  expect_step(in_range, fake.env, StepResult::exit(9));
  CoTask past_end = read_word_body(2);
  try {
    (void)past_end.step(fake.env);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& error) {
    EXPECT_STREQ(error.what(), "PcoreKernel: shared word index out of range");
  }
}

TEST(ProgramTest, StepResultFactories) {
  EXPECT_EQ(StepResult::compute(5).arg, 5u);
  EXPECT_EQ(StepResult::lock(2).kind, StepKind::kLock);
  EXPECT_EQ(StepResult::unlock(2).kind, StepKind::kUnlock);
  EXPECT_EQ(StepResult::exit(1).arg, 1u);
  EXPECT_EQ(StepResult::yield().kind, StepKind::kYield);
}

}  // namespace
}  // namespace ptest::pcore
