#include "ptest/workload/seeded_bugs.hpp"

#include "ptest/pcore/co_task.hpp"

namespace ptest::workload {

namespace {

constexpr std::size_t kCounterWord = 2;
constexpr std::size_t kFlagWord = 3;

/// Unprotected read-modify-write with a deschedulable window.
pcore::CoTask lost_update_body() {
  pcore::TaskEnv env = co_await pcore::env();
  const std::int32_t snapshot = env.shared(kCounterWord);  // read
  co_await pcore::compute();
  co_await pcore::yield();  // the race window: yield invites interleaving
  // Write back; torn if someone else updated meanwhile.
  if (env.shared(kCounterWord) != snapshot) {
    co_return 1;  // atomicity violated
  }
  env.set_shared(kCounterWord, snapshot + 1);
  co_return 0;
}

/// Producer: sets the flag after some work.
pcore::CoTask order_producer_body() {
  pcore::TaskEnv env = co_await pcore::env();
  for (int i = 0; i < 3; ++i) co_await pcore::compute();
  env.set_shared(kFlagWord, 1);
  co_return 0;
}

/// Consumer: gives the producer a beat, then asserts the flag — the
/// defect is the *assumption*, which specific schedules break.
pcore::CoTask order_consumer_body() {
  pcore::TaskEnv env = co_await pcore::env();
  co_await pcore::compute();
  co_return env.shared(kFlagWord) == 1 ? 0u : 1u;
}

/// Locks `first` then `second` with a hold-and-wait window several
/// compute steps wide — the paper's case-study tasks compute while
/// holding a resource, which is what gives suspend commands something to
/// land in.  Instantiated once as (A, B) and once as (B, A).
pcore::CoTask opposed_lock_body(pcore::MutexId first, pcore::MutexId second) {
  co_await pcore::lock(first);
  for (int i = 0; i < 6; ++i) co_await pcore::compute();
  co_await pcore::lock(second);
  co_await pcore::unlock(second);
  co_await pcore::unlock(first);
  co_return 0;
}

}  // namespace

const char* to_string(SeededBug bug) noexcept {
  switch (bug) {
    case SeededBug::kLostUpdate: return "lost-update";
    case SeededBug::kOrderViolation: return "order-violation";
    case SeededBug::kDeadlockPair: return "deadlock-pair";
  }
  return "?";
}

std::uint32_t seeded_bug_program_id(SeededBug bug) noexcept {
  return 10 + static_cast<std::uint32_t>(bug);
}

void register_seeded_bug(pcore::PcoreKernel& kernel, SeededBug bug) {
  switch (bug) {
    case SeededBug::kLostUpdate:
      kernel.register_program(seeded_bug_program_id(bug), [](std::uint32_t) {
        return pcore::Program{"lost-update", lost_update_body()};
      });
      break;
    case SeededBug::kOrderViolation:
      kernel.register_program(
          seeded_bug_program_id(bug), [](std::uint32_t arg) {
            return pcore::Program{"order", arg == 0 ? order_producer_body()
                                                    : order_consumer_body()};
          });
      break;
    case SeededBug::kDeadlockPair: {
      const pcore::MutexId a = kernel.mutex_create();
      const pcore::MutexId b = kernel.mutex_create();
      kernel.register_program(
          seeded_bug_program_id(bug), [a, b](std::uint32_t arg) {
            return pcore::Program{"opposed-lock",
                                  arg == 0 ? opposed_lock_body(a, b)
                                           : opposed_lock_body(b, a)};
          });
      break;
    }
  }
}

}  // namespace ptest::workload
