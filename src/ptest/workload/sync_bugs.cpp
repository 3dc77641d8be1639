#include "ptest/workload/sync_bugs.hpp"

#include "ptest/pcore/co_task.hpp"

namespace ptest::workload {

namespace {

// Shared-word layouts.  Scoped per bug: a kernel hosts ONE sync bug per
// session (scenario sessions register exactly one), so different bugs
// reuse the same words freely.  All stay clear of fig1's 0/1 and
// seeded_bugs' 2/3, which sync-bug kernels may legitimately coexist
// with.
constexpr std::size_t kDataWord = 4;     // lost wakeup: predicate
constexpr std::size_t kWaitingWord = 5;  // lost wakeup: waiter registered
constexpr std::size_t kWakeWord = 6;     // lost wakeup: wakeup delivered

constexpr std::size_t kTopWord = 4;       // ABA: stack top (node id + 1)
constexpr std::size_t kNextBase = 4;      // ABA: next(node) at kNextBase+node
constexpr std::size_t kFreedWord = 8;     // ABA: id+1 of the freed node

constexpr std::size_t kInitFlagWord = 4;  // DCL: "initialized" flag
constexpr std::size_t kPayloadAWord = 5;  // DCL: payload, first half
constexpr std::size_t kPayloadBWord = 6;  // DCL: payload, second half
constexpr std::int32_t kPayloadValue = 42;

constexpr std::size_t kReadersWord = 4;  // rw: a reader has started

constexpr std::size_t kCountWord = 4;  // barrier: arrival count
constexpr std::size_t kGenWord = 5;    // barrier: generation (benign)

constexpr std::size_t kHeadWord = 4;   // queue: consumer cursor
constexpr std::size_t kTailWord = 5;   // queue: producer cursor
constexpr std::size_t kSlotBase = 6;   // queue: ring slots
constexpr std::int32_t kQueueItems = 3;
constexpr std::int32_t kItemValueBase = 100;

constexpr std::size_t kFig1XWord = 0;  // same flags as workload/fig1.hpp
constexpr std::size_t kFig1YWord = 1;

constexpr std::size_t kIntentBase = 4;     // backoff: intent flag per role
constexpr std::size_t kHeartbeatBase = 6;  // backoff: progress counter per role

// Priority inversion: work-unit budgets of the medium-priority hog.  The
// buggy hog's interference exceeds any sane starvation horizon; the
// benign bound is what priority inheritance would guarantee — the
// holder resumes long before the horizon.
constexpr std::uint32_t kBuggyHogUnits = 4000;
constexpr std::uint32_t kBenignHogUnits = 60;

/// Consecutive frozen-heartbeat looks before a backoff peer counts as
/// dead.  Each look yields one tick, so a preempted (ready) peer would
/// have advanced — only suspension freezes the beat this long.  Small on
/// purpose: the verdict must usually land before the pattern's TR
/// resumes the victim, or the bug would need implausibly late resumes to
/// manifest.
constexpr int kStallChecks = 3;

/// Lost wakeup, signaler side: publish the data, then wake the waiter
/// only if it has already registered.
pcore::CoTask lost_wakeup_signaler_body() {
  pcore::TaskEnv env = co_await pcore::env();
  co_await pcore::compute();  // produce the data
  co_await pcore::compute();
  env.set_shared(kDataWord, 1);
  co_await pcore::compute();
  if (env.shared(kWaitingWord) == 1) env.set_shared(kWakeWord, 1);
  co_return 0;
}

/// Lost wakeup, waiter side: check the predicate, then register in a
/// *later* step (the lost-wakeup window), then sleep until woken.  The
/// buggy waiter trusts the wakeup alone; the benign one re-checks the
/// predicate each time it wakes up to spin.
pcore::CoTask lost_wakeup_waiter_body(bool benign) {
  pcore::TaskEnv env = co_await pcore::env();
  // Check the predicate once, outside any wait protocol.
  if (env.shared(kDataWord) == 1) co_return 0;
  co_await pcore::yield();
  // The window: predicate checked, wakeup not yet requested.
  for (int i = 0; i < 3; ++i) co_await pcore::yield();
  env.set_shared(kWaitingWord, 1);
  co_await pcore::compute();
  for (;;) {  // asleep: wait for the wakeup
    if (env.shared(kWakeWord) == 1) co_return 0;
    // The fix: waking to re-check the predicate tolerates a lost
    // signal.  The buggy variant sleeps on the wakeup flag alone.
    if (benign && env.shared(kDataWord) == 1) co_return 0;
    co_await pcore::yield();
  }
}

/// Reader/writer starvation, writer side: a short update, but created
/// with the lowest slot priority.  Wait for the read load to exist (the
/// writer is created first), then try to run the update — under reader
/// preference the scheduler never dispatches it again until the readers
/// drain.
pcore::CoTask rw_writer_body() {
  pcore::TaskEnv env = co_await pcore::env();
  while (env.shared(kReadersWord) == 0) co_await pcore::yield();
  for (int i = 0; i < 3; ++i) co_await pcore::compute();
  co_return 0;
}

/// Reader side: long (buggy) or short (benign) read sections at higher
/// priorities, so the strict priority scheduler keeps the ready writer
/// off the CPU.  Re-raises the readers flag every step, as real readers
/// re-enter their read sections.
pcore::CoTask rw_reader_body(std::uint32_t section) {
  pcore::TaskEnv env = co_await pcore::env();
  for (std::uint32_t i = 0; i < section; ++i) {
    env.set_shared(kReadersWord, 1);
    co_await pcore::compute();
  }
  env.set_shared(kReadersWord, 1);
  co_return 0;
}

/// ABA victim popper: read top, read next, get descheduled (window),
/// then "CAS".
pcore::CoTask aba_victim_body() {
  pcore::TaskEnv env = co_await pcore::env();
  // Read (top, next); the hazard window opens here.
  const std::int32_t top = env.shared(kTopWord);
  if (top == 0) co_return 0;
  const std::int32_t next =
      env.shared(kNextBase + static_cast<std::size_t>(top));
  co_await pcore::yield();
  // Descheduled between read and CAS.
  for (int i = 0; i < 2; ++i) co_await pcore::yield();
  co_await pcore::compute();
  if (env.shared(kTopWord) != top) {
    co_return 0;  // CAS failed; retry elided
  }
  env.set_shared(kTopWord, next);  // CAS "succeeded"
  if (next != 0 && env.shared(kFreedWord) == next) {
    co_return kAbaExitCode;  // freed node live
  }
  co_return 0;
}

/// ABA interferer: pop A, pop B (freeing it), push A back — the classic
/// recycling that makes the victim's CAS succeed against a stale next
/// pointer.  Stack is A(1) -> B(2) -> C(3), node ids stored +1 so 0
/// reads as null.
pcore::CoTask aba_interferer_body() {
  pcore::TaskEnv env = co_await pcore::env();
  if (env.shared(kTopWord) != 1) {
    co_return 0;  // stack not pristine; bail
  }
  co_await pcore::compute();
  env.set_shared(kTopWord, env.shared(kNextBase + 1));  // pop A
  co_await pcore::compute();
  env.set_shared(kTopWord, env.shared(kNextBase + 2));  // pop B, free it
  env.set_shared(kFreedWord, 2);
  co_await pcore::compute();
  env.set_shared(kNextBase + 1, env.shared(kTopWord));  // push A back
  env.set_shared(kTopWord, 1);
  co_return 0;
}

/// Double-checked locking.  Every task runs the same code: fast-path
/// check of the flag without the lock, slow path under the lock.  The
/// buggy initializer publishes the flag before the second payload word
/// (the reordering the idiom is famous for); a fast-path reader then
/// uses torn payload.
pcore::CoTask dcl_body(pcore::MutexId lock, bool benign) {
  pcore::TaskEnv env = co_await pcore::env();
  if (env.shared(kInitFlagWord) == 1) {  // first (lock-free) check
    co_await pcore::compute();
  } else {
    co_await pcore::lock(lock);
    if (env.shared(kInitFlagWord) == 1) {  // second check, now locked
      co_await pcore::compute();
    } else {
      env.set_shared(kPayloadAWord, kPayloadValue);
      if (benign) {  // benign order: finish the payload, then publish
        co_await pcore::compute();
        env.set_shared(kPayloadBWord, kPayloadValue);
        env.set_shared(kInitFlagWord, 1);
        co_await pcore::compute();
      } else {
        // The bug: the flag becomes visible before payload B exists.
        env.set_shared(kInitFlagWord, 1);
        co_await pcore::compute();
        co_await pcore::yield();  // the torn window
        env.set_shared(kPayloadBWord, kPayloadValue);
        co_await pcore::compute();
      }
    }
    co_await pcore::unlock(lock);
  }
  // Use the singleton.
  if (env.shared(kPayloadAWord) != kPayloadValue ||
      env.shared(kPayloadBWord) != kPayloadValue) {
    co_return kDclExitCode;
  }
  co_return 0;
}

/// Barrier reuse.  `parties` tasks arrive at a counting barrier; the
/// last arriver immediately resets the count for the next use.  A waiter
/// that has not yet observed count == parties spins forever.  The benign
/// variant releases waiters through a generation word instead of the
/// (reset) count.
pcore::CoTask barrier_body(std::int32_t parties, bool benign) {
  pcore::TaskEnv env = co_await pcore::env();
  const std::int32_t gen = env.shared(kGenWord);  // arrive
  const std::int32_t count = env.shared(kCountWord) + 1;
  env.set_shared(kCountWord, count);
  co_await pcore::compute();
  if (count == parties) {  // last arriver: reset (and bump the generation)
    env.set_shared(kCountWord, 0);
    env.set_shared(kGenWord, gen + 1);
    co_return 0;
  }
  for (;;) {  // waiter
    if (benign) {  // generation release survives the count reset
      if (env.shared(kGenWord) != gen) co_return 0;
    } else if (env.shared(kCountWord) >= parties) {
      co_return 0;
    }
    co_await pcore::yield();
  }
}

/// Ring-buffer producer: the buggy variant publishes the advanced tail
/// before writing the slot.
pcore::CoTask queue_producer_body(bool benign) {
  pcore::TaskEnv env = co_await pcore::env();
  for (std::int32_t item = 0; item < kQueueItems; ++item) {
    const std::size_t slot = kSlotBase + static_cast<std::size_t>(item);
    if (benign) {  // write, then publish
      env.set_shared(slot, kItemValueBase + item);
    } else {  // the bug: publish, then write
      env.set_shared(kTailWord, item + 1);
    }
    co_await pcore::yield();  // the publication window
    if (benign) {
      env.set_shared(kTailWord, item + 1);
    } else {
      env.set_shared(slot, kItemValueBase + item);
    }
    co_await pcore::compute();
  }
  co_return 0;
}

/// Ring-buffer consumer: reads every slot the tail claims is ready and
/// asserts its value.
pcore::CoTask queue_consumer_body() {
  pcore::TaskEnv env = co_await pcore::env();
  for (;;) {
    const std::int32_t head = env.shared(kHeadWord);
    if (head >= kQueueItems) co_return 0;
    if (head < env.shared(kTailWord)) {
      const std::int32_t value =
          env.shared(kSlotBase + static_cast<std::size_t>(head));
      if (value != kItemValueBase + head) {
        co_return kQueueExitCode;  // read before write
      }
      env.set_shared(kHeadWord, head + 1);
      co_await pcore::compute();
      continue;
    }
    co_await pcore::yield();  // queue empty; spin politely
  }
}

/// The Fig. 1 spin fault, committer-driveable.
/// S1: x = 1; while (y == 1) yield; x = 0; end.  (S2 swaps x and y.)
/// The work between raising the flag and entering the spin loop is the
/// fault's alignment window: two tasks created within it both see the
/// other's flag raised and spin forever, reproducing the paper's
/// K a L f g h b c g h ... order through pattern-driven task creation.
pcore::CoTask fig1_pattern_body(std::size_t mine, std::size_t other,
                                int window) {
  pcore::TaskEnv env = co_await pcore::env();
  env.set_shared(mine, 1);  // a / f: raise my flag
  co_await pcore::compute();
  // Work before the loop — the alignment window of window + 1 computes.
  for (int i = 0; i < window + 1; ++i) co_await pcore::compute();
  // b / g: spin while the other flag is raised.
  while (env.shared(other) == 1) co_await pcore::yield();
  co_await pcore::compute();
  env.set_shared(mine, 0);  // d / i: lower my flag and end
  co_return 0;
}

/// Priority inversion, low-priority holder: takes the mutex and runs a
/// short critical section.
pcore::CoTask pinv_holder_body(pcore::MutexId lock) {
  co_await pcore::lock(lock);
  for (int i = 0; i < 6; ++i) co_await pcore::compute();  // critical section
  co_await pcore::unlock(lock);
  co_return 0;
}

/// Medium-priority hog: computes `units` work — the buggy budget exceeds
/// the starvation horizon, so the preempted holder sits
/// Ready-but-unscheduled while the high-priority waiter stays blocked on
/// the mutex it holds.
pcore::CoTask pinv_hog_body(std::uint32_t units) {
  for (std::uint32_t i = 0; i < units; ++i) co_await pcore::compute();
  co_return 0;
}

/// High-priority waiter: blocks on the mutex, then releases and exits.
pcore::CoTask pinv_waiter_body(pcore::MutexId lock) {
  co_await pcore::lock(lock);
  co_await pcore::unlock(lock);
  co_return 0;
}

/// Livelock via mutual-intent backoff with a stall detector.  Protocol
/// per task: raise the intent flag; if the peer's flag is up, *wait
/// politely* (yield) while the peer's heartbeat counter advances — a
/// merely preempted peer uses exactly those yielded ticks to finish its
/// guarded section, so contention resolves.  Only when the heartbeat
/// stalls for `kStallChecks` consecutive looks (the peer was SUSPENDED
/// mid-section — yields cannot run it) does the task declare the peer
/// dead, retreat, and retry.  The bug is the retry's backoff: busy-wait
/// computes.  Once a higher-priority task enters that loop, the
/// suspended-then-resumed flag owner is ready but never scheduled again
/// — its heartbeat stays frozen, the retrier spins forever, and the
/// detector's termination watchdog reports the hang.  The benign
/// variant backs off by yielding (the polite fix): the resumed owner
/// gets the CPU back, finishes, and both tasks terminate under every
/// schedule.  Provoking the bug therefore requires a suspend landing
/// inside the owner's guarded section — precisely the schedule feature
/// PFA suspend/resume patterns control.
pcore::CoTask livelock_backoff_body(std::size_t id, bool benign) {
  const std::size_t mine = kIntentBase + id;
  const std::size_t theirs = kIntentBase + (1 - id);
  const std::size_t my_beat = kHeartbeatBase + id;
  const std::size_t their_beat = kHeartbeatBase + (1 - id);
  pcore::TaskEnv env = co_await pcore::env();
  // Warm-up: pure pacing before the protocol.
  for (int i = 0; i < 4; ++i) co_await pcore::yield();
  co_await pcore::compute();
  bool dead_latched = false;
  std::int32_t last_beat = -1;
  int stalled = 0;
  bool entered = false;
  while (!entered) {
    env.set_shared(mine, 1);  // raise intent
    co_await pcore::compute();
    entered = true;
    // Contention: watch the peer's heartbeat while it holds.
    while (env.shared(theirs) == 1) {
      if (!dead_latched) {
        const std::int32_t beat = env.shared(their_beat);
        if (beat != last_beat) {  // alive — keep waiting politely
          last_beat = beat;
          stalled = 0;
          co_await pcore::yield();
          continue;
        }
        if (++stalled <= kStallChecks) {
          co_await pcore::yield();
          continue;
        }
        // Heartbeat frozen too long: declare the peer dead.  The bug
        // is the latch — the buggy variant never re-evaluates the
        // verdict, so its retry loop stays busy from here on and the
        // resumed owner never gets a tick to prove it is alive.
        if (!benign) dead_latched = true;
        stalled = 0;
      }
      env.set_shared(mine, 0);  // retreat
      co_await pcore::compute();
      for (int b = 0; b < 2; ++b) {  // back off, then retry
        if (benign) {
          // The polite fix: yield the CPU to the (resumed, lower
          // priority) flag owner so its heartbeat can move.
          co_await pcore::yield();
        } else {
          // The bug: busy-wait backoff hogs the CPU the owner needs.
          co_await pcore::compute();
        }
      }
      co_await pcore::compute();
      entered = false;
      break;
    }
  }
  co_await pcore::compute();
  // Guarded section: every step moves the heartbeat.
  for (int i = 0; i < 16; ++i) {
    env.set_shared(my_beat, env.shared(my_beat) + 1);
    co_await pcore::compute();
  }
  env.set_shared(mine, 0);
  co_await pcore::compute();
  co_return 0;
}

}  // namespace

const char* to_string(SyncBug bug) noexcept {
  switch (bug) {
    case SyncBug::kLostWakeup: return "lost-wakeup";
    case SyncBug::kWriterStarvation: return "writer-starvation";
    case SyncBug::kAbaStack: return "aba-stack";
    case SyncBug::kDoubleCheckedLock: return "double-checked-lock";
    case SyncBug::kBarrierReuse: return "barrier-reuse";
    case SyncBug::kQueueOrder: return "queue-order";
    case SyncBug::kFig1Livelock: return "fig1-livelock";
    case SyncBug::kPriorityInversion: return "priority-inversion";
    case SyncBug::kLivelockBackoff: return "livelock-backoff";
  }
  return "?";
}

std::uint32_t sync_bug_program_id(SyncBug bug) noexcept {
  return 20 + static_cast<std::uint32_t>(bug);
}

void register_sync_bug(pcore::PcoreKernel& kernel, SyncBug bug, bool benign) {
  const std::uint32_t id = sync_bug_program_id(bug);
  switch (bug) {
    case SyncBug::kLostWakeup:
      kernel.register_program(id, [benign](std::uint32_t arg) {
        return pcore::Program{"lost-wakeup",
                              arg == 0 ? lost_wakeup_signaler_body()
                                       : lost_wakeup_waiter_body(benign)};
      });
      break;
    case SyncBug::kWriterStarvation:
      kernel.register_program(id, [benign](std::uint32_t arg) {
        return arg == 0 ? pcore::Program{"rw-writer", rw_writer_body()}
                        : pcore::Program{"rw-reader",
                                         rw_reader_body(benign ? 40u : 500u)};
      });
      break;
    case SyncBug::kAbaStack:
      // Stack A(1) -> B(2) -> C(3); ids stored +1 so 0 is null.
      kernel.set_shared_word(kTopWord, 1);
      kernel.set_shared_word(kNextBase + 1, 2);
      kernel.set_shared_word(kNextBase + 2, 3);
      kernel.set_shared_word(kNextBase + 3, 0);
      kernel.register_program(id, [](std::uint32_t arg) {
        return pcore::Program{
            "aba-stack", arg == 0 ? aba_victim_body() : aba_interferer_body()};
      });
      break;
    case SyncBug::kDoubleCheckedLock: {
      const pcore::MutexId lock = kernel.mutex_create();
      kernel.register_program(id, [lock, benign](std::uint32_t) {
        return pcore::Program{"dcl-init", dcl_body(lock, benign)};
      });
      break;
    }
    case SyncBug::kBarrierReuse:
      kernel.register_program(id, [benign](std::uint32_t) {
        return pcore::Program{"barrier", barrier_body(3, benign)};
      });
      break;
    case SyncBug::kQueueOrder:
      kernel.register_program(id, [benign](std::uint32_t arg) {
        return pcore::Program{"queue-order",
                              arg == 0 ? queue_producer_body(benign)
                                       : queue_consumer_body()};
      });
      break;
    case SyncBug::kPriorityInversion: {
      const pcore::MutexId lock = kernel.mutex_create();
      kernel.register_program(id, [lock, benign](std::uint32_t arg) {
        const std::uint32_t units = benign ? kBenignHogUnits : kBuggyHogUnits;
        if (arg == 0) {
          return pcore::Program{"pinv-holder", pinv_holder_body(lock)};
        }
        if (arg == 1) {
          return pcore::Program{"pinv-hog", pinv_hog_body(units)};
        }
        return pcore::Program{"pinv-waiter", pinv_waiter_body(lock)};
      });
      break;
    }
    case SyncBug::kLivelockBackoff:
      kernel.register_program(id, [benign](std::uint32_t arg) {
        return pcore::Program{"livelock-backoff",
                              livelock_backoff_body(arg % 2, benign)};
      });
      break;
    case SyncBug::kFig1Livelock:
      kernel.register_program(id, [](std::uint32_t arg) {
        return pcore::Program{
            "fig1-pattern",
            arg % 2 == 0 ? fig1_pattern_body(kFig1XWord, kFig1YWord, 8)
                         : fig1_pattern_body(kFig1YWord, kFig1XWord, 8)};
      });
      break;
  }
}

}  // namespace ptest::workload
