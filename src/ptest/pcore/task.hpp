// Task control blocks for the pCore microkernel simulator.
//
// pCore supports up to 16 concurrent tasks on the DSP; each is "typically
// forked with a unique priority by a thread in Linux" (paper §IV-A).  A
// task slot cycles through Free -> Ready/Running/Suspended/Blocked ->
// Terminated -> Free; its TCB and 512-byte stack live in the kernel heap
// and are reclaimed by the collector after deletion.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>

#include "ptest/pcore/co_task.hpp"
#include "ptest/sim/clock.hpp"

namespace ptest::pcore {

using TaskId = std::uint8_t;
inline constexpr TaskId kInvalidTask = 0xff;
inline constexpr std::size_t kMaxTasks = 16;
inline constexpr std::size_t kStackBytes = 512;
inline constexpr std::size_t kTcbBytes = 64;

using Priority = std::uint8_t;  // higher value runs first

enum class TaskState : std::uint8_t {
  kFree,        // slot unused
  kReady,       // runnable, waiting for the CPU
  kRunning,     // currently scheduled
  kSuspended,   // stopped via task_suspend, resumable via task_resume
  kBlocked,     // waiting on a mutex/semaphore
  kTerminated,  // finished; resources parked on the heap graveyard
};

[[nodiscard]] const char* to_string(TaskState state) noexcept;

/// Ready and Running tasks compete for the processor.
[[nodiscard]] constexpr bool is_runnable(TaskState state) noexcept {
  return state == TaskState::kReady || state == TaskState::kRunning;
}
/// A slot holds a task from task_create until it is freed or terminated.
[[nodiscard]] constexpr bool is_live(TaskState state) noexcept {
  return state != TaskState::kFree && state != TaskState::kTerminated;
}

/// One bit per task slot: bit i stands for slot i.
using SlotMask = std::uint16_t;
static_assert(kMaxTasks <= 16, "SlotMask holds one bit per task slot");

[[nodiscard]] constexpr SlotMask slot_bit(TaskId slot) noexcept {
  return static_cast<SlotMask>(1u << slot);
}
/// The slot of `mask`'s lowest set bit; `mask` must be non-zero.  Walk a
/// mask in ascending slot order with `for (m = mask; m != 0; m &= m - 1)`.
[[nodiscard]] inline TaskId lowest_slot(SlotMask mask) noexcept {
  return static_cast<TaskId>(std::countr_zero(mask));
}

struct Tcb {
  TaskState state = TaskState::kFree;
  Priority priority = 0;
  /// The running coroutine and the name its factory gave it (null while
  /// the slot is free).
  CoTask body;
  const char* program = nullptr;
  /// Heap offsets of the TCB and stack blocks (reclaimed on delete).
  std::uint32_t tcb_block = 0;
  std::uint32_t stack_block = 0;
  /// Mutex the task is blocked on, if any.
  std::optional<std::uint8_t> waiting_on;
  /// Set when the task voluntarily yielded: the scheduler passes over it
  /// once so lower-priority tasks get the processor ("the function yield()
  /// means that the current process yields the processor to other waiting
  /// processes", paper §II-A — Fig. 1's b c g h alternation depends on it).
  bool yield_pending = false;
  /// Bookkeeping for the bug detector and for Table I accounting.
  sim::Tick created_at = 0;
  sim::Tick last_progress = 0;  // last tick the program made a step
  std::uint64_t steps = 0;
  /// Increments every time the slot is reused; lets remote handles detect
  /// stale task references.
  std::uint32_t generation = 0;
};

}  // namespace ptest::pcore
