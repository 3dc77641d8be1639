// Preemptive priority-based scheduler of the pCore microkernel: "always
// schedules the task with highest priority to run" (paper §IV-A).
//
// Decision function over the TCB table: among Ready/Running tasks pick the
// highest priority; ties break toward the currently running task (no
// gratuitous switch), then the lowest slot.  A newly readied
// higher-priority task therefore preempts at the next tick boundary.
//
// The kernel hands over its runnable and yield slot masks, so a pick
// reads only the priorities of runnable slots instead of scanning all 16
// TCBs.
#pragma once

#include <array>
#include <cstdint>

#include "ptest/pcore/task.hpp"

namespace ptest::pcore {

class PriorityScheduler {
 public:
  /// Picks the next task to run; kInvalidTask when none is runnable.
  /// `runnable` holds the Ready/Running slots, `yielded` the slots whose
  /// `yield_pending` is set; of `tcbs` only runnable priorities are read.
  [[nodiscard]] TaskId pick(const std::array<Tcb, kMaxTasks>& tcbs,
                            SlotMask runnable, SlotMask yielded,
                            TaskId current) const;

  [[nodiscard]] std::uint64_t context_switches() const noexcept {
    return context_switches_;
  }
  [[nodiscard]] std::uint64_t preemptions() const noexcept {
    return preemptions_;
  }

  /// Called by the kernel after each scheduling decision so the counters
  /// reflect actual switches.
  void note_dispatch(TaskId previous, TaskId next, bool previous_runnable);

 private:
  std::uint64_t context_switches_ = 0;
  std::uint64_t preemptions_ = 0;
};

}  // namespace ptest::pcore
