#include "ptest/pcore/scheduler.hpp"

namespace ptest::pcore {

TaskId PriorityScheduler::pick(const std::array<Tcb, kMaxTasks>& tcbs,
                               SlotMask runnable, SlotMask yielded,
                               TaskId current) const {
  // Two passes: first skipping tasks that just yielded (they handed the
  // processor over), then — if nothing else is runnable — including them.
  for (const SlotMask candidates :
       {static_cast<SlotMask>(runnable & ~yielded), runnable}) {
    if (candidates == 0) continue;
    TaskId best = kInvalidTask;
    Priority best_priority = 0;
    for (SlotMask m = candidates; m != 0; m &= m - 1) {
      const TaskId i = lowest_slot(m);
      const Priority priority = tcbs[i].priority;
      const bool better =
          best == kInvalidTask || priority > best_priority ||
          // Tie: prefer the incumbent to avoid gratuitous switches.
          (priority == best_priority && i == current);
      if (better) {
        best = i;
        best_priority = priority;
      }
    }
    return best;
  }
  return kInvalidTask;
}

void PriorityScheduler::note_dispatch(TaskId previous, TaskId next,
                                      bool previous_runnable) {
  if (next == kInvalidTask || next == previous) return;
  ++context_switches_;
  if (previous != kInvalidTask && previous_runnable) ++preemptions_;
}

}  // namespace ptest::pcore
