// Kernel mutexes for pCore tasks (the "mutually exclusive shared
// resources" of the paper's dining-philosophers case study 2).
//
// Ownership transfer on wake: unlock hands the mutex to the
// highest-priority waiter directly, so a woken task resumes already
// holding the lock (see co_task.hpp).  The wait queue and owner are fully
// inspectable — the bug detector builds its wait-for graph from them.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ptest/pcore/task.hpp"

namespace ptest::pcore {

using MutexId = std::uint8_t;
inline constexpr std::size_t kMaxMutexes = 32;

struct KMutex {
  bool exists = false;
  std::optional<TaskId> owner;
  /// Blocked tasks in arrival order; the kernel picks the highest-priority
  /// one on unlock (ties broken by arrival).
  std::vector<TaskId> waiters;
  std::uint64_t acquisitions = 0;
  std::uint64_t contentions = 0;
};

}  // namespace ptest::pcore
