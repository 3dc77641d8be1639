// Small built-in task bodies used by tests and as building blocks; the
// paper's workloads (quicksort, dining philosophers, Fig. 1 spin pair)
// live in ptest/workload.
#pragma once

#include <vector>

#include "ptest/pcore/co_task.hpp"

namespace ptest::pcore {

/// Computes forever (never exits); useful for scheduler tests.
[[nodiscard]] CoTask idle();

/// Computes `units` steps then exits successfully.
[[nodiscard]] CoTask finite_compute(std::uint32_t units);

/// Replays a fixed list of StepResults (optionally in a loop).
[[nodiscard]] CoTask script(std::vector<StepResult> steps, bool loop = false);

/// Locks a mutex, holds it for `hold_steps` compute steps, unlocks, exits.
[[nodiscard]] CoTask lock_hold(std::uint32_t mutex, std::uint32_t hold_steps);

}  // namespace ptest::pcore
