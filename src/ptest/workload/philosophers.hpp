// Case study 2 workload: "a buggy version of the dining philosophers
// problem that could lead to deadlock.  The algorithm consisted of three
// concurrent tasks in pCore and three shared resources that were mutually
// exclusive.  A task needed two shared resources to resume its execution."
// (§IV-B)
//
// The buggy variant acquires first = own fork, second = right neighbour's
// fork for every philosopher — a cyclic acquisition order that deadlocks
// whenever all three hold their first fork simultaneously (which the
// cyclic merge op provokes by suspending each task between its two lock
// steps).  The fixed variant acquires in global mutex-id order and can
// never deadlock; it is the control in the benches.
#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "ptest/pcore/kernel.hpp"

namespace ptest::workload {

inline constexpr std::uint32_t kPhilosopherProgramId = 2;
inline constexpr std::size_t kPhilosopherCount = 3;

struct PhilosopherTable {
  std::array<pcore::MutexId, kPhilosopherCount> forks{};
};

/// The forks philosopher `index` (taken modulo 3) picks up, first then
/// second; `buggy` selects the cyclic acquisition order.
[[nodiscard]] std::pair<pcore::MutexId, pcore::MutexId> philosopher_forks(
    const PhilosopherTable& table, std::uint32_t index, bool buggy);

/// Creates the three fork mutexes and registers the philosopher body
/// under kPhilosopherProgramId with `buggy` acquisition order; arg =
/// philosopher index.  `meals` is the number of eat cycles before exiting;
/// `window` is the hold-and-wait width in kernel steps — the work a
/// philosopher does between picking up its first and second fork (the
/// real programs in the paper's case study compute while holding a
/// resource, which is exactly what gives the suspend commands something
/// to land in).
PhilosopherTable register_philosophers(pcore::PcoreKernel& kernel, bool buggy,
                                       std::uint32_t meals = 2,
                                       std::uint32_t window = 20);

}  // namespace ptest::workload
