// Case study 1 workload: "All of 16 active tasks performed the same
// quick-sort algorithm to individually sort 128 integer elements.  The
// size of integer data is 2 bytes and the stack size of each task is 512
// bytes." (§IV-B)
//
// The quicksort body sorts 128 deterministic pseudo-random int16 values
// with an explicit-stack quicksort, one partition awaited per kernel step
// (bounded work, matching the one-step-per-tick execution model).  On
// completion it verifies the array and exits 0, or exits 1 on a sorting
// error — with kernel.panic_on_nonzero_exit armed, a miscompare surfaces
// as a slave crash the bug detector catches.
#pragma once

#include <cstdint>
#include <vector>

#include "ptest/pcore/kernel.hpp"

namespace ptest::workload {

inline constexpr std::uint32_t kQuicksortProgramId = 1;
inline constexpr std::size_t kQuicksortElements = 128;

/// The values the task created with `seed_arg` sorts.
[[nodiscard]] std::vector<std::int16_t> quicksort_input(
    std::uint32_t seed_arg, std::size_t elements = kQuicksortElements);

/// Registers the quicksort body under kQuicksortProgramId; arg = seed_arg.
void register_quicksort(pcore::PcoreKernel& kernel);

}  // namespace ptest::workload
