#include "ptest/workload/philosophers.hpp"

#include <algorithm>

namespace ptest::workload {

namespace {

pcore::CoTask philosopher_body(pcore::MutexId first, pcore::MutexId second,
                               std::uint32_t meals, std::uint32_t window) {
  std::uint32_t eaten = 0;
  do {
    co_await pcore::compute(2);  // think
    co_await pcore::lock(first);
    // Work while holding the first fork — the deadlock window.
    for (std::uint32_t done = 0; done < window; ++done) {
      co_await pcore::compute(1);
    }
    co_await pcore::lock(second);
    co_await pcore::compute(2);  // eat
    co_await pcore::unlock(second);
    co_await pcore::unlock(first);
  } while (++eaten < meals);
  co_return 0;
}

}  // namespace

std::pair<pcore::MutexId, pcore::MutexId> philosopher_forks(
    const PhilosopherTable& table, std::uint32_t index, bool buggy) {
  const std::size_t i = index % kPhilosopherCount;
  const pcore::MutexId left = table.forks[i];
  const pcore::MutexId right = table.forks[(i + 1) % kPhilosopherCount];
  // Cyclic order: everyone grabs the left fork first.
  if (buggy) return {left, right};
  // Global order: lower mutex id first — no cycle possible.
  return {std::min(left, right), std::max(left, right)};
}

PhilosopherTable register_philosophers(pcore::PcoreKernel& kernel, bool buggy,
                                       std::uint32_t meals,
                                       std::uint32_t window) {
  PhilosopherTable table;
  for (auto& fork : table.forks) fork = kernel.mutex_create();
  if (window == 0) window = 1;
  kernel.register_program(
      kPhilosopherProgramId,
      [table, buggy, meals, window](std::uint32_t arg) {
        const auto [first, second] = philosopher_forks(table, arg, buggy);
        return pcore::Program{"philosopher",
                              philosopher_body(first, second, meals, window)};
      });
  return table;
}

}  // namespace ptest::workload
