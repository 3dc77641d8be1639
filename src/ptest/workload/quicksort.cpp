#include "ptest/workload/quicksort.hpp"

#include <algorithm>
#include <utility>

#include "ptest/support/rng.hpp"

namespace ptest::workload {

namespace {

pcore::CoTask quicksort_body(std::vector<std::int16_t> data) {
  std::vector<std::pair<std::int32_t, std::int32_t>> stack;
  if (!data.empty()) {
    stack.emplace_back(0, static_cast<std::int32_t>(data.size()) - 1);
  }
  while (!stack.empty()) {
    const auto [lo, hi] = stack.back();
    stack.pop_back();
    if (lo >= hi) {
      co_await pcore::compute();
      continue;
    }
    // One Lomuto partition per step (bounded work unit).
    const std::int16_t pivot = data[static_cast<std::size_t>(hi)];
    std::int32_t i = lo - 1;
    for (std::int32_t j = lo; j < hi; ++j) {
      if (data[static_cast<std::size_t>(j)] <= pivot) {
        ++i;
        std::swap(data[static_cast<std::size_t>(i)],
                  data[static_cast<std::size_t>(j)]);
      }
    }
    std::swap(data[static_cast<std::size_t>(i + 1)],
              data[static_cast<std::size_t>(hi)]);
    if (lo < i) stack.emplace_back(lo, i);
    if (i + 2 < hi) stack.emplace_back(i + 2, hi);
    co_await pcore::compute(static_cast<std::uint32_t>(hi - lo + 1));
  }
  const bool sorted = std::is_sorted(data.begin(), data.end());
  co_return sorted ? 0u : 1u;
}

}  // namespace

std::vector<std::int16_t> quicksort_input(std::uint32_t seed_arg,
                                          std::size_t elements) {
  support::Rng rng(0x9c0f5eed ^ (static_cast<std::uint64_t>(seed_arg) << 20));
  std::vector<std::int16_t> data;
  data.reserve(elements);
  for (std::size_t i = 0; i < elements; ++i) {
    data.push_back(static_cast<std::int16_t>(rng.between(-32768, 32767)));
  }
  return data;
}

void register_quicksort(pcore::PcoreKernel& kernel) {
  kernel.register_program(kQuicksortProgramId, [](std::uint32_t arg) {
    return pcore::Program{"quicksort", quicksort_body(quicksort_input(arg))};
  });
}

}  // namespace ptest::workload
