#include "ptest/pcore/programs.hpp"

namespace ptest::pcore {

CoTask idle() {
  for (;;) co_await compute();
}

CoTask finite_compute(std::uint32_t units) {
  for (std::uint32_t i = 0; i < units; ++i) co_await compute();
  co_return 0;
}

CoTask script(std::vector<StepResult> steps, bool loop) {
  if (!steps.empty()) {
    do {
      for (const StepResult& step : steps) co_await step;
    } while (loop);
  }
  co_return 0;
}

CoTask lock_hold(std::uint32_t mutex, std::uint32_t hold_steps) {
  TaskEnv task = co_await env();
  co_await lock(mutex);
  // Still waiting (kernel re-steps us once ownership transfers).
  while (!task.holds(mutex)) co_await yield();
  for (std::uint32_t held = 0; held < hold_steps; ++held) {
    co_await compute();
  }
  co_await unlock(mutex);
  co_return 0;
}

}  // namespace ptest::pcore
