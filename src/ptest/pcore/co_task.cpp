#include "ptest/pcore/co_task.hpp"

#include <stdexcept>

#include "ptest/pcore/sync.hpp"

namespace ptest::pcore {

void throw_shared_index_out_of_range() {
  throw std::out_of_range("PcoreKernel: shared word index out of range");
}

StepResult CoTask::step(StepEnv& env) {
  assert(handle_ != nullptr && "stepping a moved-from CoTask");
  promise_type& promise = handle_.promise();
  // Terminal: repeat the Exit step without resuming.
  if (handle_.done()) return promise.pending;
  promise.env = &env;
  handle_.resume();
  promise.env = nullptr;
  if (promise.error) {
    std::rethrow_exception(std::exchange(promise.error, nullptr));
  }
  return promise.pending;
}

bool TaskEnv::holds(std::uint32_t mutex) const {
  const StepEnv& step = env();
  return mutex < step.mutex_count && step.mutexes[mutex].owner == step.task;
}

}  // namespace ptest::pcore
