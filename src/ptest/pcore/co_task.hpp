// The pCore program model: a task is a C++20 coroutine returning CoTask.
//
// Tasks are deterministic coroutines stepped by the kernel rather than
// native threads, which is what makes the whole simulation replayable.
// Each `co_await` on one of the step operations (compute / yield / lock /
// unlock) suspends the coroutine and records the corresponding StepResult
// in the promise; `CoTask::step` resumes the frame exactly once and hands
// that result to the kernel, so one co_await == one kernel tick == one
// StepResult.  `co_return code` desugars to the Exit step, which is then
// repeated forever.  Blocking lock semantics are "block until held": when
// a Lock step cannot acquire, the kernel blocks the task and transfers
// ownership on wake, so the body simply proceeds on its next step.  The
// only allocation is the coroutine frame itself, which comes from the
// kernel's FramePool when task_create makes it (frame_pool.hpp).
//
// Lifetime rules:
//  * The StepEnv passed to step() is only read during that resume.  A body
//    `co_await env()`s once and calls through the returned TaskEnv, which
//    re-reads the promise's per-resume environment pointer on every access.
//  * Destroying a CoTask destroys the frame even while suspended, running
//    the destructors of locals in scope — this is what makes task_delete,
//    kernel panic, and campaign abort leak-free (see co_task_test.cpp).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <utility>
#include <vector>

#include "ptest/pcore/frame_pool.hpp"

namespace ptest::pcore {

enum class StepKind : std::uint8_t {
  kCompute,  // arg = work units consumed (>= 1)
  kYield,    // give up the CPU voluntarily
  kLock,     // arg = mutex id; block until held
  kUnlock,   // arg = mutex id
  kExit,     // program finished; arg = exit code (0 = success)
};

struct StepResult {
  StepKind kind = StepKind::kCompute;
  std::uint32_t arg = 1;

  static StepResult compute(std::uint32_t units = 1) {
    return {StepKind::kCompute, units};
  }
  static StepResult yield() { return {StepKind::kYield, 0}; }
  static StepResult lock(std::uint32_t mutex) {
    return {StepKind::kLock, mutex};
  }
  static StepResult unlock(std::uint32_t mutex) {
    return {StepKind::kUnlock, mutex};
  }
  static StepResult exit(std::uint32_t code = 0) {
    return {StepKind::kExit, code};
  }
};

struct KMutex;  // sync.hpp

/// What a body may read and write while it is resumed: the kernel owns one
/// and points it at the dispatched task before each step; tests fill one
/// by hand.
struct StepEnv {
  std::uint8_t task = 0;  // the resumed task's slot
  /// Shared user words (the `x`, `y` flags of the paper's Fig. 1 live
  /// here; both slave tasks and — via the kernel — master threads see
  /// them).
  std::vector<std::int32_t>* shared = nullptr;
  const KMutex* mutexes = nullptr;
  std::size_t mutex_count = 0;
};

/// Throws std::out_of_range for a shared-word index past the table.
[[noreturn]] void throw_shared_index_out_of_range();

class TaskEnv;

namespace task_ops {
struct Compute {
  std::uint32_t units;
};
struct Yield {};
struct Lock {
  std::uint32_t mutex;
};
struct Unlock {
  std::uint32_t mutex;
};
struct Env {};
}  // namespace task_ops

/// Step operations a task body awaits.  Each suspends for one kernel tick.
[[nodiscard]] inline task_ops::Compute compute(std::uint32_t units = 1) {
  return {units};
}
[[nodiscard]] inline task_ops::Yield yield() { return {}; }
[[nodiscard]] inline task_ops::Lock lock(std::uint32_t mutex) {
  return {mutex};
}
[[nodiscard]] inline task_ops::Unlock unlock(std::uint32_t mutex) {
  return {mutex};
}
/// Non-suspending: yields the TaskEnv handle for shared-state access.
[[nodiscard]] inline task_ops::Env env() { return {}; }

class CoTask {
 public:
  struct promise_type {
    /// The step produced by the most recent suspension (or co_return).
    StepResult pending = StepResult::compute();
    /// Valid only while CoTask::step is resuming the frame.
    StepEnv* env = nullptr;
    std::exception_ptr error;

    /// Frames come from the thread's current FramePool, if any.
    static void* operator new(std::size_t size) {
      return FramePool::allocate(size);
    }
    static void operator delete(void* frame) noexcept {
      FramePool::deallocate(frame);
    }

    CoTask get_return_object() noexcept;
    std::suspend_always initial_suspend() const noexcept { return {}; }
    std::suspend_always final_suspend() const noexcept { return {}; }
    void return_value(std::uint32_t code) noexcept {
      pending = StepResult::exit(code);
    }
    void unhandled_exception() noexcept {
      error = std::current_exception();
      pending = StepResult::exit(1);
    }

    /// One-tick suspension: the StepResult was stored by await_transform.
    struct StepAwaiter {
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<>) const noexcept {}
      void await_resume() const noexcept {}
    };
    /// Non-suspending access to the environment handle.
    struct EnvAwaiter {
      promise_type* promise;
      [[nodiscard]] bool await_ready() const noexcept { return true; }
      void await_suspend(std::coroutine_handle<>) const noexcept {}
      [[nodiscard]] TaskEnv await_resume() const noexcept;
    };

    StepAwaiter await_transform(task_ops::Compute op) noexcept {
      pending = StepResult::compute(op.units);
      return {};
    }
    StepAwaiter await_transform(task_ops::Yield) noexcept {
      pending = StepResult::yield();
      return {};
    }
    StepAwaiter await_transform(task_ops::Lock op) noexcept {
      pending = StepResult::lock(op.mutex);
      return {};
    }
    StepAwaiter await_transform(task_ops::Unlock op) noexcept {
      pending = StepResult::unlock(op.mutex);
      return {};
    }
    /// Raw StepResult pass-through (the script body replays fixtures).
    StepAwaiter await_transform(StepResult step) noexcept {
      pending = step;
      return {};
    }
    EnvAwaiter await_transform(task_ops::Env) noexcept { return {this}; }
    /// Anything else awaited in a task body is a bug, not a kernel step.
    template <typename T>
    void await_transform(T&&) = delete;
  };

  using Handle = std::coroutine_handle<promise_type>;

  CoTask() = default;
  explicit CoTask(Handle handle) noexcept : handle_(handle) {}
  CoTask(CoTask&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  CoTask& operator=(CoTask&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  CoTask(const CoTask&) = delete;
  CoTask& operator=(const CoTask&) = delete;
  ~CoTask() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return handle_ != nullptr; }
  /// True once the body ran to co_return (or threw).
  [[nodiscard]] bool done() const noexcept {
    return handle_ && handle_.done();
  }

  /// Resumes the frame for exactly one step and returns the StepResult it
  /// produced; after co_return, keeps returning the Exit step without
  /// resuming.
  StepResult step(StepEnv& env);

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  Handle handle_;
};

inline CoTask CoTask::promise_type::get_return_object() noexcept {
  return CoTask(CoTask::Handle::from_promise(*this));
}

/// What a program factory returns: the task's name and its body.  The
/// name must outlive the task (every factory passes a string literal).
struct Program {
  const char* name;
  CoTask body;
};

/// Shared-state handle a body obtains with `co_await env()`.  Valid for
/// the whole coroutine lifetime: every call indirects through the
/// promise's per-resume environment pointer, so it never dangles across
/// suspensions.  Only usable while the frame is being resumed (i.e.
/// between co_awaits).
class TaskEnv {
 public:
  explicit TaskEnv(CoTask::promise_type* promise) noexcept
      : promise_(promise) {}

  /// True if this task currently owns `mutex`.
  [[nodiscard]] bool holds(std::uint32_t mutex) const;
  [[nodiscard]] std::int32_t shared(std::size_t index) const {
    return word(index);
  }
  void set_shared(std::size_t index, std::int32_t value) {
    word(index) = value;
  }

 private:
  [[nodiscard]] StepEnv& env() const {
    assert(promise_->env != nullptr &&
           "TaskEnv used outside a resume (across a co_await?)");
    return *promise_->env;
  }
  [[nodiscard]] std::int32_t& word(std::size_t index) const {
    std::vector<std::int32_t>& words = *env().shared;
    if (index >= words.size()) throw_shared_index_out_of_range();
    return words[index];
  }

  CoTask::promise_type* promise_;
};

inline TaskEnv CoTask::promise_type::EnvAwaiter::await_resume()
    const noexcept {
  return TaskEnv(promise);
}

}  // namespace ptest::pcore
