// A persistent worker team for sharding deterministic work.
//
// The simulation substrate itself stays single-threaded (DESIGN §5.1);
// parallelism in pTest lives strictly *between* sessions, which share no
// mutable state.  WorkerPool is the only concurrency primitive the
// library needs for that: a fixed team of helper threads that joins the
// caller in one parallel_for call at a time.  Index-space sharding is
// dynamic: participants claim contiguous chunks from a shared cursor, so
// uneven session durations — a deadlock hit ends a session early, a
// tick-limit run is the slow tail — still balance.  A chunk is
// count / (16 x participants) indices, clamped to [1, 64]: a large call
// claims once per up to 64 sessions instead of once per session, and
// each participant still gets about 16 claims to balance with, while an
// 8-session policy round claims one index at a time.  The cursor sits on
// a cache line of its own, so a claim contends with nothing but other
// claims.
//
// Waits spin (yielding) before they park.  A policy round of short
// sessions lasts tens of microseconds, about as long as waking a parked
// thread takes on a loaded host, so a team that parked between calls
// would spend much of its time, and most of its run-to-run spread, in
// wake-ups.  The spin is bounded (kSpinNanos), so a long wait still
// parks and burns no CPU.
//
// Determinism contract: parallel_for(count, fn) invokes fn exactly once
// for every index in [0, count), and each participant runs its indices
// in increasing order; which participant runs which index is not
// deterministic.  Reproducible callers fold per-participant results with
// an order-free merge, as core::SessionBatchRunner does.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ptest::support {

/// Resolves a jobs request to a concrete worker count: nonzero passes
/// through, 0 means one worker per hardware thread (falling back to 1
/// when the runtime cannot tell).
[[nodiscard]] std::size_t resolve_jobs(std::size_t jobs);

/// A non-owning reference to a callable: two words, no allocation.  The
/// callable must outlive every call through it — in practice a lambda
/// passed straight into the function taking the reference.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& fn) noexcept  // implicit: binds lambdas at call sites
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

class WorkerPool {
 public:
  /// fn(participant, i): the caller is participant 0, the helper
  /// threads are 1..thread_count().
  using Body = FunctionRef<void(std::size_t, std::size_t)>;

  /// Spawns `threads` helpers; 0 means resolve_jobs(0).
  explicit WorkerPool(std::size_t threads = 0);

  /// Joins the helpers.  No parallel_for may be in flight.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Runs fn(participant, i) once for every i in [0, count), spread
  /// across the team, and blocks until every index completed and no
  /// helper can touch this call's state any more.  The calling thread
  /// works too, so a pool of T helpers applies T+1-way parallelism;
  /// at most count - 1 helpers join.  Participant p claims chunks of
  /// contiguous indices and runs them one at a time in increasing order,
  /// so per-participant scratch (slot p) needs no lock; which participant
  /// runs which index is NOT deterministic.  If any invocation throws,
  /// the first exception (in completion order) is rethrown after the
  /// index space is drained.
  /// One caller at a time: parallel_for is not reentrant.
  void parallel_for(std::size_t count, Body fn);

  /// Cumulative nanoseconds helpers spent spinning or parked waiting
  /// for a call they joined (the MetricsSnapshot `worker_idle_ns`
  /// counter).  Monotone; sample it around a region to attribute idle
  /// time to it.  The final wait that ends in shutdown is not counted.
  [[nodiscard]] std::uint64_t idle_nanos() const noexcept {
    return idle_ns_.load(std::memory_order_relaxed);
  }

 private:
  struct Call;

  /// How long a wait spins before it parks.
  static constexpr std::int64_t kSpinNanos = 50'000;

  void worker_loop(std::size_t participant);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  // helpers wait for a call
  std::condition_variable done_cv_;  // the caller waits for helpers
  // Bumped under mutex_ once per published call; helpers spin on it.
  std::atomic<std::uint64_t> generation_{0};
  Call* call_ = nullptr;          // guarded by mutex_
  std::size_t call_helpers_ = 0;  // guarded by mutex_: helpers 1..n join
  // Helpers still inside the current call; changed under mutex_, read
  // without it by the caller's spin, which returns at 0.
  std::atomic<std::size_t> busy_{0};
  bool stop_ = false;  // guarded by mutex_
  std::atomic<std::uint64_t> idle_ns_{0};
};

}  // namespace ptest::support
