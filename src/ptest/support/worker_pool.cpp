#include "ptest/support/worker_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

namespace ptest::support {

namespace {

std::int64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Spins until ready() holds or `limit_ns` passed; returns ready().
template <typename Ready>
bool spin_until(const Ready& ready, std::int64_t limit_ns) {
  const auto start = std::chrono::steady_clock::now();
  while (!ready()) {
    if (elapsed_ns(start) >= limit_ns) return false;
    std::this_thread::yield();
  }
  return true;
}

}  // namespace

/// One parallel_for's shared state.  It lives on the caller's stack:
/// parallel_for does not return before every joined helper is done
/// with it.
struct WorkerPool::Call {
  Call(Body body, std::size_t count, std::size_t participants)
      : fn(body),
        total(count),
        chunk(std::clamp<std::size_t>(count / (16 * participants), 1, 64)) {}

  // Read-only while the call runs.
  Body fn;
  std::size_t total;
  std::size_t chunk;
  /// The first unclaimed index.  Every claim writes it, so it gets a
  /// cache line of its own; the error state starts the next one.
  alignas(64) std::atomic<std::size_t> next{0};
  alignas(64) std::mutex error_mutex;
  std::exception_ptr error;

  /// Claims chunks and runs their indices in order until the space is
  /// exhausted.  The cursor only grows, so a participant's indices do too.
  void drain(std::size_t participant) {
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk);
      if (begin >= total) return;
      const std::size_t end = std::min(begin + chunk, total);
      for (std::size_t i = begin; i < end; ++i) {
        try {
          fn(participant, i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
      }
    }
  }
};

std::size_t resolve_jobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

WorkerPool::WorkerPool(std::size_t threads) {
  threads = resolve_jobs(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, participant = i + 1] {
      worker_loop(participant);
    });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void WorkerPool::worker_loop(std::size_t participant) {
  std::uint64_t seen = 0;  // the last generation this helper looked at
  // Idle accounting: the spin and the park are the helper's idle time,
  // from the moment it finished its share of the previous call (so the
  // caller cannot return before the wait started) until it joins the
  // next one; a wait that ends in shutdown is discarded — the pool is
  // being torn down, nobody is starved.
  auto wait_start = std::chrono::steady_clock::now();
  for (;;) {
    spin_until([&] { return generation_.load() != seen; }, kSpinNanos);
    Call* call = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || generation_.load() != seen; });
      if (stop_) return;
      seen = generation_.load();
      // A call smaller than the team leaves the high-numbered helpers
      // out; they never touch its state and go back to waiting.
      if (participant > call_helpers_) continue;
      call = call_;
    }
    idle_ns_.fetch_add(static_cast<std::uint64_t>(elapsed_ns(wait_start)),
                       std::memory_order_relaxed);
    call->drain(participant);
    wait_start = std::chrono::steady_clock::now();
    // Last touch of the call: it publishes everything fn wrote to the
    // caller, which returns once busy_ reads 0.
    std::lock_guard<std::mutex> lock(mutex_);
    if (--busy_ == 0) done_cv_.notify_one();
  }
}

void WorkerPool::parallel_for(std::size_t count, Body fn) {
  if (count == 0) return;
  const std::size_t helpers = std::min(workers_.size(), count - 1);
  Call call(fn, count, helpers + 1);
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      call_ = &call;
      call_helpers_ = helpers;
      busy_.store(helpers);
      generation_.fetch_add(1);
    }
    work_cv_.notify_all();
  }

  // The caller participates too (as participant 0), then waits for the
  // joined helpers: a short spin, then parked.
  call.drain(0);
  if (helpers > 0) {
    const auto helpers_done = [this] { return busy_.load() == 0; };
    if (!spin_until(helpers_done, kSpinNanos)) {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, helpers_done);
    }
  }
  if (call.error) std::rethrow_exception(call.error);
}

}  // namespace ptest::support
