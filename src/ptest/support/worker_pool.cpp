#include "ptest/support/worker_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>

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

std::size_t resolve_jobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

WorkerPool::WorkerPool(std::size_t threads) {
  threads = resolve_jobs(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
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

void WorkerPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    queued_.store(queue_.size(), std::memory_order_release);
  }
  work_cv_.notify_one();
}

void WorkerPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void WorkerPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    // Idle accounting: the spin and the park below are the worker's idle
    // time.  The park is timed from when the lock is held, so mutex
    // contention with a non-empty queue doesn't count as idle; waits
    // that end in shutdown are discarded — the pool is being torn down,
    // nobody is starved of that worker.
    const auto spin_start = std::chrono::steady_clock::now();
    spin_until(
        [this] { return queued_.load(std::memory_order_acquire) != 0; },
        kSpinNanos);
    const std::int64_t spun = elapsed_ns(spin_start);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      const auto wait_start = std::chrono::steady_clock::now();
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      idle_ns_.fetch_add(
          static_cast<std::uint64_t>(spun + elapsed_ns(wait_start)),
          std::memory_order_relaxed);
      task = std::move(queue_.front());
      queue_.pop_front();
      queued_.store(queue_.size(), std::memory_order_relaxed);
      ++active_;
    }
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void WorkerPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for(count,
               [&fn](std::size_t /*participant*/, std::size_t i) { fn(i); });
}

void WorkerPool::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;

  // Shared dynamic cursor; each participant claims the next unclaimed
  // index until the space is exhausted.  The functor lives here too:
  // a queued helper task can still run after parallel_for returned
  // (when the caller drained every index itself), so the closure must
  // own everything it might touch.
  struct Shared {
    explicit Shared(std::function<void(std::size_t, std::size_t)> f,
                    std::size_t n)
        : fn(std::move(f)), total(n) {}
    std::function<void(std::size_t, std::size_t)> fn;
    std::size_t total;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::exception_ptr error;
    std::mutex error_mutex;
    std::mutex done_mutex;
    std::condition_variable done_cv;
  };
  auto shared = std::make_shared<Shared>(fn, count);
  const std::size_t total = count;

  auto drain = [shared](std::size_t participant) {
    for (;;) {
      const std::size_t i = shared->next.fetch_add(1);
      if (i >= shared->total) return;
      try {
        shared->fn(participant, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(shared->error_mutex);
        if (!shared->error) shared->error = std::current_exception();
      }
      const std::size_t finished = shared->done.fetch_add(1) + 1;
      if (finished == shared->total) {
        std::lock_guard<std::mutex> lock(shared->done_mutex);
        shared->done_cv.notify_all();
      }
    }
  };

  const std::size_t helpers =
      count > 1 ? std::min(workers_.size(), count - 1) : 0;
  for (std::size_t i = 0; i < helpers; ++i) {
    submit([drain, participant = i + 1] { drain(participant); });
  }

  // The caller participates too (as participant 0), then waits for
  // stragglers: a short spin, then parked.
  drain(0);
  const auto all_done = [&] { return shared->done.load() == total; };
  if (!spin_until(all_done, kSpinNanos)) {
    std::unique_lock<std::mutex> lock(shared->done_mutex);
    shared->done_cv.wait(lock, all_done);
  }
  if (shared->error) std::rethrow_exception(shared->error);
}

}  // namespace ptest::support
