// WorkerPool dispatch overhead: parallel_for must stay cheap enough
// that sharding a session batch (down to a policy round of a handful of
// sessions) costs noise, and the dynamic cursor must balance skewed
// task durations.
#include <atomic>
#include <cstdint>
#include <string>

#include "harness.hpp"
#include "ptest/support/rng.hpp"
#include "ptest/support/worker_pool.hpp"

namespace {

using namespace ptest;

// Simulated session: a seed-dependent busy loop, like real sessions a
// pure function of its index.
std::uint64_t spin(std::uint64_t seed, std::uint64_t iterations) {
  support::Rng rng(seed);
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < iterations; ++i) acc ^= rng.next();
  return acc;
}

const int registered = [] {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    // Empty-ish tasks: measures pure pool overhead per index.
    bench::register_benchmark(
        "worker_pool/parallel_for_dispatch/threads=" +
            std::to_string(threads),
        [threads](bench::Context& ctx) {
          support::WorkerPool pool(threads);
          const std::size_t count = ctx.scaled<std::size_t>(256, 64);
          ctx.measure([&] {
            std::atomic<std::uint64_t> sink{0};
            pool.parallel_for(count, [&](std::size_t, std::size_t i) {
              sink.fetch_add(i, std::memory_order_relaxed);
            });
            bench::do_not_optimize(sink.load());
          });
          ctx.set_items_per_call(static_cast<double>(count));
        });

    // Task i runs ~i times longer than task 0: the dynamic cursor
    // should keep workers busy despite the skew.
    bench::register_benchmark(
        "worker_pool/parallel_for_skewed/threads=" + std::to_string(threads),
        [threads](bench::Context& ctx) {
          support::WorkerPool pool(threads);
          const std::size_t count = ctx.scaled<std::size_t>(64, 16);
          const auto body = [&] {
            std::atomic<std::uint64_t> sink{0};
            pool.parallel_for(count, [&](std::size_t, std::size_t i) {
              sink.fetch_add(spin(i, 500 * (i + 1)),
                             std::memory_order_relaxed);
            });
            bench::do_not_optimize(sink.load());
          };
          ctx.measure(body);
          // idle_nanos() is cumulative over the pool's lifetime, so the
          // exported counter is the delta across one extra call — a
          // per-parallel_for figure comparable across runs regardless
          // of --repetitions/--warmup.
          const std::uint64_t idle_before = pool.idle_nanos();
          body();
          ctx.set_counter(
              "pool_idle_ms_per_call",
              static_cast<double>(pool.idle_nanos() - idle_before) * 1e-6);
        });
  }
  return 0;
}();

}  // namespace
