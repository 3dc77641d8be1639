// Fleet coordinator/worker split measured against the single-process
// campaign it must reproduce.  Two claims:
//
//   1. Correctness — for every shard count the merged CampaignResult
//      and the merged session-span corpus are bit-identical to the
//      single-process run of the same budget (the table and every
//      benchmark body abort on mismatch, like bench_parallel_campaign).
//   2. Cost — what the coordinator adds over the serial runner: wire
//      encode/decode per shard, the corpus merge (corpus_merge_ms), and
//      shard imbalance (slowest/fastest shard wall ratio).
//
// Counters exported for the CI gate: fleet_sessions_total and
// fleet_uncovered_transitions are deterministic work counts (the gate
// blocks on them — more sessions for the same budget, or transitions
// lost in the merge, is a correctness drift, not runner noise);
// aggregate sessions_per_sec, corpus_merge_ms and shard_imbalance are
// timing-class and informational.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "ptest/core/campaign.hpp"
#include "ptest/fleet/coordinator.hpp"
#include "ptest/fleet/socket_transport.hpp"
#include "ptest/fleet/wire.hpp"
#include "ptest/fleet/worker.hpp"

namespace {

using namespace ptest;

constexpr const char* kScenario = "philosophers-deadlock";

core::CampaignResult serial_reference(std::size_t budget) {
  core::CampaignOptions options;
  options.budget = budget;
  auto result = core::Campaign::run_scenario(kScenario, options);
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL: serial reference failed: %s\n",
                 result.error().c_str());
    std::exit(1);
  }
  return std::move(result.value());
}

fleet::FleetResult run_fleet(std::size_t budget, std::size_t shards) {
  fleet::CoordinatorOptions options;
  options.shards = shards;
  options.budget = budget;
  auto result = fleet::run_local_fleet(kScenario, options);
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL: fleet run failed: %s\n",
                 result.error().c_str());
    std::exit(1);
  }
  return std::move(result.value());
}

/// One campaign over TCP: two persistent worker daemons on localhost
/// and a coordinator dialing both — the full socket round trip (encode,
/// kernel buffers, reassembly, decode) in the measured region.
fleet::FleetResult run_socket_fleet(std::size_t budget, std::size_t shards) {
  auto daemon0 =
      std::make_unique<fleet::SocketTransport>(fleet::SocketTransport::Listen{0});
  auto daemon1 =
      std::make_unique<fleet::SocketTransport>(fleet::SocketTransport::Listen{0});
  fleet::WorkerOptions worker_options;
  worker_options.idle_sleep_us = 100;
  worker_options.persistent = true;
  std::vector<std::thread> daemons;
  int node = 0;
  for (fleet::SocketTransport* transport : {daemon0.get(), daemon1.get()}) {
    fleet::WorkerOptions options = worker_options;
    options.node = "bench-w" + std::to_string(node++);
    daemons.emplace_back([transport, options] {
      (void)fleet::Worker(options).serve(*transport);
    });
  }
  fleet::CoordinatorOptions options;
  options.shards = shards;
  options.budget = budget;
  options.idle_sleep_us = 100;
  options.shard_deadline = 600'000;
  options.drain = fleet::DrainMode::kCampaignEnd;
  fleet::FleetResult fleet_result;
  {
    fleet::SocketTransport coordinator(fleet::SocketTransport::Connect{
        {"127.0.0.1:" + std::to_string(daemon0->port()),
         "127.0.0.1:" + std::to_string(daemon1->port())}});
    auto result = fleet::Coordinator(kScenario, options).run(coordinator);
    if (!result.ok()) {
      std::fprintf(stderr, "FATAL: socket fleet run failed: %s\n",
                   result.error().c_str());
      std::exit(1);
    }
    fleet_result = std::move(result.value());
  }
  // End the daemons with an explicit halt, like `--halt-fleet`.
  fleet::SocketTransport halt(fleet::SocketTransport::Connect{
      {"127.0.0.1:" + std::to_string(daemon0->port()),
       "127.0.0.1:" + std::to_string(daemon1->port())}});
  const std::size_t peers = halt.peers();
  for (std::size_t i = 0; i < peers; ++i) {
    while (!halt.send(fleet::encode_shutdown())) std::this_thread::yield();
  }
  for (std::thread& daemon : daemons) daemon.join();
  return fleet_result;
}

bool identical(const core::CampaignResult& a, const core::CampaignResult& b) {
  if (a.total_runs != b.total_runs ||
      a.total_detections != b.total_detections ||
      a.arm_stats.size() != b.arm_stats.size() ||
      a.arm_stats[0].runs != b.arm_stats[0].runs ||
      a.arm_stats[0].detections != b.arm_stats[0].detections ||
      a.distinct_failures.size() != b.distinct_failures.size() ||
      !support::work_difference(a.metrics, b.metrics).empty() ||
      a.arm_coverage_state != b.arm_coverage_state) {
    return false;
  }
  auto it = b.distinct_failures.begin();
  for (const auto& entry : a.distinct_failures) {
    if (entry.first != it->first) return false;
    ++it;
  }
  return true;
}

/// Aborts unless the fleet result (campaign + corpus) matches the
/// serial run bit for bit — a fleet that is fast but wrong must never
/// post a number.
void check_identity(const fleet::FleetResult& fleet_result,
                    const core::CampaignResult& serial, std::size_t budget,
                    std::size_t shards) {
  if (!identical(fleet_result.result, serial)) {
    std::fprintf(stderr,
                 "FATAL: shards=%zu result differs from the serial run\n",
                 shards);
    std::exit(1);
  }
  const core::ShardSlice whole{0, 0, budget};
  auto reference = fleet::shard_corpus(kScenario, whole, serial);
  if (!reference.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", reference.error().c_str());
    std::exit(1);
  }
  if (fleet_result.corpus.to_json() != reference.value().to_json()) {
    std::fprintf(stderr,
                 "FATAL: shards=%zu merged corpus differs from serial\n",
                 shards);
    std::exit(1);
  }
}

std::uint64_t uncovered_transitions(const support::MetricsSnapshot& metrics) {
  return metrics.pfa_transitions - metrics.pfa_transitions_covered;
}

/// Deterministic fingerprint of the ticks histogram, xor-folded to 32
/// bits so the value survives the JSON double round trip exactly.  Any
/// drift in the per-session work distribution — not just its total —
/// moves this counter.  A hash has no higher-is-worse direction, so the
/// CI counter gate does not judge it; diff it across BENCH_results.json
/// files by eye.
double ticks_hist_fingerprint(const support::MetricsSnapshot& metrics) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    std::uint64_t bucket = metrics.ticks_hist.bucket(i);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= bucket & 0xff;
      hash *= 1099511628211ULL;  // FNV-1a prime
      bucket >>= 8;
    }
  }
  return static_cast<double>((hash >> 32) ^ (hash & 0xffffffffULL));
}

void print_table() {
  const std::size_t budget = 48;
  std::printf("=== Fleet: %s, %zu-session budget, in-process transport ===\n",
              kScenario, budget);
  const core::CampaignResult serial = serial_reference(budget);
  double serial_ms = 0.0;
  {
    const auto start = std::chrono::steady_clock::now();
    const core::CampaignResult again = serial_reference(budget);
    serial_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    bench::do_not_optimize(again);
  }
  std::printf("single-process:  %8.1f ms  (%zu detections, %zu transitions "
              "covered)\n",
              serial_ms, serial.total_detections,
              static_cast<std::size_t>(serial.metrics.pfa_transitions_covered));
  for (const std::size_t shards : {2, 4}) {
    const auto start = std::chrono::steady_clock::now();
    const fleet::FleetResult result = run_fleet(budget, shards);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    check_identity(result, serial, budget, shards);
    std::printf("fleet shards=%zu: %8.1f ms  (merge %.3f ms, imbalance "
                "%.2fx, identical to serial: yes)\n",
                shards, ms,
                result.result.metrics.fleet_corpus_merge_ns / 1e6,
                result.result.metrics.fleet_shard_imbalance());
  }
  {
    // The same campaign with the frames crossing real TCP sockets: the
    // delta over the in-process rows is the wire cost (kernel buffers,
    // reassembly, daemon startup/halt included here).
    const auto start = std::chrono::steady_clock::now();
    const fleet::FleetResult result = run_socket_fleet(budget, 2);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    check_identity(result, serial, budget, 2);
    std::printf("socket shards=2: %8.1f ms  (merge %.3f ms, identical to "
                "serial: yes)\n",
                ms, result.result.metrics.fleet_corpus_merge_ns / 1e6);
  }
  std::printf("\n");
}

const int registered = [] {
  bench::register_report("fleet", print_table);

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    bench::register_benchmark(
        "fleet/local/shards=" + std::to_string(shards),
        [shards](bench::Context& ctx) {
          const std::size_t budget = ctx.scaled<std::size_t>(48, 16);
          const core::CampaignResult serial = serial_reference(budget);
          fleet::FleetResult last;
          ctx.measure([&] {
            last = run_fleet(budget, shards);
            bench::do_not_optimize(last);
          });
          check_identity(last, serial, budget, shards);
          ctx.set_items_per_call(static_cast<double>(budget));
          const support::MetricsSnapshot& metrics = last.result.metrics;
          ctx.set_counter("fleet_sessions_total",
                          static_cast<double>(metrics.sessions));
          ctx.set_counter("fleet_uncovered_transitions",
                          static_cast<double>(uncovered_transitions(metrics)));
          ctx.set_counter("sessions_per_sec",
                          metrics.sessions_per_second());
          ctx.set_counter("corpus_merge_ms",
                          metrics.fleet_corpus_merge_ns / 1e6);
          ctx.set_counter("shard_imbalance",
                          metrics.fleet_shard_imbalance());
          ctx.set_counter("fleet_retries",
                          static_cast<double>(metrics.fleet_retries));
          ctx.set_counter("ticks_hist_fingerprint",
                          ticks_hist_fingerprint(metrics));
          ctx.set_counter("session_wall_p95_ns",
                          static_cast<double>(metrics.session_wall_hist.p95()));
          ctx.set_counter("frame_rtt_p95_ns",
                          static_cast<double>(metrics.frame_rtt_hist.p95()));
        });
  }

  // Socket transport variant: the deterministic counters are gated like
  // the local rows (same sessions, same coverage, or it is drift); the
  // timing counters are informational and include daemon startup/halt.
  bench::register_benchmark(
      "fleet/socket/shards=2", [](bench::Context& ctx) {
        const std::size_t budget = ctx.scaled<std::size_t>(48, 16);
        const core::CampaignResult serial = serial_reference(budget);
        fleet::FleetResult last;
        ctx.measure([&] {
          last = run_socket_fleet(budget, 2);
          bench::do_not_optimize(last);
        });
        check_identity(last, serial, budget, 2);
        ctx.set_items_per_call(static_cast<double>(budget));
        const support::MetricsSnapshot& metrics = last.result.metrics;
        ctx.set_counter("fleet_sessions_total",
                        static_cast<double>(metrics.sessions));
        ctx.set_counter("fleet_uncovered_transitions",
                        static_cast<double>(uncovered_transitions(metrics)));
        ctx.set_counter("sessions_per_sec", metrics.sessions_per_second());
        ctx.set_counter("corpus_merge_ms",
                        metrics.fleet_corpus_merge_ns / 1e6);
        ctx.set_counter("fleet_retries",
                        static_cast<double>(metrics.fleet_retries));
        ctx.set_counter("ticks_hist_fingerprint",
                        ticks_hist_fingerprint(metrics));
        ctx.set_counter("frame_rtt_p95_ns",
                        static_cast<double>(metrics.frame_rtt_hist.p95()));
      });

  // The serial row the fleet rows are read against (same budget, same
  // scenario, no coordinator): coordinator overhead = fleet - serial.
  bench::register_benchmark("fleet/serial", [](bench::Context& ctx) {
    const std::size_t budget = ctx.scaled<std::size_t>(48, 16);
    core::CampaignResult last;
    ctx.measure([&] {
      last = serial_reference(budget);
      bench::do_not_optimize(last);
    });
    ctx.set_items_per_call(static_cast<double>(budget));
    ctx.set_counter("fleet_sessions_total",
                    static_cast<double>(last.metrics.sessions));
    ctx.set_counter("fleet_uncovered_transitions",
                    static_cast<double>(uncovered_transitions(last.metrics)));
    ctx.set_counter("sessions_per_sec", last.metrics.sessions_per_second());
    // The fleet rows' fingerprints must equal this one: the shard-merged
    // ticks distribution is bit-identical to the serial run's.
    ctx.set_counter("ticks_hist_fingerprint",
                    ticks_hist_fingerprint(last.metrics));
    ctx.set_counter("session_wall_p95_ns",
                    static_cast<double>(last.metrics.session_wall_hist.p95()));
  });
  return 0;
}();

}  // namespace
