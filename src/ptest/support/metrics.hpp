// Lightweight perf counters for the campaign hot path.
//
// A Campaign runs thousands of sessions across a WorkerPool; until now
// the only observable output was the detection table, so claims like
// "the plan cache is ~2x" or "jobs=4 keeps the workers busy" could not
// be checked from a run's artifacts.  Metrics is the counter set the
// hot path updates (cheap relaxed atomics, safe from any thread) and
// MetricsSnapshot the plain-value copy that results, reports, and the
// benchmark JSON carry.
//
// The counters are split in two classes with different determinism:
//   - work counters (sessions, plan_cache_hits, plan_compiles,
//     patterns_generated, dedup_*) are a pure function of the campaign
//     seed/config — bit-identical for every `jobs` value;
//   - timing counters (wall_ns, worker_idle_ns) measure the host and
//     vary run to run.  Consumers that diff runs (determinism tests,
//     `ptest_cli --jobs N` vs serial) must compare only the former.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

// Header-only and dependency-free by design (see obs/histogram.hpp), so
// embedding histograms here does not invert the support <- obs layering
// at link time.
#include "ptest/obs/histogram.hpp"
#include "ptest/support/json.hpp"

namespace ptest::support {

/// Plain-value copy of a Metrics counter set at one point in time.
struct MetricsSnapshot {
  // Work counters (deterministic given seed/config).
  std::uint64_t sessions = 0;            ///< sessions executed
  std::uint64_t plan_cache_hits = 0;     ///< sessions served by a precompiled plan
  std::uint64_t plan_compiles = 0;       ///< full regex->PFA compile pipelines run
  std::uint64_t patterns_generated = 0;  ///< test patterns sampled (kept)
  std::uint64_t dedup_accepted = 0;      ///< patterns accepted as new by dedup
  std::uint64_t dedup_rejected = 0;      ///< patterns rejected as replicas
  std::uint64_t ticks = 0;               ///< kernel ticks simulated (interleaving steps)
  /// Sampling scratch-reuse counters (work class — WalkScratch accounts
  /// reuse against per-session high-water marks, so the totals are a
  /// pure function of seed/config, identical for every `jobs` value and
  /// shard split even though the physical buffer reuse is scheduled).
  std::uint64_t scratch_reuse_hits = 0;       ///< sample_into calls served from warm buffers
  std::uint64_t sample_alloc_bytes_saved = 0; ///< walk-buffer bytes those hits avoided

  // PFA model-coverage counters (work class: deterministic given
  // seed/config).  Filled by campaigns that track structural coverage of
  // the compiled test model (CampaignOptions::track_coverage); all zero
  // when tracking is off.  Totals sum over the campaign's arms, so a
  // single-arm campaign reads directly as its plan's coverage.
  std::uint64_t pfa_states = 0;              ///< automaton states (total)
  std::uint64_t pfa_states_covered = 0;      ///< states some pattern visited
  std::uint64_t pfa_transitions = 0;         ///< transitions (total)
  std::uint64_t pfa_transitions_covered = 0; ///< transitions exercised
  std::uint64_t pfa_ngrams = 0;              ///< distinct symbol n-grams seen

  // Guided-campaign counters (work class).  Zero outside guided mode.
  std::uint64_t epochs = 0;            ///< refinement epochs executed
  std::uint64_t plan_refinements = 0;  ///< re-weighted plans recompiled

  // Timing counters (host-dependent, vary run to run).
  std::uint64_t wall_ns = 0;             ///< wall time of the measured region
  std::uint64_t worker_idle_ns = 0;      ///< summed time workers waited idle
  std::uint64_t worker_threads = 0;      ///< effective parallelism (incl. caller)

  // Fleet counters, filled by fleet::Coordinator when a campaign ran as
  // coordinator + worker shards; all zero in single-process runs.
  // fleet_shards/fleet_retries are work-class given a healthy
  // transport; the *_ns counters time the host.
  std::uint64_t fleet_shards = 0;        ///< shard slices merged
  std::uint64_t fleet_retries = 0;       ///< assignments re-issued
  std::uint64_t fleet_corpus_merge_ns = 0;  ///< corpus merge latency (summed)
  std::uint64_t fleet_shard_wall_max_ns = 0;  ///< slowest shard's wall time
  std::uint64_t fleet_shard_wall_min_ns = 0;  ///< fastest shard's wall time

  // Latency/work distributions (obs::Histogram: 64 power-of-two log
  // buckets, bucket-wise merge).  ticks_hist is work class — per-session
  // kernel ticks are a pure function of seed/config, so its buckets are
  // bit-identical across jobs values and shard splits and it is safe for
  // determinism gates.  The *_hist latency distributions are timing
  // class: carried and merged everywhere, never bit-compared.
  obs::Histogram ticks_hist;           ///< per-session kernel ticks
  obs::Histogram session_wall_hist;    ///< per-session wall time (ns)
  obs::Histogram corpus_merge_hist;    ///< per-shard corpus merge (ns)
  obs::Histogram frame_rtt_hist;       ///< assign->result round trip (ns)
  obs::Histogram transport_send_hist;  ///< successful transport sends (ns)

  [[nodiscard]] double sessions_per_second() const noexcept {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(sessions) * 1e9 /
                              static_cast<double>(wall_ns);
  }
  /// Simulated kernel ticks per wall second — the throughput lever the
  /// coroutine pcore port targets (each tick is one interleaving step).
  [[nodiscard]] double interleavings_per_sec() const noexcept {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(ticks) * 1e9 /
                              static_cast<double>(wall_ns);
  }
  [[nodiscard]] double wall_seconds() const noexcept {
    return static_cast<double>(wall_ns) * 1e-9;
  }
  [[nodiscard]] double worker_idle_seconds() const noexcept {
    return static_cast<double>(worker_idle_ns) * 1e-9;
  }
  [[nodiscard]] double state_coverage() const noexcept {
    return pfa_states == 0 ? 0.0
                           : static_cast<double>(pfa_states_covered) /
                                 static_cast<double>(pfa_states);
  }
  [[nodiscard]] double transition_coverage() const noexcept {
    return pfa_transitions == 0
               ? 0.0
               : static_cast<double>(pfa_transitions_covered) /
                     static_cast<double>(pfa_transitions);
  }
  /// Slowest shard / fastest shard wall-time ratio (1.0 = perfectly
  /// balanced; 0 when the campaign did not run as a fleet).  "Ran as a
  /// fleet" is keyed on fleet_shards, not on a zero min: a shard whose
  /// wall time rounds to 0ns is a genuine fastest shard (floored at 1ns
  /// so the ratio stays finite), not an unset sentinel.
  [[nodiscard]] double fleet_shard_imbalance() const noexcept {
    if (fleet_shards == 0) return 0.0;
    const std::uint64_t floor_min =
        fleet_shard_wall_min_ns == 0 ? 1 : fleet_shard_wall_min_ns;
    return static_cast<double>(fleet_shard_wall_max_ns) /
           static_cast<double>(floor_min);
  }

  /// Human-readable block, one "  name: value" line per counter.
  [[nodiscard]] std::string render() const;

  /// Emits the counters as one JSON object value (caller supplies the
  /// surrounding key()/array slot).
  void write_json(JsonWriter& out) const;
};

/// Thread-safe counter set; relaxed atomics — totals are exact, but no
/// cross-counter consistency is promised while writers are running.
class Metrics {
 public:
  void add_sessions(std::uint64_t n = 1) noexcept { add(sessions_, n); }
  void add_plan_cache_hits(std::uint64_t n = 1) noexcept {
    add(plan_cache_hits_, n);
  }
  void add_plan_compiles(std::uint64_t n = 1) noexcept {
    add(plan_compiles_, n);
  }
  void add_patterns_generated(std::uint64_t n) noexcept {
    add(patterns_generated_, n);
  }
  void add_dedup_accepted(std::uint64_t n) noexcept { add(dedup_accepted_, n); }
  void add_dedup_rejected(std::uint64_t n) noexcept { add(dedup_rejected_, n); }
  void add_ticks(std::uint64_t n) noexcept { add(ticks_, n); }
  void add_scratch_reuse_hits(std::uint64_t n) noexcept {
    add(scratch_reuse_hits_, n);
  }
  void add_sample_alloc_bytes_saved(std::uint64_t n) noexcept {
    add(sample_alloc_bytes_saved_, n);
  }
  void add_wall_ns(std::uint64_t n) noexcept { add(wall_ns_, n); }
  void add_worker_idle_ns(std::uint64_t n) noexcept {
    add(worker_idle_ns_, n);
  }
  void set_worker_threads(std::uint64_t n) noexcept {
    worker_threads_.store(n, std::memory_order_relaxed);
  }

  [[nodiscard]] MetricsSnapshot snapshot() const noexcept;
  void reset() noexcept;

 private:
  using Counter = std::atomic<std::uint64_t>;
  static void add(Counter& counter, std::uint64_t n) noexcept {
    counter.fetch_add(n, std::memory_order_relaxed);
  }

  Counter sessions_{0};
  Counter plan_cache_hits_{0};
  Counter plan_compiles_{0};
  Counter patterns_generated_{0};
  Counter dedup_accepted_{0};
  Counter dedup_rejected_{0};
  Counter ticks_{0};
  Counter scratch_reuse_hits_{0};
  Counter sample_alloc_bytes_saved_{0};
  Counter wall_ns_{0};
  Counter worker_idle_ns_{0};
  Counter worker_threads_{0};
};

}  // namespace ptest::support
