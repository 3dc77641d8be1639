// Campaign perf counters and the one table that describes them.
//
// MetricsSnapshot is the plain-value counter set that campaigns fill per
// worker and fold order-free with merge(), and that results,
// `ptest_cli --metrics`, benches and the fleet wire carry — so claims
// like "the plan cache is ~2x" or "jobs=4 keeps the workers busy" can be
// checked from a run's artifacts.
//
// Every member has exactly one row in kCounterFields or kHistogramFields
// below, and everything that walks the counters — render(), the JSON
// codec the fleet wire speaks, merge(), work_difference() — walks those
// tables.  Adding a counter is adding its member and its row; the
// static_asserts at the bottom fail the build when a member has no row.
//
// Each row has a class with its own determinism:
//   - work counters are a pure function of the campaign seed/config —
//     bit-identical for every `jobs` value and shard split, so
//     determinism gates compare them (work_difference);
//   - timing counters measure the host (or the thread layout it chose)
//     and vary run to run;
//   - fleet counters are set by the run layout (shards, retries) and
//     stay zero in single-process runs.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>

// Header-only and dependency-free by design (see obs/histogram.hpp), so
// embedding histograms here does not invert the support <- obs layering
// at link time.
#include "ptest/obs/histogram.hpp"
#include "ptest/support/json.hpp"

namespace ptest::support {

/// One campaign's counters.  Field classes and merge ops live in the
/// row tables below, not here.
struct MetricsSnapshot {
  std::uint64_t sessions = 0;            ///< sessions executed
  std::uint64_t plan_compiles = 0;       ///< full regex->PFA compile pipelines run
  std::uint64_t patterns_generated = 0;  ///< test patterns sampled (kept)
  std::uint64_t dedup_rejected = 0;      ///< patterns rejected as replicas
  std::uint64_t ticks = 0;               ///< kernel ticks simulated (interleaving steps)
  std::uint64_t quiet_ticks = 0;         ///< of those, ticked with master and committee retired
  std::uint64_t quiet_checks = 0;        ///< of those, ticks the bug detector ran on

  /// PFA model coverage, summed over the campaign's arms (a single-arm
  /// campaign reads directly as its plan's coverage); zero when
  /// coverage tracking is off.  Derived from the coverage sets by
  /// core::CampaignResult::derive_coverage, never merged or
  /// shipped on their own.
  std::uint64_t pfa_states = 0;              ///< automaton states (total)
  std::uint64_t pfa_states_covered = 0;      ///< states some pattern visited
  std::uint64_t pfa_transitions = 0;         ///< transitions (total)
  std::uint64_t pfa_transitions_covered = 0; ///< transitions exercised
  std::uint64_t pfa_ngrams = 0;              ///< distinct symbol n-grams seen

  // Guided campaigns only.
  std::uint64_t epochs = 0;            ///< refinement epochs executed
  std::uint64_t plan_refinements = 0;  ///< re-weighted plans recompiled

  std::uint64_t wall_ns = 0;         ///< wall time of the measured region
  std::uint64_t worker_idle_ns = 0;  ///< summed time workers waited idle
  std::uint64_t worker_threads = 0;  ///< effective parallelism (incl. caller)

  // Filled by fleet::Coordinator when a campaign ran as shards.
  std::uint64_t fleet_shards = 0;             ///< shard slices merged
  std::uint64_t fleet_retries = 0;            ///< assignments re-issued
  std::uint64_t fleet_corpus_merge_ns = 0;    ///< corpus merge latency (summed)
  std::uint64_t fleet_shard_wall_max_ns = 0;  ///< slowest shard's wall time
  std::uint64_t fleet_shard_wall_min_ns = 0;  ///< fastest shard's wall time

  // obs::Histogram: 64 power-of-two log buckets, bucket-wise merge.
  obs::Histogram ticks_hist;           ///< per-session kernel ticks
  /// Session wall time (ns), one session in 64, chosen by run index.
  obs::Histogram session_wall_hist;
  obs::Histogram corpus_merge_hist;    ///< per-shard corpus merge (ns)
  obs::Histogram frame_rtt_hist;       ///< assign->result round trip (ns)
  obs::Histogram transport_send_hist;  ///< successful transport sends (ns)

  [[nodiscard]] double sessions_per_second() const noexcept {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(sessions) * 1e9 /
                              static_cast<double>(wall_ns);
  }
  /// Simulated kernel ticks per wall second (each tick is one
  /// interleaving step).
  [[nodiscard]] double interleavings_per_sec() const noexcept {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(ticks) * 1e9 /
                              static_cast<double>(wall_ns);
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

  bool operator==(const MetricsSnapshot&) const = default;

  /// Human-readable block: one line per counter row (work rows always,
  /// other rows when nonzero), one n/p50/p95/p99 line per non-empty
  /// histogram, then the derived rates.
  [[nodiscard]] std::string render() const;

  /// Emits one JSON object: every non-derived counter row by name, and
  /// every histogram as sparse [bucket_index, count] pairs.  This object
  /// is the fleet wire's metrics block.
  void write_json(JsonWriter& out) const;

  /// Strict inverse of write_json: every key is required, counters must
  /// be non-negative integers and bucket indices in range.  Fills the
  /// non-derived rows and histograms; returns an error on the first bad
  /// field (the snapshot is then partially filled).
  [[nodiscard]] std::optional<std::string> read_json(const JsonValue& node);

  /// Folds a later part of the same campaign into this one, row by row
  /// by each row's merge op; histograms merge bucket-wise.  This must
  /// hold the merge of the earlier parts — start from a copy of the
  /// first part.  Derived rows are left for the caller to rederive.
  void merge(const MetricsSnapshot& later);
};

enum class MetricClass : std::uint8_t { kWork, kTiming, kFleet };

enum class MetricMerge : std::uint8_t {
  kSum,
  kMax,
  kMin,
  kFirst,    ///< every part holds the same value (the shared plan compile)
  kDerived,  ///< recomputed from merged state; not merged, not on the wire
};

struct CounterField {
  const char* name;
  MetricClass cls;
  std::uint64_t MetricsSnapshot::*member;
  MetricMerge merge;
};

struct HistogramField {
  const char* name;
  MetricClass cls;
  obs::Histogram MetricsSnapshot::*member;
};

inline constexpr CounterField kCounterFields[] = {
    {"sessions", MetricClass::kWork, &MetricsSnapshot::sessions,
     MetricMerge::kSum},
    {"plan_compiles", MetricClass::kWork, &MetricsSnapshot::plan_compiles,
     MetricMerge::kFirst},
    {"patterns_generated", MetricClass::kWork,
     &MetricsSnapshot::patterns_generated, MetricMerge::kSum},
    {"dedup_rejected", MetricClass::kWork, &MetricsSnapshot::dedup_rejected,
     MetricMerge::kSum},
    {"ticks", MetricClass::kWork, &MetricsSnapshot::ticks, MetricMerge::kSum},
    {"quiet_ticks", MetricClass::kWork, &MetricsSnapshot::quiet_ticks,
     MetricMerge::kSum},
    {"quiet_checks", MetricClass::kWork, &MetricsSnapshot::quiet_checks,
     MetricMerge::kSum},
    {"pfa_states", MetricClass::kWork, &MetricsSnapshot::pfa_states,
     MetricMerge::kDerived},
    {"pfa_states_covered", MetricClass::kWork,
     &MetricsSnapshot::pfa_states_covered, MetricMerge::kDerived},
    {"pfa_transitions", MetricClass::kWork, &MetricsSnapshot::pfa_transitions,
     MetricMerge::kDerived},
    {"pfa_transitions_covered", MetricClass::kWork,
     &MetricsSnapshot::pfa_transitions_covered, MetricMerge::kDerived},
    {"pfa_ngrams", MetricClass::kWork, &MetricsSnapshot::pfa_ngrams,
     MetricMerge::kDerived},
    {"epochs", MetricClass::kWork, &MetricsSnapshot::epochs,
     MetricMerge::kSum},
    {"plan_refinements", MetricClass::kWork,
     &MetricsSnapshot::plan_refinements, MetricMerge::kSum},
    {"wall_ns", MetricClass::kTiming, &MetricsSnapshot::wall_ns,
     MetricMerge::kMax},
    {"worker_idle_ns", MetricClass::kTiming, &MetricsSnapshot::worker_idle_ns,
     MetricMerge::kSum},
    {"worker_threads", MetricClass::kTiming, &MetricsSnapshot::worker_threads,
     MetricMerge::kMax},
    {"fleet_shards", MetricClass::kFleet, &MetricsSnapshot::fleet_shards,
     MetricMerge::kSum},
    {"fleet_retries", MetricClass::kFleet, &MetricsSnapshot::fleet_retries,
     MetricMerge::kSum},
    {"fleet_corpus_merge_ns", MetricClass::kTiming,
     &MetricsSnapshot::fleet_corpus_merge_ns, MetricMerge::kSum},
    {"fleet_shard_wall_max_ns", MetricClass::kTiming,
     &MetricsSnapshot::fleet_shard_wall_max_ns, MetricMerge::kMax},
    {"fleet_shard_wall_min_ns", MetricClass::kTiming,
     &MetricsSnapshot::fleet_shard_wall_min_ns, MetricMerge::kMin},
};

/// ticks_hist is work class: per-session kernel ticks are a pure
/// function of seed/config, so its buckets are bit-identical across
/// jobs values and shard splits.
inline constexpr HistogramField kHistogramFields[] = {
    {"ticks_hist", MetricClass::kWork, &MetricsSnapshot::ticks_hist},
    {"session_wall_hist", MetricClass::kTiming,
     &MetricsSnapshot::session_wall_hist},
    {"corpus_merge_hist", MetricClass::kTiming,
     &MetricsSnapshot::corpus_merge_hist},
    {"frame_rtt_hist", MetricClass::kTiming, &MetricsSnapshot::frame_rtt_hist},
    {"transport_send_hist", MetricClass::kTiming,
     &MetricsSnapshot::transport_send_hist},
};

/// Name of the first work-class row or histogram on which `a` and `b`
/// differ; empty when every work field matches.  This is the
/// determinism check for jobs values and shard splits.
[[nodiscard]] std::string_view work_difference(const MetricsSnapshot& a,
                                               const MetricsSnapshot& b);

namespace detail {
consteval bool metric_rows_distinct() {
  const auto distinct = [](const auto& rows) {
    for (std::size_t i = 0; i < std::size(rows); ++i) {
      for (std::size_t j = i + 1; j < std::size(rows); ++j) {
        if (rows[i].member == rows[j].member ||
            std::string_view(rows[i].name) == rows[j].name) {
          return false;
        }
      }
    }
    return true;
  };
  return distinct(kCounterFields) && distinct(kHistogramFields);
}
}  // namespace detail

// Completeness: with every row naming a distinct member, the rows cover
// the struct exactly when their sizes sum to its size.
static_assert(detail::metric_rows_distinct(),
              "two metric rows name the same member or key");
static_assert(sizeof(MetricsSnapshot) ==
                  std::size(kCounterFields) * sizeof(std::uint64_t) +
                      std::size(kHistogramFields) * sizeof(obs::Histogram),
              "every MetricsSnapshot member needs a row in kCounterFields "
              "or kHistogramFields");

}  // namespace ptest::support
