// Adaptive testing campaigns.
//
// The paper calls pTest *adaptive* because the PFA's probability
// distributions steer generation toward productive patterns, and §V asks
// "to identify the influence of probability distributions on the
// generation of test patterns for different testing scenarios".  A
// Campaign closes that loop operationally: it runs many AdaptiveTest
// sessions, tracks which (merge op, distribution) arms expose bugs, and
// allocates the remaining run budget with an epsilon-greedy policy — the
// natural "adaptive" extension of Algorithm 1 to a test *campaign*.
//
// Every arm shares the same workload and base config; arms differ only in
// the op and the PD text.  Results are per-arm detection counts plus the
// distinct failure signatures found (replayable reports are kept for each
// new signature).
//
// Execution is organised in fixed-size policy rounds: arm picks for a
// round are made up front — detection counts stay frozen at the round
// boundary while run counts advance per pick (so warm-up keeps filling
// within a round) — then the round's sessions — pure functions of
// (arm, run index, seed) — run concurrently on a support::WorkerPool
// and merge back in run order.
// Because neither the schedule nor the merge depends on thread count or
// completion order, `jobs = N` is bit-identical to the serial run.
//
// run() compiles each arm's CompiledTestPlan (regex -> PFA pipeline +
// parsed distributions) exactly once up front and shares the immutable
// plans across all worker threads, so per-session work is reduced to
// sampling, merging and driving the simulated platform.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ptest/core/adaptive_test.hpp"
#include "ptest/pattern/coverage.hpp"
#include "ptest/support/metrics.hpp"
#include "ptest/support/result.hpp"

namespace ptest::core {

struct CampaignArm {
  std::string name;
  pattern::MergeOp op = pattern::MergeOp::kRoundRobin;
  /// Distribution text (DistributionSpec::parse syntax); empty = uniform.
  std::string distributions;
};

struct ArmStats {
  std::size_t runs = 0;
  std::size_t detections = 0;
  [[nodiscard]] double detection_rate() const noexcept {
    return runs == 0 ? 0.0 : static_cast<double>(detections) /
                                 static_cast<double>(runs);
  }
};

/// A contiguous slice of a campaign's run-index space — the unit of work
/// a fleet coordinator assigns to one worker.  Because every session's
/// seed derives from (base seed, global run index) alone, executing the
/// slices of plan_shards() on separate processes and merging the results
/// in shard order reproduces the serial run bit for bit.
struct ShardSlice {
  std::size_t index = 0;     // shard id (merge order)
  std::size_t run_base = 0;  // first global run index of the slice
  std::size_t sessions = 0;  // sessions in the slice
};

struct CampaignOptions {
  /// Total sessions to run across all arms.
  std::size_t budget = 64;
  /// Exploration probability of the epsilon-greedy policy.
  double epsilon = 0.2;
  /// Warm-up: every arm runs this many sessions before exploitation starts.
  std::size_t warmup_per_arm = 2;
  /// Count only this bug kind as a detection (nullopt = any bug).
  std::optional<BugKind> target;
  /// Worker threads executing sessions.  1 = run on the calling thread;
  /// 0 = one per hardware thread.  The result is bit-identical for every
  /// value because the policy schedule does not depend on it.  The
  /// effective thread count is capped at min(jobs, sync_interval): a
  /// policy round never holds more than sync_interval sessions, so extra
  /// threads would only idle — raise sync_interval together with jobs to
  /// scale further.
  std::size_t jobs = 1;
  /// Compile every arm's CompiledTestPlan once up front in run() and
  /// share it read-only across the worker threads (the compile/execute
  /// split of test_plan.hpp).  Off = rebuild the regex/PFA pipeline per
  /// session, as the pre-split code did; results are bit-identical
  /// either way (bench_plan_cache measures the difference).
  bool precompile = true;
  /// Policy feedback granularity: arm picks for a round of this many
  /// sessions see detection counts frozen at the round boundary (run
  /// counts still advance per pick), which is what lets a round execute
  /// in parallel.  0 = default (8).  Changing
  /// it changes the schedule (unlike `jobs`), so it is part of the
  /// campaign's deterministic identity alongside the seed.
  std::size_t sync_interval = 0;
  /// Track structural PFA coverage of every generated pattern and report
  /// it in CampaignResult::arm_coverage + the pfa_* metrics counters.
  /// Requires `precompile` (the tracker replays against the arm's
  /// compiled PFA); silently off on the compile-per-run legacy path.
  /// Coverage is folded during the in-order merge phase, so it is
  /// jobs-invariant like every other work counter.
  bool track_coverage = true;
};

struct CampaignResult {
  std::vector<ArmStats> arm_stats;  // parallel to arms
  /// Distinct failure signatures -> first report that produced them.
  std::map<std::string, BugReport> distinct_failures;
  std::size_t total_runs = 0;
  std::size_t total_detections = 0;
  /// Index of the arm with the best detection rate.
  std::size_t best_arm = 0;
  /// Structural coverage of each arm's compiled PFA (parallel to arms;
  /// empty when CampaignOptions::track_coverage is off or precompile is
  /// off).  The aggregate also lands in `metrics` (pfa_* counters).
  std::vector<pattern::CoverageReport> arm_coverage;
  /// The covered sets behind arm_coverage (parallel to it) — the
  /// mergeable form: the fleet coordinator unions shard states and
  /// rederives the reports/pfa_* counters from the merged sets, so they
  /// match a single-process run exactly instead of double-counting.
  std::vector<pattern::CoverageState> arm_coverage_state;
  /// Perf counters for this run; support::kCounterFields gives each
  /// row's class.  The work rows are deterministic given seed/config —
  /// identical for every jobs value and shard split.
  support::MetricsSnapshot metrics;

  /// Sets the pfa_* counters of `metrics` to the sum over arm_coverage.
  void derive_coverage_metrics();
};

/// What one session adds to a campaign's counters: the pattern-free
/// reduction of an AdaptiveTestResult that a merge phase folds in run
/// order.
struct SessionTally {
  std::uint64_t patterns = 0;
  std::uint64_t duplicates_rejected = 0;
  std::uint64_t ticks = 0;  // kernel ticks the session simulated
  std::uint64_t scratch_reuse_hits = 0;        // see pfa::WalkScratch
  std::uint64_t sample_alloc_bytes_saved = 0;  // "
  bool plan_cached = true;  // false on the compile-per-run path
};

[[nodiscard]] SessionTally tally(const AdaptiveTestResult& outcome);

/// Folds one session into `metrics`.  `dedup` says whether the session
/// ran pattern dedup (PtestConfig::dedup_patterns).
void add_session(support::MetricsSnapshot& metrics,
                 const SessionTally& session, bool dedup);

class Campaign {
 public:
  Campaign(PtestConfig base_config, std::vector<CampaignArm> arms,
           WorkloadSetup setup, CampaignOptions options = {});

  /// Runs the whole budget; deterministic given base_config.seed — the
  /// same seed yields the same CampaignResult for any options.jobs.
  /// Sessions within a policy round execute on a WorkerPool when
  /// options.jobs != 1; each session's seed derives from
  /// (base seed, run index) alone, and round results merge in run order.
  [[nodiscard]] CampaignResult run();

  [[nodiscard]] const std::vector<CampaignArm>& arms() const noexcept {
    return arms_;
  }

  /// Runs a scenario from the built-in ScenarioRegistry as a single-arm
  /// campaign: the scenario's (plan, workload) with `options` on top.
  /// options.budget == 0 means "the scenario's default budget";
  /// `benign` selects the scenario's benign counterpart; `seed_override`
  /// replaces the plan's seed.  A malformed name (or a benign request on
  /// a scenario without a benign variant) returns an error message — it
  /// never throws, so CLI callers can report cleanly.  Defined in
  /// scenario/run_scenario.cpp, next to the registry it consults.
  [[nodiscard]] static support::Result<CampaignResult, std::string>
  run_scenario(std::string_view name, CampaignOptions options = {},
               bool benign = false,
               std::optional<std::uint64_t> seed_override = {});

  /// Splits `budget` sessions into `shards` contiguous run-index slices
  /// (floor + remainder spread over the leading shards).  Shards beyond
  /// the budget would be empty and are dropped; shards == 0 plans one.
  [[nodiscard]] static std::vector<ShardSlice> plan_shards(
      std::size_t budget, std::size_t shards);

  /// Runs one slice of the run-index space through the same round
  /// machinery as run() — this is what a fleet worker executes.  Only
  /// single-arm campaigns shard bit-identically (the epsilon-greedy
  /// policy feeds detections back sequentially, so a multi-arm schedule
  /// depends on earlier slices); multi-arm campaigns throw.
  [[nodiscard]] CampaignResult run_slice(const ShardSlice& slice);

  /// run_scenario's fleet-worker counterpart: builds the scenario's
  /// single-arm campaign and executes just `slice` of it.  Defined in
  /// scenario/run_scenario.cpp, next to the registry it consults.
  [[nodiscard]] static support::Result<CampaignResult, std::string>
  run_scenario_slice(std::string_view name, const ShardSlice& slice,
                     CampaignOptions options = {}, bool benign = false,
                     std::optional<std::uint64_t> seed_override = {});

 private:
  /// Outcome of one session, reduced to what the policy, result, and
  /// metrics need.
  struct RunOutcome {
    bool hit = false;
    std::optional<BugReport> report;  // engaged only when hit
    /// Folded into CampaignResult::metrics during the in-order merge
    /// phase (keeping the totals deterministic for any jobs).
    SessionTally tally;
    std::uint64_t wall_ns = 0;  // session wall time (timing class)
  };

  std::size_t pick_arm(support::Rng& rng,
                       const std::vector<ArmStats>& stats) const;
  /// base_config_ with arm `arm_index`'s (op, distributions) applied.
  [[nodiscard]] PtestConfig arm_config(std::size_t arm_index) const;
  /// Runs one session.  `tracker` (nullable) receives the session's
  /// sampled patterns via observe() on the executing worker thread —
  /// each worker gets its own tracker, so no pattern is retained or
  /// copied back to the merge phase.  `scratch` is the executing
  /// worker's private sampling scratch (same ownership rule), so
  /// steady-state sessions sample with zero walk allocations.
  RunOutcome execute_run(std::size_t run_index, std::size_t arm_index,
                         pattern::CoverageTracker* tracker,
                         pfa::WalkScratch& scratch) const;
  /// Shared body of run() and run_slice(): executes `budget` sessions
  /// whose global run indices start at `run_base`.
  [[nodiscard]] CampaignResult run_impl(std::size_t run_base,
                                        std::size_t budget);

  PtestConfig base_config_;
  std::vector<CampaignArm> arms_;
  WorkloadSetup setup_;
  CampaignOptions options_;
  /// One immutable plan per arm, compiled at the top of run() when
  /// options_.precompile; shared read-only by every worker thread.
  std::vector<CompiledTestPlanPtr> plans_;
};

}  // namespace ptest::core
