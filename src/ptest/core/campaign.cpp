#include "ptest/core/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "ptest/obs/trace.hpp"
#include "ptest/support/rng.hpp"
#include "ptest/support/worker_pool.hpp"

namespace ptest::core {

namespace {

/// Sessions per policy round: arm picks within a round see detection
/// counts frozen at the round boundary, so changing this changes a
/// multi-arm campaign's schedule.  Small enough that the epsilon-greedy
/// policy still adapts quickly, large enough to keep a handful of
/// workers busy between barriers.
constexpr std::size_t kSyncInterval = 8;

}  // namespace

void CampaignResult::derive_coverage_metrics() {
  metrics.pfa_states = 0;
  metrics.pfa_states_covered = 0;
  metrics.pfa_transitions = 0;
  metrics.pfa_transitions_covered = 0;
  metrics.pfa_ngrams = 0;
  for (const pattern::CoverageReport& report : arm_coverage) {
    metrics.pfa_states += report.states_total;
    metrics.pfa_states_covered += report.states_covered;
    metrics.pfa_transitions += report.transitions_total;
    metrics.pfa_transitions_covered += report.transitions_covered;
    metrics.pfa_ngrams += report.ngrams_observed;
  }
}

SessionTally tally(const AdaptiveTestResult& outcome) {
  SessionTally session;
  session.patterns = outcome.patterns.size();
  session.duplicates_rejected = outcome.duplicates_rejected;
  session.ticks = outcome.session.stats.ticks;
  session.scratch_reuse_hits = outcome.scratch_reuse_hits;
  session.sample_alloc_bytes_saved = outcome.sample_alloc_bytes_saved;
  return session;
}

void add_session(support::MetricsSnapshot& metrics,
                 const SessionTally& session, bool dedup) {
  ++metrics.sessions;
  ++metrics.plan_cache_hits;
  metrics.patterns_generated += session.patterns;
  if (dedup) {
    metrics.dedup_accepted += session.patterns;
    metrics.dedup_rejected += session.duplicates_rejected;
  }
  metrics.ticks += session.ticks;
  metrics.ticks_hist.record(session.ticks);
  metrics.scratch_reuse_hits += session.scratch_reuse_hits;
  metrics.sample_alloc_bytes_saved += session.sample_alloc_bytes_saved;
}

Campaign::Campaign(PtestConfig base_config, std::vector<CampaignArm> arms,
                   WorkloadSetup setup, CampaignOptions options)
    : base_config_(std::move(base_config)),
      arms_(std::move(arms)),
      setup_(std::move(setup)),
      options_(options) {
  if (arms_.empty()) {
    throw std::invalid_argument("Campaign: at least one arm required");
  }
}

std::size_t Campaign::pick_arm(support::Rng& rng,
                               const std::vector<ArmStats>& stats) const {
  // Warm-up first-fit until every arm has its minimum runs.
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    if (stats[i].runs < options_.warmup_per_arm) return i;
  }
  // Epsilon-greedy: explore uniformly, otherwise exploit the best rate
  // (ties to the lower index for determinism).
  if (rng.chance(options_.epsilon)) {
    return static_cast<std::size_t>(rng.below(arms_.size()));
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < arms_.size(); ++i) {
    if (stats[i].detection_rate() > stats[best].detection_rate()) {
      best = i;
    }
  }
  return best;
}

PtestConfig Campaign::arm_config(std::size_t arm_index) const {
  PtestConfig config = base_config_;
  config.op = arms_[arm_index].op;
  config.distributions = arms_[arm_index].distributions;
  return config;
}

Campaign::RunOutcome Campaign::execute_run(
    std::size_t run_index, std::size_t arm_index,
    pattern::CoverageTracker& tracker, pfa::WalkScratch& scratch) const {
  // Distinct decorrelated seeds per run, a pure function of
  // (base seed, run index) so execution order never matters.
  const std::uint64_t seed =
      support::derive_seed(base_config_.seed, run_index);

  PTEST_OBS_SPAN("session");
  const auto session_start = std::chrono::steady_clock::now();
  AdaptiveTestResult outcome =
      execute(*plans_[arm_index], seed, setup_, scratch);

  RunOutcome result;
  result.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - session_start)
          .count());
  result.tally = tally(outcome);
  // Coverage folds right here on the executing worker thread, into that
  // worker's private tracker — the merge phase never sees the patterns,
  // so nothing is retained or copied across the barrier.
  for (const pattern::TestPattern& sampled : outcome.patterns) {
    tracker.observe(sampled);
  }
  result.hit =
      outcome.session.outcome == Outcome::kBug && outcome.session.report &&
      (!options_.target || outcome.session.report->kind == *options_.target);
  if (result.hit) result.report = std::move(outcome.session.report);
  return result;
}

std::vector<ShardSlice> Campaign::plan_shards(std::size_t budget,
                                              std::size_t shards) {
  if (shards == 0) shards = 1;
  shards = std::min(shards, std::max<std::size_t>(budget, 1));
  std::vector<ShardSlice> slices;
  slices.reserve(shards);
  const std::size_t base = budget / shards;
  const std::size_t extra = budget % shards;
  std::size_t run_base = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    ShardSlice slice;
    slice.index = i;
    slice.run_base = run_base;
    slice.sessions = base + (i < extra ? 1 : 0);
    run_base += slice.sessions;
    slices.push_back(slice);
  }
  return slices;
}

CampaignResult Campaign::run() { return run_impl(0, options_.budget); }

CampaignResult Campaign::run_slice(const ShardSlice& slice) {
  if (arms_.size() != 1) {
    throw std::invalid_argument(
        "Campaign::run_slice: only single-arm campaigns shard "
        "bit-identically (the policy feeds detections back sequentially)");
  }
  return run_impl(slice.run_base, slice.sessions);
}

CampaignResult Campaign::run_impl(std::size_t run_base, std::size_t budget) {
  const auto wall_start = std::chrono::steady_clock::now();
  CampaignResult result;
  support::MetricsSnapshot& metrics = result.metrics;

  // Compile every arm's fixed artifact once, before any session runs:
  // the plans are immutable from here on, so the worker threads share
  // them without synchronization.
  plans_.clear();
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    plans_.push_back(compile(arm_config(i)));
    ++metrics.plan_compiles;
  }

  result.arm_stats.resize(arms_.size());
  support::Rng policy_rng(base_config_.seed ^ 0xada9717eULL);

  const std::size_t jobs = support::resolve_jobs(options_.jobs);
  // The pool's caller thread participates in parallel_for, so jobs
  // workers would give jobs+1-way parallelism; spawn one fewer.  A
  // round never holds more than kSyncInterval sessions, which also
  // bounds the useful parallelism — extra threads would just idle.
  const std::size_t useful_jobs = std::min(jobs, kSyncInterval);
  std::unique_ptr<support::WorkerPool> pool;
  if (useful_jobs > 1) {
    pool = std::make_unique<support::WorkerPool>(useful_jobs - 1);
  }
  const std::size_t participants = pool ? pool->thread_count() + 1 : 1;

  // One coverage tracker per (pool participant, arm): each session
  // observes into the executing worker's private tracker, off the
  // merging thread.  The per-worker sets are pure unions, so folding
  // them once after the last round is equivalent to folding at every
  // round barrier — and either way the fold is order-insensitive, which
  // keeps coverage jobs-invariant even though the participant executing
  // a given slot is not deterministic.
  std::vector<std::vector<pattern::CoverageTracker>> trackers(participants);
  for (std::vector<pattern::CoverageTracker>& slot : trackers) {
    slot.reserve(arms_.size());
    for (const CompiledTestPlanPtr& plan : plans_) {
      slot.emplace_back(plan->pfa);
    }
  }

  // One sampling scratch per pool participant, alive for the whole
  // campaign: after the first session warms a worker's buffers up,
  // sampling allocates nothing.  The reuse *counters* don't depend on
  // which worker a session lands on — WalkScratch accounts them against
  // a per-session high-water mark (see begin_session) — so the totals
  // stay jobs-invariant even though the physical reuse is scheduled.
  std::vector<pfa::WalkScratch> scratches(participants);

  std::vector<std::size_t> round_arms;
  std::vector<RunOutcome> round_outcomes;
  for (std::size_t round_start = 0; round_start < budget;
       round_start += round_arms.size()) {
    const std::size_t round_size =
        std::min(kSyncInterval, budget - round_start);

    // Phase 1 — schedule: pick every arm of the round against the stats
    // frozen at the round boundary.  Run counts advance per pick (so the
    // warm-up keeps filling — first-fit, arm 0 up to the minimum before
    // arm 1 starts); detections only merge in phase 3.
    round_arms.assign(round_size, 0);
    for (std::size_t i = 0; i < round_size; ++i) {
      const std::size_t arm = pick_arm(policy_rng, result.arm_stats);
      round_arms[i] = arm;
      ++result.arm_stats[arm].runs;
    }

    // Phase 2 — execute: each slot is a pure function of its global run
    // index and arm, so the round shards freely across the pool.
    // Coverage observation happens here too, into the executing
    // participant's tracker.
    round_outcomes.assign(round_size, RunOutcome{});
    auto execute_slot = [&](std::size_t participant, std::size_t i) {
      round_outcomes[i] = execute_run(
          run_base + round_start + i, round_arms[i],
          trackers[participant][round_arms[i]], scratches[participant]);
    };
    if (pool) {
      pool->parallel_for(round_size, execute_slot);
    } else {
      for (std::size_t i = 0; i < round_size; ++i) execute_slot(0, i);
    }

    // Phase 3 — merge, in run order, so first-report-per-signature and
    // every counter land identically for any jobs value.
    for (std::size_t i = 0; i < round_size; ++i) {
      ++result.total_runs;
      RunOutcome& outcome = round_outcomes[i];
      add_session(metrics, outcome.tally, base_config_.dedup_patterns);
      metrics.session_wall_hist.record(outcome.wall_ns);
      if (!outcome.hit) continue;
      ++result.arm_stats[round_arms[i]].detections;
      ++result.total_detections;
      // try_emplace only builds the entry when the signature is new, so
      // the first report per signature wins without copying the rest.
      result.distinct_failures.try_emplace(outcome.report->signature(),
                                           std::move(*outcome.report));
    }
  }

  result.best_arm = 0;
  for (std::size_t i = 1; i < arms_.size(); ++i) {
    if (result.arm_stats[i].detection_rate() >
        result.arm_stats[result.best_arm].detection_rate()) {
      result.best_arm = i;
    }
  }

  metrics.worker_threads = participants;
  if (pool) metrics.worker_idle_ns = pool->idle_nanos();
  metrics.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  // Fold the helpers' trackers into participant 0's — plain set unions,
  // so the fold order is irrelevant.
  for (std::size_t p = 1; p < trackers.size(); ++p) {
    for (std::size_t arm = 0; arm < arms_.size(); ++arm) {
      trackers[0][arm].absorb(trackers[p][arm].state());
    }
  }
  result.arm_coverage.reserve(arms_.size());
  result.arm_coverage_state.reserve(arms_.size());
  for (std::size_t arm = 0; arm < arms_.size(); ++arm) {
    pattern::CoverageState state = trackers[0][arm].state();
    result.arm_coverage.push_back(state.report());
    result.arm_coverage_state.push_back(std::move(state));
  }
  result.derive_coverage_metrics();
  return result;
}

}  // namespace ptest::core
