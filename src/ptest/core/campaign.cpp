#include "ptest/core/campaign.hpp"

#include <algorithm>
#include <stdexcept>

#include "ptest/core/session_batch.hpp"
#include "ptest/obs/trace.hpp"
#include "ptest/support/rng.hpp"

namespace ptest::core {

namespace {

/// Sessions per policy round of a multi-arm campaign: arm picks within a
/// round see detection counts frozen at the round boundary, so changing
/// this changes such a campaign's schedule.  Small enough that the
/// epsilon-greedy policy still adapts quickly, large enough to keep a
/// handful of workers busy between barriers.
constexpr std::size_t kSyncInterval = 8;

/// The arm with the best detection rate, ties to the lower index.
std::size_t best_arm(const std::vector<ArmStats>& stats) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < stats.size(); ++i) {
    if (stats[i].detection_rate() > stats[best].detection_rate()) best = i;
  }
  return best;
}

}  // namespace

void CampaignResult::append(CampaignResult later) {
  arm_stats.resize(std::max(arm_stats.size(), later.arm_stats.size()));
  for (std::size_t i = 0; i < later.arm_stats.size(); ++i) {
    arm_stats[i].runs += later.arm_stats[i].runs;
    arm_stats[i].detections += later.arm_stats[i].detections;
  }
  total_runs += later.total_runs;
  total_detections += later.total_detections;
  // try_emplace leaves the entry alone when the signature is known, so
  // the earlier report wins without copying the later one.
  for (auto& [signature, report] : later.distinct_failures) {
    distinct_failures.try_emplace(signature, std::move(report));
  }
  arm_coverage_state.resize(
      std::max(arm_coverage_state.size(), later.arm_coverage_state.size()));
  for (std::size_t i = 0; i < later.arm_coverage_state.size(); ++i) {
    arm_coverage_state[i].merge(later.arm_coverage_state[i]);
  }
  metrics.merge(later.metrics);
}

void CampaignResult::derive_coverage() {
  arm_coverage.clear();
  metrics.pfa_states = 0;
  metrics.pfa_states_covered = 0;
  metrics.pfa_transitions = 0;
  metrics.pfa_transitions_covered = 0;
  metrics.pfa_ngrams = 0;
  for (const pattern::CoverageState& state : arm_coverage_state) {
    const pattern::CoverageReport& report =
        arm_coverage.emplace_back(state.report());
    metrics.pfa_states += report.states_total;
    metrics.pfa_states_covered += report.states_covered;
    metrics.pfa_transitions += report.transitions_total;
    metrics.pfa_transitions_covered += report.transitions_covered;
    metrics.pfa_ngrams += report.ngrams_observed;
  }
}

void add_session(support::MetricsSnapshot& metrics,
                 const AdaptiveTestResult& session, bool dedup) {
  const std::uint64_t patterns = session.patterns.size();
  const std::uint64_t ticks = session.session.stats.ticks;
  ++metrics.sessions;
  metrics.patterns_generated += patterns;
  if (dedup) metrics.dedup_rejected += session.duplicates_rejected;
  metrics.ticks += ticks;
  metrics.quiet_ticks += session.session.stats.quiet_ticks;
  metrics.quiet_checks += session.session.stats.quiet_checks;
  metrics.ticks_hist.record(ticks);
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
  // Epsilon-greedy: explore uniformly, otherwise exploit the best rate.
  if (rng.chance(options_.epsilon)) {
    return static_cast<std::size_t>(rng.below(arms_.size()));
  }
  return best_arm(stats);
}

PtestConfig Campaign::arm_config(std::size_t arm_index) const {
  PtestConfig config = base_config_;
  config.op = arms_[arm_index].op;
  config.distributions = arms_[arm_index].distributions;
  return config;
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
  const std::uint64_t wall_start = obs::TraceRecorder::now_ns();
  CampaignResult result;
  result.arm_stats.resize(arms_.size());

  // Compile every arm's fixed artifact once, before any session runs:
  // the plans are immutable from here on.  The runner gives each helper
  // thread a private copy of them.
  std::vector<CompiledTestPlanPtr> plans;
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    plans.push_back(compile(arm_config(i)));
    ++result.metrics.plan_compiles;
  }

  // Without competing arms there is no policy to feed, so the whole
  // slice is one batch.
  const bool policy = arms_.size() > 1;
  const std::size_t batch_size = policy ? kSyncInterval : budget;
  SessionBatchRunner runner(
      options_.jobs, batch_size, std::move(plans),
      [target = options_.target](const BugReport& report) {
        return !target || report.kind == *target;
      });
  support::Rng policy_rng(base_config_.seed ^ 0xada9717eULL);
  std::vector<std::size_t> round_arms;
  std::size_t round_start = run_base;
  auto session = [&](SessionBatchRunner::Slot& slot, std::size_t run) {
    const std::size_t arm = policy ? round_arms[run - round_start] : 0;
    execute(slot.plan(arm), support::derive_seed(base_config_.seed, run),
            setup_, slot.scratch(), slot.rig(arm), slot.out());
    return arm;
  };
  for (std::size_t offset = 0; offset < budget; offset += batch_size) {
    round_start = run_base + offset;
    const std::size_t size = std::min(batch_size, budget - offset);
    if (policy) {
      // Pick every arm of the round against the detections frozen at the
      // round boundary.  Run counts advance per pick (so the warm-up
      // keeps filling — first-fit, arm 0 up to the minimum before arm 1
      // starts); the batch adds the same runs back with its detections.
      std::vector<ArmStats> stats = result.arm_stats;
      round_arms.resize(size);
      for (std::size_t& arm : round_arms) {
        arm = pick_arm(policy_rng, stats);
        ++stats[arm].runs;
      }
    }
    result.append(runner.run(round_start, round_start + size, session).result);
  }

  result.best_arm = best_arm(result.arm_stats);
  result.arm_coverage_state = runner.take_coverage();
  result.derive_coverage();
  result.metrics.wall_ns = obs::TraceRecorder::now_ns() - wall_start;
  return result;
}

}  // namespace ptest::core
