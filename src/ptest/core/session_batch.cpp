#include "ptest/core/session_batch.hpp"

#include <algorithm>

#include "ptest/obs/trace.hpp"

namespace ptest::core {

namespace {

/// session_wall_hist times the sessions whose run index is a multiple of
/// this: two clock reads cost a short session a few percent, and a choice
/// by run index keeps the histogram's count the same for any jobs split.
constexpr std::size_t kWallSampleEvery = 64;

}  // namespace

SessionBatchRunner::SessionBatchRunner(std::size_t jobs,
                                       std::size_t max_batch,
                                       std::vector<const pfa::Pfa*> arm_pfas,
                                       bool dedup, Counts counts)
    : arm_pfas_(std::move(arm_pfas)), dedup_(dedup),
      counts_(std::move(counts)) {
  // The caller participates in parallel_for, so `jobs` participants
  // take jobs - 1 helpers; a batch never needs more than one each.
  const std::size_t useful = std::max<std::size_t>(
      1, std::min(support::resolve_jobs(jobs), max_batch));
  if (useful > 1) pool_ = std::make_unique<support::WorkerPool>(useful - 1);
  // Slots live as long as the runner: after a participant's first
  // session warms its scratch up, sampling allocates nothing.
  slots_.resize(useful);
  for (Slot& slot : slots_) {
    for (const pfa::Pfa* pfa : arm_pfas_) slot.coverage.emplace_back(*pfa);
  }
}

SessionBatch SessionBatchRunner::run(std::size_t first, std::size_t last,
                                     Body body) {
  for (Slot& slot : slots_) {
    slot.partial = CampaignResult{};
    slot.partial.arm_stats.resize(arm_pfas_.size());
    slot.reports.clear();
  }
  const std::uint64_t idle_before = pool_ ? pool_->idle_nanos() : 0;

  // Each session folds into its participant's slot right here, on the
  // executing thread: the patterns never leave it.
  auto session = [&](std::size_t participant, std::size_t i) {
    PTEST_OBS_SPAN("session");
    Slot& slot = slots_[participant];
    const std::size_t run = first + i;
    const bool timed = run % kWallSampleEvery == 0;
    const std::uint64_t start_ns = timed ? obs::TraceRecorder::now_ns() : 0;
    AdaptiveTestResult& result = slot.session;
    const auto [arm, rig] = body(participant, run, slot.scratch, result);
    if (timed) {
      slot.partial.metrics.session_wall_hist.record(
          obs::TraceRecorder::now_ns() - start_ns);
    }
    ++slot.partial.total_runs;
    ++slot.partial.arm_stats[arm].runs;
    add_session(slot.partial.metrics, result, dedup_);
    for (const pattern::TestPattern& sampled : result.patterns) {
      slot.coverage[arm].observe(sampled);
    }
    std::optional<BugReport>& report = result.session.report;
    if (result.session.outcome != Outcome::kBug || !report ||
        (counts_ && !counts_(*report))) {
      return;
    }
    ++slot.partial.total_detections;
    ++slot.partial.arm_stats[arm].detections;
    // This participant's runs only increase, so the first report it
    // keeps per signature is its lowest-index one.  A repeat stays in
    // `result` as a head, whose buffers the next session reuses; only a
    // new signature completes its body, copies its key and takes it.
    slot.key.clear();
    report->append_signature(slot.key);
    if (slot.reports.find(slot.key) != slot.reports.end()) return;
    rig.complete_report(*report);
    slot.reports.emplace(slot.key, std::pair(run, std::move(*report)));
    report.reset();
  };
  if (pool_) {
    pool_->parallel_for(last - first, session);
  } else {
    for (std::size_t i = 0; i < last - first; ++i) session(0, i);
  }

  SessionBatch batch;
  batch.result.arm_stats.resize(arm_pfas_.size());
  std::map<std::string, std::pair<std::size_t, BugReport>> earliest;
  for (Slot& slot : slots_) {
    batch.result.append(std::move(slot.partial));
    for (auto& [signature, entry] : slot.reports) {
      auto [it, fresh] = earliest.try_emplace(signature, std::move(entry));
      if (!fresh && entry.first < it->second.first) {
        it->second = std::move(entry);
      }
    }
  }
  for (auto& [signature, entry] : earliest) {
    batch.first_detection = std::min(
        batch.first_detection.value_or(entry.first), entry.first);
    batch.result.distinct_failures.emplace(signature,
                                           std::move(entry.second));
  }
  batch.result.metrics.worker_threads = slots_.size();
  if (pool_) {
    batch.result.metrics.worker_idle_ns = pool_->idle_nanos() - idle_before;
  }
  return batch;
}

std::vector<pattern::CoverageState> SessionBatchRunner::take_coverage() {
  std::vector<pattern::CoverageState> states;
  for (std::size_t arm = 0; arm < arm_pfas_.size(); ++arm) {
    pattern::CoverageTracker& into = slots_[0].coverage[arm];
    for (std::size_t p = 1; p < slots_.size(); ++p) {
      into.absorb(slots_[p].coverage[arm].state());
      slots_[p].coverage[arm] = pattern::CoverageTracker(*arm_pfas_[arm]);
    }
    states.push_back(into.state());
    into = pattern::CoverageTracker(*arm_pfas_[arm]);
  }
  return states;
}

}  // namespace ptest::core
