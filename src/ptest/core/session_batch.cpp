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
                                       std::vector<CompiledTestPlanPtr> plans,
                                       Counts counts)
    : base_(plans), plans_(std::move(plans)), counts_(std::move(counts)) {
  // The caller participates in parallel_for, so `jobs` participants
  // take jobs - 1 helpers; a batch never needs more than one each.
  const std::size_t useful = std::max<std::size_t>(
      1, std::min(support::resolve_jobs(jobs), max_batch));
  if (useful > 1) pool_ = std::make_unique<support::WorkerPool>(useful - 1);
  // Slots live as long as the runner: after a participant's first
  // session warms its scratch up, sampling allocates nothing.  Their
  // contents are built by prepare(), on the participant's thread.
  slots_.resize(useful);
  for (std::size_t p = 0; p < useful; ++p) slots_[p].participant_ = p;
}

void SessionBatchRunner::set_plans(std::vector<CompiledTestPlanPtr> plans) {
  if (plans == plans_) return;
  plans_ = std::move(plans);
  ++plans_version_;
}

void SessionBatchRunner::prepare(Slot& slot) {
  const bool helper = slot.participant_ != 0;
  const std::size_t arms = plans_.size();
  if (slot.plans_version_ != plans_version_) {
    slot.plans_.resize(arms);
    for (std::size_t arm = 0; arm < arms; ++arm) {
      if (!helper) {
        slot.plans_[arm] = plans_[arm].get();
        continue;
      }
      // Assigned in place: the rig keeps a reference to the copy's
      // alphabet, the coverage tracker one to its automaton.
      if (arm < slot.copies_.size()) {
        *slot.copies_[arm] = *plans_[arm];
      } else {
        slot.copies_.push_back(
            std::make_unique<CompiledTestPlan>(*plans_[arm]));
      }
      slot.plans_[arm] = slot.copies_[arm].get();
    }
    slot.plans_version_ = plans_version_;
  }
  const auto skeleton = [&](std::size_t arm) -> const CompiledTestPlan& {
    return helper ? *slot.copies_[arm] : *base_[arm];
  };
  if (slot.rigs_.empty()) {
    for (std::size_t arm = 0; arm < arms; ++arm) {
      slot.rigs_.push_back(std::make_unique<SessionRig>(
          skeleton(arm).config, skeleton(arm).alphabet));
    }
  }
  if (slot.coverage_.empty()) {
    for (std::size_t arm = 0; arm < arms; ++arm) {
      slot.coverage_.emplace_back(skeleton(arm).pfa);
    }
  }
  if (slot.batch_ != batch_) {
    slot.partial_ = CampaignResult{};
    slot.partial_.arm_stats.resize(arms);
    slot.reports_.clear();
    slot.batch_ = batch_;
  }
}

SessionBatch SessionBatchRunner::run(std::size_t first, std::size_t last,
                                     Body body) {
  ++batch_;
  const std::uint64_t idle_before = pool_ ? pool_->idle_nanos() : 0;

  // Each session folds into its participant's slot right here, on the
  // executing thread: the patterns never leave it.
  auto session = [&](std::size_t participant, std::size_t i) {
    PTEST_OBS_SPAN("session");
    Slot& slot = slots_[participant];
    prepare(slot);
    const std::size_t run = first + i;
    const bool timed = run % kWallSampleEvery == 0;
    const std::uint64_t start_ns = timed ? obs::TraceRecorder::now_ns() : 0;
    const std::size_t arm = body(slot, run);
    if (timed) {
      slot.partial_.metrics.session_wall_hist.record(
          obs::TraceRecorder::now_ns() - start_ns);
    }
    AdaptiveTestResult& result = slot.session_;
    ++slot.partial_.total_runs;
    ++slot.partial_.arm_stats[arm].runs;
    add_session(slot.partial_.metrics, result,
                slot.plan(arm).config.dedup_patterns);
    for (const pattern::TestPattern& sampled : result.patterns) {
      slot.coverage_[arm].observe(sampled);
    }
    std::optional<BugReport>& report = result.session.report;
    if (result.session.outcome != Outcome::kBug || !report ||
        (counts_ && !counts_(*report))) {
      return;
    }
    ++slot.partial_.total_detections;
    ++slot.partial_.arm_stats[arm].detections;
    // This participant's runs only increase, so the first report it
    // keeps per signature is its lowest-index one.  A repeat stays in
    // `result` as a head, whose buffers the next session reuses; only a
    // new signature completes its body, copies its key and takes it.
    slot.key_.clear();
    report->append_signature(slot.key_);
    if (slot.reports_.find(slot.key_) != slot.reports_.end()) return;
    slot.rig(arm).complete_report(*report);
    slot.reports_.emplace(slot.key_, std::pair(run, std::move(*report)));
    report.reset();
  };
  if (pool_) {
    pool_->parallel_for(last - first, session);
  } else {
    for (std::size_t i = 0; i < last - first; ++i) session(0, i);
  }

  // Only the slots that ran a session of this batch hold its partials.
  SessionBatch batch;
  batch.result.arm_stats.resize(plans_.size());
  std::map<std::string, std::pair<std::size_t, BugReport>> earliest;
  for (Slot& slot : slots_) {
    if (slot.batch_ != batch_) continue;
    batch.result.append(std::move(slot.partial_));
    for (auto& [signature, entry] : slot.reports_) {
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
  for (std::size_t arm = 0; arm < base_.size(); ++arm) {
    pattern::CoverageTracker into(base_[arm]->pfa);
    for (const Slot& slot : slots_) {
      if (!slot.coverage_.empty()) into.absorb(slot.coverage_[arm].state());
    }
    states.push_back(into.state());
  }
  // Each slot rebuilds its trackers at its next session, on its thread.
  for (Slot& slot : slots_) slot.coverage_.clear();
  return states;
}

}  // namespace ptest::core
