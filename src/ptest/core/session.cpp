#include "ptest/core/session.hpp"

namespace ptest::core {

const char* to_string(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kPassed: return "passed";
    case Outcome::kBug: return "bug";
    case Outcome::kTickLimit: return "tick-limit";
  }
  return "?";
}

TestSession::TestSession(const PtestConfig& config,
                         const pfa::Alphabet& alphabet,
                         pattern::MergedPattern merged,
                         const std::vector<pattern::TestPattern>& patterns,
                         const WorkloadSetup& setup)
    : config_(config), alphabet_(&alphabet), merged_(std::move(merged)) {
  soc_ = std::make_unique<sim::Soc>();
  kernel_ = std::make_unique<pcore::PcoreKernel>(config.kernel);
  if (setup) setup(*kernel_);
  channel_ = std::make_unique<bridge::Channel>(*soc_);
  committee_ = std::make_unique<bridge::Committee>(*channel_, *kernel_);
  master_ = std::make_unique<master::MasterScheduler>(*channel_);
  recorder_ = std::make_unique<StateRecorder>(alphabet);
  for (pattern::SlotIndex slot = 0; slot < patterns.size(); ++slot) {
    recorder_->assign(slot, patterns[slot].symbols);
  }

  master::CommitterOptions committer_options;
  committer_options.program_id = config.program_id;
  // arg = slot index by convention: philosopher index, quicksort seed,
  // seeded-bug role all key off it.
  committer_options.program_arg = [](pattern::SlotIndex slot) {
    return static_cast<std::uint32_t>(slot);
  };
  if (config.noise_max_delay > 0 || config.command_spacing > 0) {
    auto noise_rng =
        std::make_shared<support::Rng>(config.seed ^ 0x6e6f697365ULL);
    const sim::Tick max_delay = config.noise_max_delay;
    const sim::Tick spacing = config.command_spacing;
    committer_options.issue_delay =
        [noise_rng, max_delay, spacing](const pattern::MergedElement&) {
          const sim::Tick jitter =
              max_delay > 0
                  ? static_cast<sim::Tick>(noise_rng->below(max_delay + 1))
                  : 0;
          return spacing + jitter;
        };
  }
  auto committer = std::make_unique<master::Committer>(
      merged_, alphabet, std::move(committer_options), recorder_.get());
  committer_ = committer.get();
  master_->add(std::move(committer));

  detector_ = std::make_unique<BugDetector>(config.detector, *kernel_,
                                            *committer_, *recorder_);

  // Device order = intra-tick order: master issues, committee dispatches,
  // kernel executes, detector observes the post-state.
  soc_->attach(*master_);
  soc_->attach(*committee_);
  soc_->attach(*kernel_);
  soc_->attach(*detector_);
}

SessionResult TestSession::run() {
  SessionResult result;
  result.stats.ticks = soc_->run(config_.max_ticks);

  if (detector_->bug_found()) {
    result.outcome = Outcome::kBug;
    result.report = *detector_->report();
    result.report->seed = config_.seed;
    result.report->merged = merged_;
  } else if (detector_->passed()) {
    result.outcome = Outcome::kPassed;
  } else {
    result.outcome = Outcome::kTickLimit;
  }

  result.stats.commands_issued = committer_->issued();
  result.stats.commands_acked = committer_->acked();
  result.stats.commands_failed = committer_->failed();
  result.stats.kernel_service_calls = kernel_->service_calls();
  result.stats.context_switches = kernel_->context_switches();
  result.stats.gc_runs = kernel_->gc_runs();
  return result;
}

}  // namespace ptest::core
