#include "ptest/core/session.hpp"

#include <algorithm>

namespace ptest::core {

const char* to_string(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kPassed: return "passed";
    case Outcome::kBug: return "bug";
    case Outcome::kTickLimit: return "tick-limit";
  }
  return "?";
}

SessionRig::SessionRig(const PtestConfig& config,
                       const pfa::Alphabet& alphabet)
    : max_ticks_(config.max_ticks),
      kernel_(config.kernel),
      channel_(soc_),
      committee_(channel_, kernel_),
      recorder_(alphabet),
      committer_(pattern::MergedPattern{}, alphabet,
                 committer_options(config, noise_rng_), &recorder_),
      detector_(config.detector, kernel_, committer_, recorder_) {
  // run() steps the devices itself; attached in the same order, they
  // also tick under soc().step() for callers that step the stack by hand.
  // The committer runs only under run().
  soc_.attach(committee_);
  soc_.attach(kernel_);
  soc_.attach(detector_);
}

master::CommitterOptions committer_options(const PtestConfig& config,
                                           support::Rng& noise_rng) {
  master::CommitterOptions options;
  options.program_id = config.program_id;
  options.program_arg = [](pattern::SlotIndex slot) {
    return static_cast<std::uint32_t>(slot);
  };
  if (config.noise_max_delay > 0 || config.command_spacing > 0) {
    options.issue_delay = [rng = &noise_rng, max_delay = config.noise_max_delay,
                           spacing = config.command_spacing](
                              const pattern::MergedElement&) {
      const sim::Tick jitter =
          max_delay > 0 ? static_cast<sim::Tick>(rng->below(max_delay + 1))
                        : 0;
      return spacing + jitter;
    };
  }
  return options;
}

void SessionRig::load(std::uint64_t seed,
                      const pattern::MergedPattern& merged,
                      const std::vector<pattern::TestPattern>& patterns,
                      const WorkloadSetup& setup) {
  seed_ = seed;
  noise_rng_ = support::Rng(seed ^ kNoiseStreamSalt);
  soc_.reset();
  kernel_.reset();
  if (setup) setup(kernel_);
  channel_.reset(soc_);
  committee_.reset();
  recorder_.reset(patterns.size());
  for (pattern::SlotIndex slot = 0; slot < patterns.size(); ++slot) {
    recorder_.assign(slot, patterns[slot].symbols);
  }
  committer_.reset(merged);
  detector_.reset();
}

void SessionRig::tick_loop(SessionStats& stats) {
  // Intra-tick order: the committer issues, the committee dispatches,
  // the kernel executes, the detector observes the post-state.  As in
  // sim::Soc::step, each ticks, the clock advances after all four, and
  // the session stops after a tick on which a device returned false.
  // The committer steps until it reports kDone, as under a one-thread
  // MasterScheduler, which never steps a done thread again and records
  // the same event.
  master::MasterContext context(soc_, channel_);
  sim::Tick executed = 0;
  bool keep_running = true;
  while (keep_running && executed < max_ticks_) {
    // Quiet entry.  Only the committer posts commands, and it reaches
    // kDone only with an empty ledger and an empty retry queue: every
    // command it posted has been executed and its response taken, so
    // nothing is in flight on the channel.  With the committee idle as
    // well (no backlog, no command ready), no later tick of either can
    // change any state, and they retire for the rest of the session.
    if (committer_.finished() && committee_.idle(soc_)) break;
    ++executed;
    if (!committer_.finished() &&
        committer_.step(context) == master::ThreadStep::kDone) {
      soc_.record(sim::TraceCategory::kMaster, sim::TraceCode::kThreadDone,
                  committer_.name());
    }
    keep_running = committee_.tick(soc_);
    if (!kernel_.tick(soc_)) keep_running = false;
    if (!detector_.tick(soc_)) keep_running = false;
    soc_.clock().advance();
  }
  const sim::Tick active = executed;
  // The quiet loop.  The committer and the committee are retired, so no
  // command arrives and the committer's outstanding set stays empty: the
  // unresponsive check cannot fire, the termination deadline is fixed,
  // and the kernel's runnable set changes only on a panic, a live-count
  // change (exit) or a wait-graph epoch change (block, unblock).  Between
  // such events the detector's checks are all quiet: the crash check
  // waits for a panic, the deadlock scan for an epoch change, the pass
  // for the live count to reach 0, and the termination and starvation
  // checks for quiet_deadline().  A detector tick that fires nothing
  // changes no detector state there (its finished-at tick is already
  // set, its scanned epoch current), so skipping it is exact.  The loop
  // therefore runs the kernel alone up to the next event, the deadline or
  // the last tick max_ticks allows, and ticks the detector on that tick:
  // every report is filed on the tick, and with the contents, that
  // per-tick detection would give.  The first quiet tick is always
  // checked.  Kernel ticks always return true; the detector decides.
  sim::Tick wake = soc_.now();
  sim::Tick checks = 0;
  while (keep_running && executed < max_ticks_) {
    const sim::Tick last =
        std::min(wake, soc_.now() + (max_ticks_ - executed) - 1);
    executed += kernel_.run_quiet(soc_, last);
    keep_running = detector_.tick(soc_);
    ++checks;
    wake = detector_.quiet_deadline(soc_.now());
    soc_.clock().advance();
  }
  stats.ticks = executed;
  stats.quiet_ticks = executed - active;
  stats.quiet_checks = checks;
}

void SessionRig::run(SessionResult& out) {
  tick_loop(out.stats);

  if (const BugReport* filed = detector_.report()) {
    out.outcome = Outcome::kBug;
    // The head goes into `out`'s kept buffers, or the spare's; the body is
    // emptied, for complete_report() to fill if the caller keeps the
    // report.
    if (!out.report) out.report.emplace(std::move(spare_report_));
    BugReport& report = *out.report;
    report.kind = filed->kind;
    report.detected_at = filed->detected_at;
    report.description.assign(filed->description);
    report.culprits.assign(filed->culprits.begin(), filed->culprits.end());
    pcore::KernelSnapshot& kernel = report.kernel;
    kernel.panicked = filed->kernel.panicked;
    kernel.panic_reason.assign(filed->kernel.panic_reason);
    kernel.tick = 0;
    kernel.tasks.clear();
    kernel.live_tasks = 0;
    kernel.heap = {};
    kernel.context_switches = 0;
    kernel.preemptions = 0;
    kernel.service_calls = 0;
    report.state_records.clear();
    report.trace_tail.clear();
    report.seed = seed_;
    report.merged.elements.clear();
  } else {
    if (out.report) {
      spare_report_ = std::move(*out.report);
      out.report.reset();
    }
    out.outcome =
        detector_.passed() ? Outcome::kPassed : Outcome::kTickLimit;
  }

  out.stats.commands_issued = committer_.issued();
  out.stats.commands_acked = committer_.acked();
  out.stats.commands_failed = committer_.failed();
  out.stats.kernel_service_calls = kernel_.service_calls();
  out.stats.context_switches = kernel_.context_switches();
  out.stats.gc_runs = kernel_.gc_runs();
}

void SessionRig::complete_report(BugReport& report) const {
  kernel_.snapshot_into(report.kernel);
  report.state_records.assign(recorder_.records().begin(),
                              recorder_.records().end());
  // The detector's bug event is the last one recorded: it steps last on
  // the detection tick, and the run stops after that tick.
  soc_.trace().tail_into(kReportTraceLines, report.trace_tail, 1);
  const pattern::MergedPattern& merged = committer_.pattern();
  report.merged.elements.assign(merged.elements.begin(),
                                merged.elements.end());
}

SessionResult SessionRig::run() {
  SessionResult result;
  run(result);
  if (result.report) complete_report(*result.report);
  return result;
}

TestSession::TestSession(const PtestConfig& config,
                         const pfa::Alphabet& alphabet,
                         pattern::MergedPattern merged,
                         const std::vector<pattern::TestPattern>& patterns,
                         const WorkloadSetup& setup)
    : merged_(std::move(merged)), rig_(config, alphabet) {
  rig_.load(config.seed, merged_, patterns, setup);
}

}  // namespace ptest::core
