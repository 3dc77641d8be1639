// Reference oracle for the session rig's own tick loop.
//
// SessionRig::run steps its four devices with direct calls, and once the
// master's threads are all done and the committee is idle (the quiet
// phase) it runs the kernel alone and ticks the detector only on kernel
// events and detector deadlines.  The reference is the same production
// stack wired by hand, as core/session.cpp wires it, and stepped by the
// generic sim::Soc::run, which ticks every attached device on every tick.
// Every catalog scenario, bug and benign variant, runs over a seed sweep
// both ways, and so do variants whose detector fires inside the quiet
// phase; the two must agree on ticks, outcome, session stats (quiet ticks
// and checks included), the rendered report and its signature, and the
// golden trace fingerprint.
//
// The reference wiring carries a QuietWitness, attached just before the
// master and just after the committee.  From the first tick that starts
// with the master done and the committee idle, it checks on every tick
// that the entry condition still holds and that the master and committee
// ticks changed nothing: the channel's posted counters, the words taken
// from both doorbells, the committee's executed count and idleness, the
// master's live count and the trace length.  The ticks it sees this way
// are the reference's quiet ticks.  A DeadlineWitness after the detector
// replays the rig's detector gate over them (see its comment).
#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>

#include "core/reference_session.hpp"
#include "ptest/core/bug_detector.hpp"
#include "ptest/scenario/golden.hpp"

namespace ptest::core {
namespace {

// --- the quiet-phase contract ------------------------------------------------

class QuietWitness : public sim::Device {
 public:
  QuietWitness(const bridge::Channel& channel,
               const bridge::Committee& committee,
               const master::MasterScheduler& master)
      : channel_(&channel), committee_(&committee), master_(&master) {}

  bool tick(sim::Soc& soc) override {
    if (!after_committee_) {
      const bool entry = master_->all_done() && committee_->idle(soc);
      if (quiet_ && !entry) ++violations_;  // the phase must not end
      quiet_ = quiet_ || entry;
      before_ = read(soc);
    } else if (quiet_) {
      ++quiet_ticks_;
      if (!(read(soc) == before_)) ++violations_;
    }
    after_committee_ = !after_committee_;
    return true;
  }

  /// True from the start of the first quiet tick on.
  [[nodiscard]] bool quiet() const noexcept { return quiet_; }
  [[nodiscard]] sim::Tick quiet_ticks() const noexcept { return quiet_ticks_; }
  [[nodiscard]] std::size_t violations() const noexcept { return violations_; }

 private:
  struct State {
    std::uint64_t commands_posted = 0;
    std::uint64_t responses_posted = 0;
    std::uint64_t commands_taken = 0;
    std::uint64_t responses_taken = 0;
    std::uint64_t executed = 0;
    bool committee_idle = false;
    bool master_done = false;
    std::uint64_t trace_length = 0;
    bool operator==(const State&) const = default;
  };

  [[nodiscard]] State read(sim::Soc& soc) const {
    const sim::MailboxBank& boxes = soc.mailboxes();
    return {channel_->commands_posted(),
            channel_->responses_posted(),
            boxes.box(bridge::Channel::kCommandMailbox).delivered_count(),
            boxes.box(bridge::Channel::kResponseMailbox).delivered_count(),
            committee_->executed(),
            committee_->idle(soc),
            master_->all_done(),
            soc.trace().total_recorded()};
  }

  const bridge::Channel* channel_;
  const bridge::Committee* committee_;
  const master::MasterScheduler* master_;
  State before_;
  bool after_committee_ = false;
  bool quiet_ = false;
  sim::Tick quiet_ticks_ = 0;
  std::size_t violations_ = 0;
};

// --- the quiet deadline --------------------------------------------------------

/// The kernel state whose change makes the rig's quiet loop tick the
/// detector.
struct KernelEvents {
  bool panicked = false;
  std::size_t live = 0;
  std::uint64_t epoch = 0;
  bool operator==(const KernelEvents&) const = default;
};

KernelEvents read_events(const pcore::PcoreKernel& kernel) {
  return {kernel.panicked(), kernel.live_task_count(),
          kernel.wait_graph_epoch()};
}

/// Attached after the detector, which the reference ticks every tick.
/// From the first quiet tick on it replays the rig's gate: a tick is a
/// check when it is the first quiet tick, the kernel's events moved since
/// the last check, the last check's quiet_deadline() arrived, or it is the
/// last tick max_ticks allows.  Its checks are the rig's quiet_checks.
/// A report filed or a pass detected before the last deadline with the
/// events unchanged is a soundness violation: the deadline was late.
class DeadlineWitness : public sim::Device {
 public:
  /// `late_by` shifts every deadline later, to show the witness catches
  /// a late one.
  DeadlineWitness(const QuietWitness& quiet, const pcore::PcoreKernel& kernel,
                  const BugDetector& detector, sim::Tick max_ticks,
                  sim::Tick late_by)
      : quiet_(&quiet),
        kernel_(&kernel),
        detector_(&detector),
        max_ticks_(max_ticks),
        late_by_(late_by) {}

  bool tick(sim::Soc& soc) override {
    if (!quiet_->quiet()) return true;
    const sim::Tick now = soc.now();
    const KernelEvents events = read_events(*kernel_);
    const bool first = checks_ == 0;
    const bool moved = !first && !(events == at_check_);
    const bool due = !first && now >= deadline_;
    const bool fired = detector_->bug_found() || detector_->passed();
    if (fired && !first && !moved && !due) ++violations_;
    if (fired && due && !moved) ++deadline_firings_;
    if (first || moved || due || now + 1 >= max_ticks_) {
      ++checks_;
      at_check_ = events;
      deadline_ = detector_->quiet_deadline(now) + late_by_;
    }
    return true;
  }

  [[nodiscard]] sim::Tick checks() const noexcept { return checks_; }
  [[nodiscard]] std::size_t violations() const noexcept { return violations_; }
  /// Filings and passes that only the deadline, no kernel event, called.
  [[nodiscard]] std::size_t deadline_firings() const noexcept {
    return deadline_firings_;
  }

 private:
  const QuietWitness* quiet_;
  const pcore::PcoreKernel* kernel_;
  const BugDetector* detector_;
  sim::Tick max_ticks_;
  sim::Tick late_by_;
  KernelEvents at_check_;
  sim::Tick deadline_ = 0;
  sim::Tick checks_ = 0;
  std::size_t violations_ = 0;
  std::size_t deadline_firings_ = 0;
};

// --- sessions ------------------------------------------------------------------

struct ReferenceRun {
  SessionResult result;
  std::uint64_t trace_hash = 0;
  std::size_t violations = 0;
  std::size_t deadline_violations = 0;
  std::size_t deadline_firings = 0;
};

/// One session wired as core/session.cpp wires SessionRig, stepped by
/// Soc::run with the quiet witness around the master and the committee
/// and the deadline witness after the detector.
ReferenceRun run_reference(const CompiledTestPlan& plan, std::uint64_t seed,
                           const WorkloadSetup& setup,
                           pfa::WalkScratch& scratch,
                           sim::Tick late_by = 0) {
  HandWiredSession session(plan, seed, setup, scratch);
  const PtestConfig& config = session.config;
  sim::Soc& soc = session.soc;
  bridge::Committee committee(session.channel, session.kernel);
  master::MasterScheduler master(session.channel);
  master.add(std::move(session.owned_committer));
  BugDetector detector(config.detector, session.kernel, session.committer,
                       session.recorder);
  QuietWitness witness(session.channel, committee, master);
  DeadlineWitness deadlines(witness, session.kernel, detector,
                            config.max_ticks, late_by);

  soc.attach(witness);
  soc.attach(master);
  soc.attach(committee);
  soc.attach(witness);
  soc.attach(session.kernel);
  soc.attach(detector);
  soc.attach(deadlines);

  ReferenceRun run;
  run.result = session.file(detector, soc.run(config.max_ticks));
  run.result.stats.quiet_ticks = witness.quiet_ticks();
  run.result.stats.quiet_checks = deadlines.checks();
  run.trace_hash = scenario::trace_fingerprint(
      run.result, session.generated.merged, soc.trace());
  run.violations = witness.violations();
  run.deadline_violations = deadlines.violations();
  run.deadline_firings = deadlines.deadline_firings();
  return run;
}

struct SweepTotals {
  std::size_t sessions = 0;
  std::size_t bugs = 0;
  std::size_t quiet_sessions = 0;
  std::uint64_t ticks = 0;
  std::uint64_t quiet_ticks = 0;
  std::uint64_t quiet_checks = 0;
  /// Reports of each kind filed in the quiet phase.
  std::array<std::size_t, kBugKindCount> quiet_reports{};
  std::size_t quiet_passes = 0;
  /// Tick-limit cuts on a quiet tick after the first one.
  std::size_t quiet_cuts = 0;
  /// Filings and passes called by a deadline alone (see DeadlineWitness).
  std::size_t deadline_firings = 0;
};

/// Runs `seeds` sessions of `config` on one rig, each against the
/// hand-wired reference.
void sweep_variant(const std::string& label, const PtestConfig& config,
                   const WorkloadSetup& setup, std::uint64_t seeds,
                   SweepTotals& totals) {
  const CompiledTestPlanPtr plan = compile(config);
  pfa::WalkScratch scratch;
  SessionRig rig(plan->config, plan->alphabet);
  AdaptiveTestResult out;
  for (std::uint64_t run = 0; run < seeds; ++run) {
    const std::uint64_t seed = support::derive_seed(config.seed, run);
    SCOPED_TRACE(label + " seed " + std::to_string(seed));
    execute(*plan, seed, setup, scratch, rig, out);
    if (out.session.report) rig.complete_report(*out.session.report);
    const std::uint64_t rig_hash =
        scenario::trace_fingerprint(out.session, out.merged, rig.soc().trace());
    const ReferenceRun reference = run_reference(*plan, seed, setup, scratch);
    expect_same_session(out.session, reference.result, plan->alphabet);
    EXPECT_EQ(out.session.stats.quiet_ticks,
              reference.result.stats.quiet_ticks);
    EXPECT_EQ(out.session.stats.quiet_checks,
              reference.result.stats.quiet_checks);
    EXPECT_EQ(rig_hash, reference.trace_hash);
    EXPECT_EQ(reference.violations, 0u)
        << "the master or committee acted after the quiet entry";
    EXPECT_EQ(reference.deadline_violations, 0u)
        << "the detector fired before quiet_deadline() with no kernel event";
    const SessionStats& stats = out.session.stats;
    ++totals.sessions;
    totals.ticks += stats.ticks;
    totals.quiet_ticks += stats.quiet_ticks;
    totals.quiet_checks += stats.quiet_checks;
    totals.deadline_firings += reference.deadline_firings;
    if (out.session.report) ++totals.bugs;
    if (stats.quiet_ticks == 0) continue;
    ++totals.quiet_sessions;
    if (out.session.report) {
      ++totals.quiet_reports[static_cast<std::size_t>(out.session.report->kind)];
    } else if (out.session.outcome == Outcome::kPassed) {
      ++totals.quiet_passes;
    } else if (stats.quiet_checks > 1) {
      ++totals.quiet_cuts;
    }
  }
}

TEST(TickLoopReferenceTest, CatalogSweepMatchesTheGenericLoop) {
  constexpr std::uint64_t kSeedsPerVariant = 64;
  SweepTotals totals;
  for_each_catalog_variant([&](const CatalogVariant& variant) {
    sweep_variant(variant.label, variant.config, variant.setup,
                  kSeedsPerVariant, totals);
  });
  // The sweep must stop sessions in both phases and spend most of its
  // ticks in the quiet one.
  EXPECT_GT(totals.bugs, totals.sessions / 4);
  EXPECT_GT(totals.quiet_sessions, totals.sessions / 8);
  EXPECT_LT(totals.quiet_sessions, totals.sessions);
  EXPECT_GT(totals.quiet_ticks, totals.ticks / 2);
}

TEST(TickLoopReferenceTest, TickLimitCutsMatchInEitherPhase) {
  // A cut before the first tick, inside the active phase, and inside the
  // quiet phase of a hang scenario.
  SweepTotals totals;
  for (const char* name : {"fig1-livelock", "barrier-reuse", "aba-stack"}) {
    const scenario::Scenario* entry =
        scenario::ScenarioRegistry::builtin().find(name);
    ASSERT_NE(entry, nullptr);
    for (const sim::Tick max_ticks : {0, 1, 7, 40, 300}) {
      PtestConfig config = entry->config;
      config.max_ticks = max_ticks;
      sweep_variant(std::string(name) + " max_ticks " +
                        std::to_string(max_ticks),
                    config, entry->setup, 8, totals);
    }
  }
  EXPECT_GT(totals.quiet_sessions, 0u);
}

/// The catalog entry `name`.
const scenario::Scenario& catalog_entry(const char* name) {
  const scenario::Scenario* entry =
      scenario::ScenarioRegistry::builtin().find(name);
  if (entry == nullptr) throw std::invalid_argument(name);
  return *entry;
}

TEST(TickLoopReferenceTest, StarvationHorizonsPutDeadlinesInTheQuietPhase) {
  // A starvation horizon adds a detector deadline per runnable task to a
  // hang session's quiet phase; at 1 tick it is due on almost every tick.
  // Every session must still end on the reference's tick.
  SweepTotals totals;
  for (const char* name : {"barrier-reuse", "fig1-livelock"}) {
    const scenario::Scenario& entry = catalog_entry(name);
    for (const sim::Tick horizon : {1, 50, 600}) {
      PtestConfig config = entry.config;
      config.detector.starvation_horizon = horizon;
      sweep_variant(std::string(name) + " starvation_horizon " +
                        std::to_string(horizon),
                    config, entry.setup, 32, totals);
    }
  }
  EXPECT_GT(totals.quiet_sessions, totals.sessions / 2);
  EXPECT_GT(totals.deadline_firings, 0u);
  // The deadlines, not just the first tick and the filing, were checked.
  EXPECT_GT(totals.quiet_checks, 8 * totals.quiet_sessions);
}

TEST(TickLoopReferenceTest, CrashDeadlockAndPassInsideTheQuietPhaseMatch) {
  SweepTotals totals;
  // A crash: a heap that corrupts a header on its first sweep with
  // another task alive, so the collection after the first exit panics the
  // kernel; writer-starvation's tasks exit after the committer finished.
  {
    const scenario::Scenario& entry = catalog_entry("writer-starvation");
    PtestConfig config = entry.config;
    config.kernel.fault_plan = {.gc_corruption = true,
                                .churn_threshold = 1,
                                .live_block_threshold = 2};
    sweep_variant("writer-starvation gc corruption", config, entry.setup, 32,
                  totals);
  }
  // A deadlock: short terminal-free patterns finish the committer before
  // deadlock-pair's tasks lock in opposite order.
  {
    const scenario::Scenario& entry = catalog_entry("deadlock-pair");
    PtestConfig config = entry.config;
    config.regex = catalog_entry("barrier-reuse").config.regex;
    config.distributions = "";
    config.s = 2;
    sweep_variant("deadlock-pair short terminal-free", config, entry.setup,
                  32, totals);
  }
  // A pass: the benign variant's tasks all exit in the quiet phase.
  {
    const scenario::Scenario& entry = catalog_entry("writer-starvation");
    sweep_variant("writer-starvation (benign)", entry.benign_plan(),
                  entry.benign_workload(), 32, totals);
  }
  using Kind = BugKind;
  const auto quiet = [&](Kind kind) {
    return totals.quiet_reports[static_cast<std::size_t>(kind)];
  };
  EXPECT_GT(quiet(Kind::kSlaveCrash), 16u);
  EXPECT_GT(quiet(Kind::kDeadlock), 16u);
  EXPECT_GT(totals.quiet_passes, 16u);
}

TEST(TickLoopReferenceTest, TickLimitCutsBetweenDeadlinesMatch) {
  // Cuts deep in the quiet phase, with and without starvation deadlines
  // before them; the cut tick is checked whatever the deadline.
  SweepTotals totals;
  for (const char* name : {"barrier-reuse", "fig1-livelock"}) {
    const scenario::Scenario& entry = catalog_entry(name);
    for (const sim::Tick max_ticks : {1037, 2049}) {
      for (const sim::Tick horizon : {0, 50}) {
        PtestConfig config = entry.config;
        config.max_ticks = max_ticks;
        config.detector.starvation_horizon = horizon;
        sweep_variant(std::string(name) + " max_ticks " +
                          std::to_string(max_ticks) + " starvation_horizon " +
                          std::to_string(horizon),
                      config, entry.setup, 8, totals);
      }
    }
  }
  EXPECT_GT(totals.quiet_cuts, totals.sessions / 2);
}

TEST(TickLoopReferenceTest, QuietDeadlineIsNeverLate) {
  // On the reference, which ticks the detector every tick, no report is
  // filed and no pass detected before the last quiet_deadline() while the
  // kernel's events stand still; the deadlines of no-termination,
  // starvation and passes all arrive on time.  The same witness fed each
  // deadline one tick late must catch the filings it then misses.
  std::size_t on_time = 0;
  std::size_t late = 0;
  std::size_t firings = 0;
  for (const char* name :
       {"barrier-reuse", "writer-starvation", "priority-inversion"}) {
    const scenario::Scenario& entry = catalog_entry(name);
    const CompiledTestPlanPtr plan = compile(entry.config);
    pfa::WalkScratch scratch;
    for (std::uint64_t run = 0; run < 16; ++run) {
      const std::uint64_t seed = support::derive_seed(entry.config.seed, run);
      const ReferenceRun exact =
          run_reference(*plan, seed, entry.setup, scratch);
      const ReferenceRun off_by_one =
          run_reference(*plan, seed, entry.setup, scratch, /*late_by=*/1);
      on_time += exact.deadline_violations;
      late += off_by_one.deadline_violations;
      firings += exact.deadline_firings;
    }
  }
  EXPECT_EQ(on_time, 0u);
  EXPECT_GT(firings, 24u);
  EXPECT_EQ(late, firings);
}

}  // namespace
}  // namespace ptest::core
