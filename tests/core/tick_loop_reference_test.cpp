// Reference oracle for the session rig's own tick loop.
//
// SessionRig::run steps its four devices with direct calls, and once the
// master's threads are all done and the committee is idle it ticks only
// the kernel and the detector (the quiet phase).  The reference is the
// same production stack wired by hand, as core/session.cpp wires it, and
// stepped by the generic sim::Soc::run, which ticks every attached device
// on every tick.  Every catalog scenario, bug and benign variant, runs
// over a seed sweep both ways; the two must agree on ticks, outcome,
// session stats (quiet ticks included), the rendered report and its
// signature, and the golden trace fingerprint.
//
// The reference wiring carries a QuietWitness, attached just before the
// master and just after the committee.  From the first tick that starts
// with the master done and the committee idle, it checks on every tick
// that the entry condition still holds and that the master and committee
// ticks changed nothing: the channel's posted counters, the words taken
// from both doorbells, the committee's executed count and idleness, the
// master's live count and the trace length.  The ticks it sees this way
// are the reference's quiet ticks.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "ptest/core/adaptive_test.hpp"
#include "ptest/core/bug_detector.hpp"
#include "ptest/core/session.hpp"
#include "ptest/scenario/golden.hpp"
#include "ptest/scenario/registry.hpp"
#include "ptest/support/rng.hpp"

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

// --- sessions ------------------------------------------------------------------

struct ReferenceRun {
  SessionResult result;
  std::uint64_t trace_hash = 0;
  std::size_t violations = 0;
};

/// One session wired as core/session.cpp wires SessionRig, stepped by
/// Soc::run with the witness around the master and the committee.
ReferenceRun run_reference(const CompiledTestPlan& plan, std::uint64_t seed,
                           const WorkloadSetup& setup,
                           pfa::WalkScratch& scratch) {
  const AdaptiveTestResult generated = generate_and_merge(plan, seed, scratch);
  PtestConfig config = plan.config;
  config.seed = seed;

  sim::Soc soc;
  pcore::PcoreKernel kernel(config.kernel);
  if (setup) setup(kernel);
  bridge::Channel channel(soc);
  bridge::Committee committee(channel, kernel);
  master::MasterScheduler master(channel);
  StateRecorder recorder(plan.alphabet);
  for (pattern::SlotIndex slot = 0; slot < generated.patterns.size();
       ++slot) {
    recorder.assign(slot, generated.patterns[slot].symbols);
  }

  master::CommitterOptions committer_options;
  committer_options.program_id = config.program_id;
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
  auto owned_committer = std::make_unique<master::Committer>(
      generated.merged, plan.alphabet, std::move(committer_options),
      &recorder);
  const master::Committer& committer = *owned_committer;
  master.add(std::move(owned_committer));
  BugDetector detector(config.detector, kernel, committer, recorder);
  QuietWitness witness(channel, committee, master);

  soc.attach(witness);
  soc.attach(master);
  soc.attach(committee);
  soc.attach(witness);
  soc.attach(kernel);
  soc.attach(detector);

  ReferenceRun run;
  SessionResult& result = run.result;
  result.stats.ticks = soc.run(config.max_ticks);
  result.stats.quiet_ticks = witness.quiet_ticks();
  if (detector.bug_found()) {
    result.outcome = Outcome::kBug;
    result.report = *detector.report();
    result.report->seed = config.seed;
    result.report->merged = generated.merged;
  } else if (detector.passed()) {
    result.outcome = Outcome::kPassed;
  } else {
    result.outcome = Outcome::kTickLimit;
  }
  result.stats.commands_issued = committer.issued();
  result.stats.commands_acked = committer.acked();
  result.stats.commands_failed = committer.failed();
  result.stats.kernel_service_calls = kernel.service_calls();
  result.stats.context_switches = kernel.context_switches();
  result.stats.gc_runs = kernel.gc_runs();
  run.trace_hash =
      scenario::trace_fingerprint(result, generated.merged, soc.trace());
  run.violations = witness.violations();
  return run;
}

void expect_same_session(const SessionResult& rig,
                         const SessionResult& reference,
                         const pfa::Alphabet& alphabet) {
  EXPECT_EQ(rig.stats.ticks, reference.stats.ticks);
  EXPECT_EQ(rig.stats.quiet_ticks, reference.stats.quiet_ticks);
  EXPECT_EQ(rig.outcome, reference.outcome);
  EXPECT_EQ(rig.stats.commands_issued, reference.stats.commands_issued);
  EXPECT_EQ(rig.stats.commands_acked, reference.stats.commands_acked);
  EXPECT_EQ(rig.stats.commands_failed, reference.stats.commands_failed);
  EXPECT_EQ(rig.stats.kernel_service_calls,
            reference.stats.kernel_service_calls);
  EXPECT_EQ(rig.stats.context_switches, reference.stats.context_switches);
  EXPECT_EQ(rig.stats.gc_runs, reference.stats.gc_runs);
  ASSERT_EQ(rig.report.has_value(), reference.report.has_value());
  if (!rig.report) return;
  EXPECT_EQ(rig.report->signature(), reference.report->signature());
  EXPECT_EQ(rig.report->render(alphabet), reference.report->render(alphabet));
}

struct SweepTotals {
  std::size_t sessions = 0;
  std::size_t bugs = 0;
  std::size_t quiet_sessions = 0;
  std::uint64_t ticks = 0;
  std::uint64_t quiet_ticks = 0;
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
    const std::uint64_t rig_hash =
        scenario::trace_fingerprint(out.session, out.merged, rig.soc().trace());
    const ReferenceRun reference = run_reference(*plan, seed, setup, scratch);
    expect_same_session(out.session, reference.result, plan->alphabet);
    EXPECT_EQ(rig_hash, reference.trace_hash);
    EXPECT_EQ(reference.violations, 0u)
        << "the master or committee acted after the quiet entry";
    ++totals.sessions;
    totals.ticks += out.session.stats.ticks;
    totals.quiet_ticks += out.session.stats.quiet_ticks;
    if (out.session.stats.quiet_ticks > 0) ++totals.quiet_sessions;
    if (out.session.report) ++totals.bugs;
  }
}

TEST(TickLoopReferenceTest, CatalogSweepMatchesTheGenericLoop) {
  constexpr std::uint64_t kSeedsPerVariant = 64;
  SweepTotals totals;
  for (const scenario::Scenario& entry :
       scenario::ScenarioRegistry::builtin().all()) {
    sweep_variant(entry.name, entry.config, entry.setup, kSeedsPerVariant,
                  totals);
    if (entry.has_benign()) {
      sweep_variant(entry.name + " (benign)", entry.benign_plan(),
                    entry.benign_workload(), kSeedsPerVariant, totals);
    }
  }
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

}  // namespace
}  // namespace ptest::core
