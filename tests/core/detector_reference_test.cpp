// Reference oracle for the event-gated bug detector.
//
// ReferenceDetector below is the per-tick detector BugDetector replaced:
// it rebuilds the wait-for graph every tick and reads the kernel through a
// full snapshot().  The production detector must file the same report at
// the same tick.  Every catalog scenario, bug and benign variant, runs
// over a seed sweep twice: once through core::execute (the production
// detector inside TestSession) and once wired as core/session.cpp wires
// it, with the reference detector in its place.
//
// The reference wiring also carries an EpochWitness: after every tick it
// checks that the kernel's wait_graph_epoch() moved whenever the
// wait-for graph's inputs (blocked set, waiting_on, the owners of the
// mutexes blocked tasks wait on) did —
// the contract the production detector's scan gate relies on — and a
// KernelStateWitness: after every tick the kernel's runnable mask, yield
// mask and live count equal a fresh scan of its 16 TCBs, the contract
// the mask-walking scheduler and starvation check rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <sstream>
#include <string>

#include "core/reference_session.hpp"
#include "ptest/core/bug_detector.hpp"
#include "ptest/pcore/programs.hpp"

namespace ptest::core {
namespace {

// --- the per-tick detector, kept as the oracle -------------------------------

class ReferenceDetector : public sim::Device {
 public:
  ReferenceDetector(const DetectorConfig& config, pcore::PcoreKernel& kernel,
                    const master::Committer& committer,
                    const StateRecorder& recorder)
      : config_(config),
        kernel_(&kernel),
        committer_(&committer),
        recorder_(&recorder) {}

  bool tick(sim::Soc& soc) override;

  [[nodiscard]] bool bug_found() const noexcept {
    return report_.has_value();
  }
  [[nodiscard]] const std::optional<BugReport>& report() const noexcept {
    return report_;
  }
  [[nodiscard]] bool passed() const noexcept { return passed_; }

  static std::vector<pcore::TaskId> find_deadlock_cycle(
      const pcore::PcoreKernel& kernel);

 private:
  void file_report(sim::Soc& soc, BugKind kind, std::string description,
                   std::vector<pcore::TaskId> culprits);

  DetectorConfig config_;
  pcore::PcoreKernel* kernel_;
  const master::Committer* committer_;
  const StateRecorder* recorder_;
  std::optional<BugReport> report_;
  bool passed_ = false;
  std::optional<sim::Tick> committer_finished_at_;
};

std::vector<pcore::TaskId> ReferenceDetector::find_deadlock_cycle(
    const pcore::PcoreKernel& kernel) {
  // wait_for[t] = owner of the mutex t is blocked on (if blocked).
  std::array<pcore::TaskId, pcore::kMaxTasks> wait_for;
  wait_for.fill(pcore::kInvalidTask);
  for (pcore::TaskId t = 0; t < pcore::kMaxTasks; ++t) {
    const pcore::Tcb& tcb = kernel.tcb(t);
    if (tcb.state != pcore::TaskState::kBlocked || !tcb.waiting_on) continue;
    const pcore::KMutex& mutex = kernel.mutex(*tcb.waiting_on);
    if (mutex.owner) wait_for[t] = *mutex.owner;
  }
  // Floyd-style walk from every blocked task; cycles are tiny (<= 16).
  for (pcore::TaskId start = 0; start < pcore::kMaxTasks; ++start) {
    if (wait_for[start] == pcore::kInvalidTask) continue;
    std::vector<pcore::TaskId> path;
    std::array<bool, pcore::kMaxTasks> on_path{};
    pcore::TaskId cursor = start;
    while (cursor != pcore::kInvalidTask && !on_path[cursor]) {
      on_path[cursor] = true;
      path.push_back(cursor);
      cursor = wait_for[cursor];
    }
    if (cursor == pcore::kInvalidTask) continue;
    // `cursor` starts the cycle; trim the leading tail.
    const auto cycle_start =
        std::find(path.begin(), path.end(), cursor);
    return {cycle_start, path.end()};
  }
  return {};
}

void ReferenceDetector::file_report(sim::Soc& soc, BugKind kind,
                                    std::string description,
                                    std::vector<pcore::TaskId> culprits) {
  BugReport report;
  report.kind = kind;
  report.detected_at = soc.now();
  report.description = std::move(description);
  report.culprits = std::move(culprits);
  report.kernel = kernel_->snapshot();
  report.state_records.assign(recorder_->records().begin(),
                              recorder_->records().end());
  report.trace_tail = soc.trace().tail(kReportTraceLines);
  report_ = std::move(report);
  soc.record(sim::TraceCategory::kDetector,
             sim::bug_code(static_cast<std::uint8_t>(kind)));
}

bool ReferenceDetector::tick(sim::Soc& soc) {
  if (report_ || passed_) return false;

  // 1. Slave crash.
  if (kernel_->panicked()) {
    file_report(soc, BugKind::kSlaveCrash,
                "slave kernel panicked: " + kernel_->panic_reason(), {});
    return false;
  }

  // 2. Deadlock.
  if (auto cycle = find_deadlock_cycle(*kernel_); !cycle.empty()) {
    std::ostringstream desc;
    desc << "wait-for cycle:";
    for (const auto t : cycle) desc << " task" << static_cast<int>(t);
    file_report(soc, BugKind::kDeadlock, desc.str(), std::move(cycle));
    return false;
  }

  // 3. Unresponsive slave (command timeout).
  for (const auto& [seq, issue] : committer_->outstanding()) {
    if (soc.now() - issue.issued_at > config_.command_timeout) {
      file_report(soc, BugKind::kUnresponsive,
                  "command seq=" + std::to_string(seq) + " (" +
                      bridge::mnemonic(issue.service) +
                      ") unacknowledged for " +
                      std::to_string(soc.now() - issue.issued_at) + " ticks",
                  {});
      return false;
    }
  }

  // 4. Post-pattern termination watchdog / pass detection.
  if (committer_->finished()) {
    if (!committer_finished_at_) committer_finished_at_ = soc.now();
    const std::size_t live = kernel_->live_task_count();
    if (live == 0) {
      passed_ = true;
      return false;
    }
    if (soc.now() - *committer_finished_at_ > config_.termination_horizon) {
      std::vector<pcore::TaskId> culprits;
      for (const auto& task : kernel_->snapshot().tasks) {
        culprits.push_back(task.id);
      }
      file_report(soc, BugKind::kNoTermination,
                  std::to_string(live) +
                      " task(s) did not terminate within the horizon",
                  std::move(culprits));
      return false;
    }
  }

  // 5. Starvation (optional).
  if (config_.starvation_horizon != 0) {
    for (const auto& task : kernel_->snapshot().tasks) {
      if (task.state != pcore::TaskState::kReady) continue;
      if (soc.now() - task.last_progress > config_.starvation_horizon) {
        file_report(soc, BugKind::kStarvation,
                    "task " + std::to_string(task.id) +
                        " ready but unscheduled for " +
                        std::to_string(soc.now() - task.last_progress) +
                        " ticks",
                    {task.id});
        return false;
      }
    }
  }
  return true;
}

// --- the epoch contract ------------------------------------------------------

/// Everything find_deadlock_cycle reads from the kernel: the blocked set,
/// each task's waiting_on, and the owner of each mutex a blocked task
/// waits on.  The owner of a mutex no task waits on is no edge of the
/// graph, so taking a free mutex or releasing one with no waiter is not
/// an input change.
struct WaitGraphInputs {
  std::array<bool, pcore::kMaxTasks> blocked{};
  std::array<std::optional<std::uint8_t>, pcore::kMaxTasks> waiting_on{};
  std::array<std::optional<pcore::TaskId>, pcore::kMaxMutexes> owners{};

  static WaitGraphInputs read(const pcore::PcoreKernel& kernel) {
    WaitGraphInputs inputs;
    for (pcore::TaskId t = 0; t < pcore::kMaxTasks; ++t) {
      const pcore::Tcb& tcb = kernel.tcb(t);
      inputs.blocked[t] = tcb.state == pcore::TaskState::kBlocked;
      inputs.waiting_on[t] = tcb.waiting_on;
      if (inputs.blocked[t] && tcb.waiting_on) {
        inputs.owners[*tcb.waiting_on] = kernel.mutex(*tcb.waiting_on).owner;
      }
    }
    return inputs;
  }
  bool operator==(const WaitGraphInputs&) const = default;
};

/// Counts ticks where the wait-for graph's inputs changed but the kernel's
/// epoch did not.
class EpochWitness : public sim::Device {
 public:
  explicit EpochWitness(const pcore::PcoreKernel& kernel)
      : kernel_(&kernel),
        last_(WaitGraphInputs::read(kernel)),
        last_epoch_(kernel.wait_graph_epoch()) {}

  bool tick(sim::Soc&) override {
    const WaitGraphInputs now = WaitGraphInputs::read(*kernel_);
    const std::uint64_t epoch = kernel_->wait_graph_epoch();
    if (now != last_ && epoch == last_epoch_) ++missed_;
    last_ = now;
    last_epoch_ = epoch;
    return true;
  }

  [[nodiscard]] std::size_t missed() const noexcept { return missed_; }

 private:
  const pcore::PcoreKernel* kernel_;
  WaitGraphInputs last_;
  std::uint64_t last_epoch_;
  std::size_t missed_ = 0;
};

// --- the slot-mask contract --------------------------------------------------

/// Counts ticks where runnable_mask(), yield_mask() or live_task_count()
/// disagreed with a fresh scan of tcb(0..15).
class KernelStateWitness : public sim::Device {
 public:
  explicit KernelStateWitness(const pcore::PcoreKernel& kernel)
      : kernel_(&kernel) {}

  bool tick(sim::Soc&) override {
    pcore::SlotMask runnable = 0;
    pcore::SlotMask yielded = 0;
    std::size_t live = 0;
    for (pcore::TaskId t = 0; t < pcore::kMaxTasks; ++t) {
      const pcore::Tcb& tcb = kernel_->tcb(t);
      const auto bit = pcore::slot_bit(t);
      if (pcore::is_runnable(tcb.state)) runnable |= bit;
      if (tcb.yield_pending) yielded |= bit;
      live += pcore::is_live(tcb.state);
    }
    if (runnable != kernel_->runnable_mask() ||
        yielded != kernel_->yield_mask() ||
        live != kernel_->live_task_count()) {
      ++missed_;
    }
    return true;
  }

  [[nodiscard]] std::size_t missed() const noexcept { return missed_; }

 private:
  const pcore::PcoreKernel* kernel_;
  std::size_t missed_ = 0;
};

// --- sessions ------------------------------------------------------------------

struct ReferenceRun {
  SessionResult result;
  std::size_t epoch_misses = 0;
  std::size_t kernel_state_misses = 0;
};

/// One session wired as core/session.cpp wires TestSession, with the
/// reference detector (and both witnesses) observing, and its stats
/// read from a kernel snapshot as TestSession::run once did.
ReferenceRun run_reference(const CompiledTestPlan& plan, std::uint64_t seed,
                           const WorkloadSetup& setup,
                           pfa::WalkScratch& scratch) {
  HandWiredSession session(plan, seed, setup, scratch);
  sim::Soc& soc = session.soc;
  pcore::PcoreKernel& kernel = session.kernel;
  bridge::Committee committee(session.channel, kernel);
  master::MasterScheduler master(session.channel);
  master.add(std::move(session.owned_committer));
  ReferenceDetector detector(session.config.detector, kernel,
                             session.committer, session.recorder);
  EpochWitness witness(kernel);
  KernelStateWitness state_witness(kernel);

  soc.attach(master);
  soc.attach(committee);
  soc.attach(kernel);
  soc.attach(detector);
  soc.attach(witness);
  soc.attach(state_witness);

  ReferenceRun run;
  run.result = session.file(detector, soc.run(session.config.max_ticks));
  const auto snapshot = kernel.snapshot();
  run.result.stats.kernel_service_calls = snapshot.service_calls;
  run.result.stats.context_switches = snapshot.context_switches;
  run.result.stats.gc_runs = snapshot.heap.gc_runs;
  run.epoch_misses = witness.missed();
  run.kernel_state_misses = state_witness.missed();
  return run;
}

constexpr std::uint64_t kSeedsPerVariant = 48;

struct SweepTotals {
  std::size_t sessions = 0;
  std::size_t bugs = 0;
  std::set<BugKind> kinds;
};

void sweep_variant(const std::string& label, const PtestConfig& config,
                   const WorkloadSetup& setup, SweepTotals& totals) {
  const CompiledTestPlanPtr plan = compile(config);
  pfa::WalkScratch scratch;
  for (std::uint64_t run = 0; run < kSeedsPerVariant; ++run) {
    const std::uint64_t seed = support::derive_seed(config.seed, run);
    SCOPED_TRACE(label + " seed " + std::to_string(seed));
    const AdaptiveTestResult production =
        execute(*plan, seed, setup, scratch);
    const ReferenceRun reference = run_reference(*plan, seed, setup, scratch);
    expect_same_session(production.session, reference.result,
                        plan->alphabet);
    EXPECT_EQ(reference.epoch_misses, 0u)
        << "wait-for graph changed without an epoch bump";
    EXPECT_EQ(reference.kernel_state_misses, 0u)
        << "slot masks or live count disagree with the TCBs";
    ++totals.sessions;
    if (production.session.report) {
      ++totals.bugs;
      totals.kinds.insert(production.session.report->kind);
    }
  }
}

TEST(DetectorReferenceTest, CatalogSweepMatchesPerTickDetector) {
  SweepTotals totals;
  for_each_catalog_variant([&](const CatalogVariant& variant) {
    sweep_variant(variant.label, variant.config, variant.setup, totals);
  });
  // The sweep must exercise the detector, not just clean passes.
  EXPECT_GT(totals.bugs, totals.sessions / 4);
  for (const BugKind kind : {BugKind::kSlaveCrash, BugKind::kDeadlock,
                             BugKind::kNoTermination, BugKind::kStarvation}) {
    EXPECT_TRUE(totals.kinds.count(kind)) << to_string(kind);
  }
}

// --- direct kernel scenarios ---------------------------------------------------

constexpr std::uint32_t kIdleId = 100;

/// A kernel driven by hand, observed by both detectors.  The committer
/// is never stepped, so only the crash, deadlock and starvation checks
/// can fire.
struct ObservedKernel {
  explicit ObservedKernel(const DetectorConfig& config)
      : committer(pattern::MergedPattern{}, alphabet, {}),
        recorder(alphabet),
        production(config, kernel, committer, recorder),
        reference(config, kernel, committer, recorder),
        witness(kernel),
        state_witness(kernel) {
    kernel.register_program(kIdleId, [](std::uint32_t) {
      return pcore::Program{"idle", pcore::idle()};
    });
    soc.attach(kernel);
    soc.attach(production);
    soc.attach(reference);
    soc.attach(witness);
    soc.attach(state_witness);
  }

  pcore::TaskId create(pcore::Priority priority,
                       std::uint32_t program = kIdleId) {
    pcore::TaskId task = pcore::kInvalidTask;
    EXPECT_EQ(kernel.task_create(program, 0, priority, task),
              pcore::Status::kOk);
    return task;
  }

  void expect_same_reports() {
    ASSERT_EQ(production.report() != nullptr,
              reference.report().has_value());
    if (!production.report()) return;
    const BugReport& a = *production.report();
    const BugReport& b = *reference.report();
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.detected_at, b.detected_at);
    EXPECT_EQ(a.description, b.description);
    EXPECT_EQ(a.culprits, b.culprits);
    EXPECT_EQ(a.signature(), b.signature());
  }

  pfa::Alphabet alphabet;
  sim::Soc soc;
  pcore::PcoreKernel kernel;
  master::Committer committer;
  StateRecorder recorder;
  BugDetector production;
  ReferenceDetector reference;
  EpochWitness witness;
  KernelStateWitness state_witness;
};

TEST(DetectorReferenceTest, DeletingABlockedTaskKeepsTheEpochHonest) {
  ObservedKernel observed(DetectorConfig{});
  const pcore::MutexId m = observed.kernel.mutex_create();
  observed.kernel.register_program(200, [m](std::uint32_t) {
    return pcore::Program{"lock-hold", pcore::lock_hold(m, 1000000)};
  });
  const pcore::TaskId holder = observed.create(3, 200);
  (void)observed.soc.run(3);
  const pcore::TaskId waiter = observed.create(9, 200);
  (void)observed.soc.run(10);
  ASSERT_EQ(observed.kernel.tcb(waiter).state, pcore::TaskState::kBlocked);
  ASSERT_EQ(observed.kernel.task_delete(waiter), pcore::Status::kOk);
  (void)observed.soc.run(5);
  ASSERT_EQ(observed.kernel.task_delete(holder), pcore::Status::kOk);
  (void)observed.soc.run(5);
  EXPECT_EQ(observed.witness.missed(), 0u);
  EXPECT_EQ(observed.state_witness.missed(), 0u);
  EXPECT_FALSE(observed.production.bug_found());
  observed.expect_same_reports();
}

TEST(DetectorReferenceTest, ACycleBuiltBeforeTheFirstTickIsFiledOnIt) {
  // The detector counts epoch 0 as scanned.  A kernel whose epoch moved
  // before the detector first ticks must still be scanned on that tick,
  // by a fresh detector and by a reset one.
  pfa::Alphabet alphabet;
  sim::Soc soc;
  pcore::PcoreKernel kernel;
  const pcore::MutexId a = kernel.mutex_create();
  const pcore::MutexId b = kernel.mutex_create();
  // Each task locks one mutex, lets the other task run, then locks the
  // other mutex.
  kernel.register_program(300, [a, b](std::uint32_t first) {
    const pcore::MutexId mine = first == 0 ? a : b;
    const pcore::MutexId theirs = first == 0 ? b : a;
    return pcore::Program{
        "opposed", pcore::script({pcore::StepResult::lock(mine),
                                  pcore::StepResult::yield(),
                                  pcore::StepResult::lock(theirs),
                                  pcore::StepResult::compute()})};
  });
  std::array<pcore::TaskId, 2> tasks{};
  for (std::uint32_t i = 0; i < 2; ++i) {
    ASSERT_EQ(kernel.task_create(300, i, 5, tasks[i]), pcore::Status::kOk);
  }
  soc.attach(kernel);
  (void)soc.run(8);
  ASSERT_EQ(kernel.tcb(tasks[0]).state, pcore::TaskState::kBlocked);
  ASSERT_EQ(kernel.tcb(tasks[1]).state, pcore::TaskState::kBlocked);
  ASSERT_GT(kernel.wait_graph_epoch(), 0u);

  const master::Committer committer(pattern::MergedPattern{}, alphabet, {});
  const StateRecorder recorder(alphabet);
  BugDetector detector(DetectorConfig{}, kernel, committer, recorder);
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "fresh" : "reset");
    EXPECT_FALSE(detector.tick(soc));
    ASSERT_TRUE(detector.bug_found());
    EXPECT_EQ(detector.report()->kind, BugKind::kDeadlock);
    EXPECT_EQ(detector.report()->detected_at, soc.now());
    std::vector<pcore::TaskId> culprits = detector.report()->culprits;
    std::sort(culprits.begin(), culprits.end());
    EXPECT_EQ(culprits, (std::vector<pcore::TaskId>{tasks[0], tasks[1]}));
    detector.reset();
  }
}

TEST(DetectorReferenceTest, ResumedTaskStarvesOnFirstTickPastHorizon) {
  // A task suspended for longer than the horizon comes back kReady with
  // its pre-suspend last_progress; a higher-priority task keeps it off
  // the CPU, so both detectors report it on the very next tick.
  DetectorConfig config;
  config.starvation_horizon = 20;
  ObservedKernel observed(config);
  const pcore::TaskId low = observed.create(3);
  (void)observed.soc.run(2);  // low runs once, alone
  ASSERT_EQ(observed.kernel.task_suspend(low), pcore::Status::kOk);
  (void)observed.create(9);
  (void)observed.soc.run(2 * config.starvation_horizon);
  ASSERT_FALSE(observed.production.bug_found());
  ASSERT_EQ(observed.kernel.task_resume(low), pcore::Status::kOk);
  const sim::Tick resumed_at = observed.soc.now();
  (void)observed.soc.run(3);
  ASSERT_TRUE(observed.production.bug_found());
  EXPECT_EQ(observed.production.report()->kind, BugKind::kStarvation);
  EXPECT_EQ(observed.production.report()->detected_at, resumed_at);
  observed.expect_same_reports();
}

}  // namespace
}  // namespace ptest::core
