// What the reference-oracle suites share.
//
// Each reference suite runs sessions through the production path and
// through a stack wired by hand around the devices it substitutes (a
// reference detector, a polling committee, a witness).  The parts no
// suite substitutes live here, wired as core/session.cpp wires
// SessionRig: the generated patterns, the seeded config, the Soc, the
// kernel with the workload set up, the channel, the recorder with every
// slot's CP record assigned, the noise stream, and the committer built
// from core::committer_options.  So are the catalog walk the suites
// sweep, the filing of a hand-wired run into a SessionResult, and the
// comparison of two sessions.  Each suite still builds and attaches its
// own devices and witnesses, in its own tick order.  The production side
// of a fingerprint comparison is here too: run_traced hashes a session
// run by core::execute on a kept rig's warm load, as campaigns run it,
// and replay_traced a recorded failure's replay.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "ptest/core/adaptive_test.hpp"
#include "ptest/core/session.hpp"
#include "ptest/master/scheduler.hpp"
#include "ptest/scenario/golden.hpp"
#include "ptest/scenario/registry.hpp"
#include "ptest/support/rng.hpp"

namespace ptest::core {

/// One catalog variant: an entry's bug plan, or its benign control.
struct CatalogVariant {
  const scenario::Scenario& entry;
  bool benign = false;
  /// The entry's name, with " (benign)" for the control.
  std::string label;
  PtestConfig config;
  const WorkloadSetup& setup;
};

/// Calls `visit(variant)` for each catalog entry, followed by its benign
/// variant when it has one: 27 variants in catalog order.
template <typename Visit>
void for_each_catalog_variant(Visit&& visit) {
  for (const scenario::Scenario& entry :
       scenario::ScenarioRegistry::builtin().all()) {
    visit(CatalogVariant{entry, false, entry.name, entry.config, entry.setup});
    if (entry.has_benign()) {
      visit(CatalogVariant{entry, true, entry.name + " (benign)",
                           entry.benign_plan(), entry.benign_workload()});
    }
  }
}

/// The parts of one session of `plan` at `seed` that every hand-wired
/// reference shares with SessionRig.  The suite adds a committee, a
/// master (which takes `owned_committer`) and a detector, attaches its
/// devices, runs the Soc and files the run with file().  Not copyable:
/// the committer's issue delay points at `noise_rng`.
struct HandWiredSession {
  HandWiredSession(const CompiledTestPlan& plan, std::uint64_t seed,
                   const WorkloadSetup& setup, pfa::WalkScratch& scratch)
      : generated(generate_and_merge(plan, seed, scratch)),
        config(plan.config),
        kernel(config.kernel),
        channel(soc),
        recorder(plan.alphabet),
        noise_rng(seed ^ kNoiseStreamSalt),
        owned_committer(std::make_unique<master::Committer>(
            generated.merged, plan.alphabet,
            committer_options(config, noise_rng), &recorder)),
        committer(*owned_committer) {
    config.seed = seed;
    if (setup) setup(kernel);
    for (pattern::SlotIndex slot = 0; slot < generated.patterns.size();
         ++slot) {
      recorder.assign(slot, generated.patterns[slot].symbols);
    }
  }

  HandWiredSession(const HandWiredSession&) = delete;
  HandWiredSession& operator=(const HandWiredSession&) = delete;

  /// What SessionRig::run files after a run of `ticks` ticks judged by
  /// `detector` (BugDetector or a reference with the same queries), with
  /// the report completed: the outcome, the report with the session's
  /// seed and merged pattern, and the committer's and kernel's counters.
  /// The quiet-phase stats stay 0.  BugDetector files only a head, so
  /// for it the body is built here from this stack's own parts, as the
  /// eager reference detector files it, not through complete_report().
  template <typename Detector>
  [[nodiscard]] SessionResult file(const Detector& detector,
                                   sim::Tick ticks) const {
    SessionResult result;
    result.stats.ticks = ticks;
    if (detector.bug_found()) {
      result.outcome = Outcome::kBug;
      BugReport& report = result.report.emplace(*detector.report());
      if constexpr (std::is_same_v<Detector, BugDetector>) {
        report.kernel = kernel.snapshot();
        report.state_records.assign(recorder.records().begin(),
                                    recorder.records().end());
        // The newest event is the detector's own bug event.
        report.trace_tail = soc.trace().tail(kReportTraceLines + 1);
        EXPECT_FALSE(report.trace_tail.empty());
        if (!report.trace_tail.empty()) {
          EXPECT_EQ(report.trace_tail.back().category,
                    sim::TraceCategory::kDetector);
          report.trace_tail.pop_back();
        }
      }
      report.seed = config.seed;
      report.merged = generated.merged;
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
    return result;
  }

  AdaptiveTestResult generated;
  PtestConfig config;
  sim::Soc soc;
  pcore::PcoreKernel kernel;
  bridge::Channel channel;
  StateRecorder recorder;
  support::Rng noise_rng;
  /// The suite's master takes this; `committer` stays valid.
  std::unique_ptr<master::Committer> owned_committer;
  const master::Committer& committer;
};

/// One traced session: the AdaptiveTest result, its report completed,
/// plus the trace fingerprint.
struct TracedRun {
  AdaptiveTestResult result;
  std::uint64_t trace_hash = support::kFnvOffset;
};

/// execute(plan, seed, setup, scratch, rig, out) on a rig that has
/// already run another session of `plan` (at seed + 1), fingerprinted
/// from the rig's own trace: the warm-load path campaigns run.
[[nodiscard]] inline TracedRun run_traced(const CompiledTestPlan& plan,
                                          std::uint64_t seed,
                                          const WorkloadSetup& setup,
                                          pfa::WalkScratch& scratch) {
  SessionRig rig(plan.config, plan.alphabet);
  TracedRun traced;
  execute(plan, seed + 1, setup, scratch, rig, traced.result);
  execute(plan, seed, setup, scratch, rig, traced.result);
  if (traced.result.session.report) {
    rig.complete_report(*traced.result.session.report);
  }
  traced.trace_hash = scenario::trace_fingerprint(
      traced.result.session, traced.result.merged, rig.soc().trace());
  return traced;
}

/// Replays `report`'s merged pattern under `plan`, with the per-slot
/// projections as the state recorder's inputs exactly like core::replay,
/// and fingerprints the replayed session the same way.
[[nodiscard]] inline TracedRun replay_traced(const BugReport& report,
                                             const CompiledTestPlan& plan,
                                             const WorkloadSetup& setup) {
  PtestConfig config = plan.config;
  config.seed = report.seed;
  TracedRun traced;
  traced.result.merged = report.merged;
  traced.result.patterns = report.merged.project_all();
  TestSession session(config, plan.alphabet, report.merged,
                      traced.result.patterns, setup);
  traced.result.session = session.run();
  traced.trace_hash = scenario::trace_fingerprint(
      traced.result.session, traced.result.merged, session.soc().trace());
  return traced;
}

/// Every field of two kernel snapshots.
inline void expect_same_kernel(const pcore::KernelSnapshot& a,
                               const pcore::KernelSnapshot& b) {
  EXPECT_EQ(a.tick, b.tick);
  EXPECT_EQ(a.panicked, b.panicked);
  EXPECT_EQ(a.panic_reason, b.panic_reason);
  EXPECT_EQ(a.live_tasks, b.live_tasks);
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.service_calls, b.service_calls);
  EXPECT_EQ(a.heap.capacity, b.heap.capacity);
  EXPECT_EQ(a.heap.live_bytes, b.heap.live_bytes);
  EXPECT_EQ(a.heap.live_blocks, b.heap.live_blocks);
  EXPECT_EQ(a.heap.free_bytes, b.heap.free_bytes);
  EXPECT_EQ(a.heap.graveyard_blocks, b.heap.graveyard_blocks);
  EXPECT_EQ(a.heap.total_allocs, b.heap.total_allocs);
  EXPECT_EQ(a.heap.total_frees, b.heap.total_frees);
  EXPECT_EQ(a.heap.gc_runs, b.heap.gc_runs);
  EXPECT_EQ(a.heap.coalesced, b.heap.coalesced);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    const pcore::TaskSnapshot& x = a.tasks[i];
    const pcore::TaskSnapshot& y = b.tasks[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.state, y.state);
    EXPECT_EQ(x.priority, y.priority);
    EXPECT_EQ(x.program, y.program);
    EXPECT_EQ(x.waiting_on, y.waiting_on);
    EXPECT_EQ(x.holds, y.holds);
    EXPECT_EQ(x.last_progress, y.last_progress);
    EXPECT_EQ(x.steps, y.steps);
    EXPECT_EQ(x.generation, y.generation);
  }
}

/// Every field of two reports: the head, the whole body (kernel snapshot
/// included, which render() covers only in part), the signature both
/// ways, and the rendering.
inline void expect_same_report(const BugReport& a, const BugReport& b,
                               const pfa::Alphabet& alphabet) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.detected_at, b.detected_at);
  EXPECT_EQ(a.description, b.description);
  EXPECT_EQ(a.culprits, b.culprits);
  expect_same_kernel(a.kernel, b.kernel);
  EXPECT_EQ(a.state_records, b.state_records);
  EXPECT_EQ(a.trace_tail, b.trace_tail);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.merged.elements, b.merged.elements);
  EXPECT_EQ(a.signature(), b.signature());
  std::string appended = "kept:";
  a.append_signature(appended);
  EXPECT_EQ(appended, "kept:" + b.signature());
  EXPECT_EQ(a.render(alphabet), b.render(alphabet));
}

/// `actual` and `reference` agree on the outcome, every session stat a
/// hand-wired reference files (the quiet-phase stats are the tick-loop
/// suite's own check), and every field of the report.
inline void expect_same_session(const SessionResult& actual,
                                const SessionResult& reference,
                                const pfa::Alphabet& alphabet) {
  EXPECT_EQ(actual.stats.ticks, reference.stats.ticks);
  EXPECT_EQ(actual.outcome, reference.outcome);
  EXPECT_EQ(actual.stats.commands_issued, reference.stats.commands_issued);
  EXPECT_EQ(actual.stats.commands_acked, reference.stats.commands_acked);
  EXPECT_EQ(actual.stats.commands_failed, reference.stats.commands_failed);
  EXPECT_EQ(actual.stats.kernel_service_calls,
            reference.stats.kernel_service_calls);
  EXPECT_EQ(actual.stats.context_switches, reference.stats.context_switches);
  EXPECT_EQ(actual.stats.gc_runs, reference.stats.gc_runs);
  ASSERT_EQ(actual.report.has_value(), reference.report.has_value());
  if (actual.report) {
    expect_same_report(*actual.report, *reference.report, alphabet);
  }
}

}  // namespace ptest::core
