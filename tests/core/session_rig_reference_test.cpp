// Reuse oracle for core::SessionRig.
//
// A campaign builds one rig per (participant, plan) and loads every
// session into it, so any state a device fails to reset leaks from one
// session into the next.  This suite runs each session twice: once on a
// fresh TestSession (a rig built for that one session) and once loaded
// into a rig that already ran other sessions, and requires the two to be
// indistinguishable — stats, outcome, report signature and rendering,
// and the scenario trace fingerprint over every retained trace event.
//
// The sweep covers every catalog scenario, bug and benign variant, with
// seeds in a shuffled order so each session follows an unrelated one.
// The dirty-state cases pin the sessions that leave the most behind: a
// slave crash (panicked kernel and heap), a deadlock with queued mutex
// waiters, a run cut at the tick limit (live tasks, commands in flight,
// words in the mailboxes), and a config whose committer draws issue
// delays from the noise stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "ptest/core/adaptive_test.hpp"
#include "ptest/scenario/golden.hpp"
#include "ptest/scenario/registry.hpp"
#include "ptest/support/rng.hpp"

namespace ptest::core {
namespace {

struct Observed {
  SessionResult result;
  std::uint64_t fingerprint = 0;
};

Observed run_fresh(const CompiledTestPlan& plan, std::uint64_t seed,
                   const AdaptiveTestResult& generated,
                   const WorkloadSetup& setup) {
  PtestConfig config = plan.config;
  config.seed = seed;
  TestSession session(config, plan.alphabet, generated.merged,
                      generated.patterns, setup);
  Observed observed;
  observed.result = session.run();
  observed.fingerprint = scenario::trace_fingerprint(
      observed.result, generated.merged, session.soc().trace());
  return observed;
}

Observed run_reused(SessionRig& rig, std::uint64_t seed,
                    const AdaptiveTestResult& generated,
                    const WorkloadSetup& setup) {
  rig.load(seed, generated.merged, generated.patterns, setup);
  Observed observed;
  observed.result = rig.run();
  observed.fingerprint = scenario::trace_fingerprint(
      observed.result, generated.merged, rig.soc().trace());
  return observed;
}

void expect_same(const Observed& reused, const Observed& fresh,
                 const pfa::Alphabet& alphabet) {
  const SessionStats& a = reused.result.stats;
  const SessionStats& b = fresh.result.stats;
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.commands_issued, b.commands_issued);
  EXPECT_EQ(a.commands_acked, b.commands_acked);
  EXPECT_EQ(a.commands_failed, b.commands_failed);
  EXPECT_EQ(a.kernel_service_calls, b.kernel_service_calls);
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.gc_runs, b.gc_runs);
  EXPECT_EQ(reused.result.outcome, fresh.result.outcome);
  EXPECT_EQ(reused.fingerprint, fresh.fingerprint);
  ASSERT_EQ(reused.result.report.has_value(), fresh.result.report.has_value());
  if (!fresh.result.report) return;
  EXPECT_EQ(reused.result.report->signature(),
            fresh.result.report->signature());
  // The rendering covers the kernel snapshot, CP records, trace tail,
  // seed and merged pattern.
  EXPECT_EQ(reused.result.report->render(alphabet),
            fresh.result.report->render(alphabet));
}

/// Runs one session of `plan` on `rig` and on a fresh TestSession and
/// expects them equal; returns the reused run.
Observed check_session(const CompiledTestPlan& plan, SessionRig& rig,
                       std::uint64_t seed, const WorkloadSetup& setup,
                       pfa::WalkScratch& scratch) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const AdaptiveTestResult generated = generate_and_merge(plan, seed, scratch);
  const Observed fresh = run_fresh(plan, seed, generated, setup);
  Observed reused = run_reused(rig, seed, generated, setup);
  expect_same(reused, fresh, plan.alphabet);
  return reused;
}

constexpr std::size_t kSeedsPerVariant = 64;

struct SweepTotals {
  std::size_t variants = 0;
  std::size_t sessions = 0;
  std::size_t bugs = 0;
  std::set<Outcome> outcomes;
  std::set<BugKind> kinds;
};

void sweep_variant(const std::string& label, const PtestConfig& config,
                   const WorkloadSetup& setup, SweepTotals& totals) {
  SCOPED_TRACE(label);
  const CompiledTestPlanPtr plan = compile(config);
  SessionRig rig(plan->config, plan->alphabet);
  pfa::WalkScratch scratch;
  std::vector<std::uint64_t> runs(kSeedsPerVariant);
  std::iota(runs.begin(), runs.end(), 0);
  support::Rng order(0x5e55107 + totals.variants);
  order.shuffle(runs);
  for (const std::uint64_t run : runs) {
    const Observed reused =
        check_session(*plan, rig, support::derive_seed(config.seed, run),
                      setup, scratch);
    ++totals.sessions;
    totals.outcomes.insert(reused.result.outcome);
    if (reused.result.report) {
      ++totals.bugs;
      totals.kinds.insert(reused.result.report->kind);
    }
  }
  ++totals.variants;
}

TEST(SessionRigReferenceTest, ShuffledCatalogSweepMatchesFreshSessions) {
  SweepTotals totals;
  for (const scenario::Scenario& entry :
       scenario::ScenarioRegistry::builtin().all()) {
    sweep_variant(entry.name, entry.config, entry.setup, totals);
    if (entry.has_benign()) {
      sweep_variant(entry.name + " (benign)", entry.benign_plan(),
                    entry.benign_workload(), totals);
    }
  }
  EXPECT_EQ(totals.variants, 27u);
  EXPECT_EQ(totals.sessions, 27u * kSeedsPerVariant);
  // The sweep must reuse rigs after bugs, not just after clean passes.
  EXPECT_GT(totals.bugs, totals.sessions / 4);
  EXPECT_TRUE(totals.outcomes.count(Outcome::kPassed));
  for (const BugKind kind : {BugKind::kSlaveCrash, BugKind::kDeadlock,
                             BugKind::kNoTermination, BugKind::kStarvation}) {
    EXPECT_TRUE(totals.kinds.count(kind)) << to_string(kind);
  }
}

// --- dirty-state cases ---------------------------------------------------------

/// A scenario's plan with a rig, a scratch and a seed counter.
struct DirtyRig {
  DirtyRig(const PtestConfig& config, WorkloadSetup workload)
      : plan(compile(config)),
        setup(std::move(workload)),
        rig(plan->config, plan->alphabet) {}

  /// Runs seeds on the rig (each checked against a fresh session) until
  /// `dirty` holds of the rig right after a run; false if none of
  /// `attempts` seeds gets there.
  template <typename Predicate>
  bool dirty_until(Predicate dirty, std::size_t attempts = 64) {
    for (std::size_t i = 0; i < attempts; ++i) {
      const Observed reused = check_session(
          *plan, rig, support::derive_seed(plan->config.seed, next++), setup,
          scratch);
      if (dirty(reused.result, rig)) return true;
    }
    return false;
  }

  /// The sessions that follow a dirty one must each equal a fresh run.
  void expect_clean_followers(std::size_t count = 8) {
    for (std::size_t i = 0; i < count; ++i) {
      (void)check_session(*plan, rig,
                          support::derive_seed(plan->config.seed, next++),
                          setup, scratch);
    }
  }

  CompiledTestPlanPtr plan;
  WorkloadSetup setup;
  SessionRig rig;
  pfa::WalkScratch scratch;
  std::uint64_t next = 0;
};

const scenario::Scenario& scenario_named(const char* name) {
  const scenario::Scenario* entry =
      scenario::ScenarioRegistry::builtin().find(name);
  if (entry == nullptr) throw std::logic_error(name);
  return *entry;
}

TEST(SessionRigReferenceTest, SessionAfterASlaveCrashEqualsAFreshOne) {
  const scenario::Scenario& entry = scenario_named("aba-stack");
  DirtyRig dirty(entry.config, entry.setup);
  ASSERT_TRUE(dirty.dirty_until([](const SessionResult& result,
                                   SessionRig& rig) {
    return result.report && result.report->kind == BugKind::kSlaveCrash &&
           rig.kernel().panicked();
  }));
  dirty.expect_clean_followers();
}

TEST(SessionRigReferenceTest, SessionAfterADeadlockWithQueuedWaitersEqualsAFreshOne) {
  const scenario::Scenario& entry = scenario_named("philosophers-deadlock");
  DirtyRig dirty(entry.config, entry.setup);
  ASSERT_TRUE(dirty.dirty_until([](const SessionResult& result,
                                   SessionRig& rig) {
    if (!result.report || result.report->kind != BugKind::kDeadlock) {
      return false;
    }
    for (pcore::MutexId id = 0; id < pcore::kMaxMutexes; ++id) {
      if (!rig.kernel().mutex(id).waiters.empty()) return true;
    }
    return false;
  }));
  dirty.expect_clean_followers();
}

TEST(SessionRigReferenceTest, SessionAfterATickLimitRunEqualsAFreshOne) {
  // Cut long sessions early: tasks stay live, commands stay in flight.
  const scenario::Scenario& entry = scenario_named("barrier-reuse");
  PtestConfig config = entry.config;
  config.max_ticks = 40;
  DirtyRig dirty(config, entry.setup);
  ASSERT_TRUE(dirty.dirty_until([](const SessionResult& result,
                                   SessionRig& rig) {
    return result.outcome == Outcome::kTickLimit &&
           rig.kernel().live_task_count() > 0 &&
           !rig.committer().outstanding().empty();
  }));
  dirty.expect_clean_followers();
}

TEST(SessionRigReferenceTest, NoisyCommitterSessionsEqualFreshOnes) {
  // The committer draws every issue delay from the rig's noise stream,
  // which load() must reseed from each session's seed.
  const scenario::Scenario& entry = scenario_named("queue-order");
  PtestConfig config = entry.config;
  config.noise_max_delay = 5;
  DirtyRig noisy(config, entry.setup);
  DirtyRig quiet(entry.config, entry.setup);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    const std::uint64_t seed = support::derive_seed(config.seed, i);
    const Observed with_noise = check_session(*noisy.plan, noisy.rig, seed,
                                              noisy.setup, noisy.scratch);
    const Observed without = check_session(*quiet.plan, quiet.rig, seed,
                                           quiet.setup, quiet.scratch);
    moved += with_noise.result.stats.ticks != without.result.stats.ticks;
  }
  // The noise really delayed commands.
  EXPECT_GT(moved, 0u);
}

}  // namespace
}  // namespace ptest::core
