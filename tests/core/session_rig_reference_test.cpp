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
//
// Reports circulate too: the rig copies each report's head into the
// report the caller's result already holds, and complete_report() fills
// the body on request.  The buffer-reuse cases run one kept result
// through sessions of every report shape, checking each head's body
// empty and then the completed report field by field against fresh
// sessions, so a field a filing fails to overwrite shows as a leftover
// of a longer earlier report; and they check that campaigns, whose
// batch fold completes and takes a report only for a new signature,
// keep exactly the reports a by-value loop keeps.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/reference_session.hpp"
#include "ptest/core/campaign.hpp"
#include "ptest/guided/refiner.hpp"
#include "ptest/pattern/coverage.hpp"
#include "ptest/scenario/golden.hpp"

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

/// Runs one session of `plan` on `rig` and on a fresh TestSession and
/// expects them equal; returns the reused run.
Observed check_session(const CompiledTestPlan& plan, SessionRig& rig,
                       std::uint64_t seed, const WorkloadSetup& setup,
                       pfa::WalkScratch& scratch) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const AdaptiveTestResult generated = generate_and_merge(plan, seed, scratch);
  const Observed fresh = run_fresh(plan, seed, generated, setup);
  Observed reused = run_reused(rig, seed, generated, setup);
  expect_same_session(reused.result, fresh.result, plan.alphabet);
  EXPECT_EQ(reused.fingerprint, fresh.fingerprint);
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
  for_each_catalog_variant([&](const CatalogVariant& variant) {
    sweep_variant(variant.label, variant.config, variant.setup, totals);
  });
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

// --- refined plans on the base plan's rig ----------------------------------

TEST(SessionRigReferenceTest, RefinedPlanSessionsOnTheBaseRigMatchFreshSessions) {
  // A guided campaign keeps one rig per participant, built from the base
  // plan, and runs every epoch's refined plan on it: refinement moves
  // only probabilities, so config and alphabet stay the base plan's.
  // Per variant, two refined plans (one refined against nothing covered,
  // one against what the first plan's sessions covered) run through
  // execute() on that one rig into one kept result, each session's report
  // completed on the rig and checked against a fresh TestSession wired on
  // the refined plan itself.
  constexpr std::uint64_t kSeeds = 8;
  const guided::PlanRefiner refiner(guided::RefinerOptions{});
  std::size_t variants = 0;
  std::size_t sessions = 0;
  std::size_t bugs = 0;
  std::size_t moved = 0;  // sessions whose refined draw left the base's
  for_each_catalog_variant([&](const CatalogVariant& variant) {
    SCOPED_TRACE(variant.label);
    const CompiledTestPlanPtr base = compile(variant.config);
    SessionRig rig(base->config, base->alphabet);
    pfa::WalkScratch scratch;
    AdaptiveTestResult kept;
    pattern::CoverageTracker covered(base->pfa);
    CompiledTestPlanPtr plan =
        compile_with_spec(base->config, refiner.refine(*base, {}));
    for (std::uint64_t refinement = 0; refinement < 2; ++refinement) {
      SCOPED_TRACE("refinement " + std::to_string(refinement));
      for (std::uint64_t i = 0; i < kSeeds; ++i) {
        const std::uint64_t seed = support::derive_seed(
            variant.config.seed, refinement * kSeeds + i);
        SCOPED_TRACE("seed " + std::to_string(seed));
        execute(*plan, seed, variant.setup, scratch, rig, kept);
        if (kept.session.report) rig.complete_report(*kept.session.report);
        const std::uint64_t fingerprint = scenario::trace_fingerprint(
            kept.session, kept.merged, rig.soc().trace());
        const AdaptiveTestResult generated =
            generate_and_merge(*plan, seed, scratch);
        const Observed fresh = run_fresh(*plan, seed, generated, variant.setup);
        EXPECT_EQ(kept.merged.elements, generated.merged.elements);
        expect_same_session(kept.session, fresh.result, plan->alphabet);
        EXPECT_EQ(fingerprint, fresh.fingerprint);
        for (const pattern::TestPattern& sampled : kept.patterns) {
          covered.observe(sampled);
        }
        ++sessions;
        if (kept.session.report) ++bugs;
        if (generate_and_merge(*base, seed, scratch).merged.elements !=
            generated.merged.elements) {
          ++moved;
        }
      }
      plan = compile_with_spec(
          base->config, refiner.refine(*base, covered.transitions_seen()));
    }
    ++variants;
  });
  EXPECT_EQ(variants, 27u);
  EXPECT_EQ(sessions, 27u * 2 * kSeeds);
  EXPECT_GT(bugs, 0u);
  EXPECT_GT(moved, sessions / 4);
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

// --- buffer reuse ----------------------------------------------------------------

/// One rig per variant, all sharing a single kept result and scratch, as
/// a campaign participant shares its slot's result across its arms' rigs.
struct Circulated {
  Circulated(const PtestConfig& config, WorkloadSetup workload)
      : plan(compile(config)),
        setup(std::move(workload)),
        rig(std::make_unique<SessionRig>(plan->config, plan->alphabet)) {}

  CompiledTestPlanPtr plan;
  WorkloadSetup setup;
  std::unique_ptr<SessionRig> rig;
};

TEST(SessionRigReferenceTest, OneKeptResultMatchesFreshSessionsOfEveryShape) {
  // Between them these variants crash, deadlock with mutexes held and
  // waited on, do not terminate, starve, pass, and (barrier-reuse cut at
  // 40 ticks) hit the tick limit.  Each kept report is checked as a head,
  // then completed on its rig and checked against the fresh session's.
  std::vector<Circulated> variants;
  for (const char* name : {"aba-stack", "philosophers-deadlock",
                           "fig1-livelock", "writer-starvation",
                           "deadlock-pair"}) {
    const scenario::Scenario& entry = scenario_named(name);
    variants.emplace_back(entry.config, entry.setup);
  }
  {
    const scenario::Scenario& entry = scenario_named("barrier-reuse");
    PtestConfig cut = entry.config;
    cut.max_ticks = 40;
    variants.emplace_back(cut, entry.setup);
  }

  constexpr std::size_t kSeeds = 24;
  std::vector<std::pair<std::size_t, std::uint64_t>> order;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    for (std::uint64_t run = 0; run < kSeeds; ++run) order.emplace_back(v, run);
  }
  support::Rng rng(0xb0ffe5);
  rng.shuffle(order);

  AdaptiveTestResult kept;
  pfa::WalkScratch scratch;
  std::set<Outcome> outcomes;
  std::set<BugKind> kinds;
  std::size_t reports_with_holds = 0;
  std::size_t taken = 0;
  for (const auto& [v, run] : order) {
    Circulated& variant = variants[v];
    const CompiledTestPlan& plan = *variant.plan;
    const std::uint64_t seed = support::derive_seed(plan.config.seed, run);
    SCOPED_TRACE(plan.config.program_id);
    SCOPED_TRACE("seed " + std::to_string(seed));
    execute(plan, seed, variant.setup, scratch, *variant.rig, kept);
    const AdaptiveTestResult generated =
        generate_and_merge(plan, seed, scratch);
    const Observed fresh = run_fresh(plan, seed, generated, variant.setup);
    EXPECT_EQ(kept.patterns.size(), generated.patterns.size());
    for (std::size_t i = 0; i < generated.patterns.size(); ++i) {
      EXPECT_EQ(kept.patterns[i].symbols, generated.patterns[i].symbols);
      EXPECT_EQ(kept.patterns[i].edges, generated.patterns[i].edges);
    }
    EXPECT_EQ(kept.merged.elements, generated.merged.elements);
    EXPECT_EQ(kept.session.outcome, fresh.result.outcome);
    EXPECT_EQ(kept.session.stats.ticks, fresh.result.stats.ticks);
    ASSERT_EQ(kept.session.report.has_value(),
              fresh.result.report.has_value());
    outcomes.insert(kept.session.outcome);
    if (!kept.session.report) continue;
    BugReport& report = *kept.session.report;
    // A kept result gets the head, with an empty body however much the
    // buffers it reuses held, and the completed report's signature.
    const BugReport& completed = *fresh.result.report;
    EXPECT_EQ(report.signature(), completed.signature());
    EXPECT_EQ(report.kernel.panic_reason, completed.kernel.panic_reason);
    EXPECT_EQ(report.seed, seed);
    EXPECT_TRUE(report.kernel.tasks.empty());
    EXPECT_EQ(report.kernel.tick, 0u);
    EXPECT_EQ(report.kernel.live_tasks, 0u);
    EXPECT_EQ(report.kernel.service_calls, 0u);
    EXPECT_EQ(report.kernel.heap.total_allocs, 0u);
    EXPECT_TRUE(report.state_records.empty());
    EXPECT_TRUE(report.trace_tail.empty());
    EXPECT_TRUE(report.merged.elements.empty());
    variant.rig->complete_report(report);
    expect_same_report(report, completed, plan.alphabet);
    kinds.insert(report.kind);
    for (const pcore::TaskSnapshot& task : report.kernel.tasks) {
      if (!task.holds.empty() && task.waiting_on) {
        ++reports_with_holds;
        break;
      }
    }
    // As the batch fold does: a new signature takes the report out, a
    // repeat leaves it for the next session to recycle.
    if (rng.below(4) == 0) {
      const BugReport moved = std::move(*kept.session.report);
      kept.session.report.reset();
      ++taken;
    }
  }
  EXPECT_TRUE(outcomes.count(Outcome::kPassed));
  EXPECT_TRUE(outcomes.count(Outcome::kTickLimit));
  for (const BugKind kind : {BugKind::kSlaveCrash, BugKind::kDeadlock,
                             BugKind::kNoTermination, BugKind::kStarvation}) {
    EXPECT_TRUE(kinds.count(kind)) << to_string(kind);
  }
  EXPECT_GT(reports_with_holds, 0u);
  EXPECT_GT(taken, 0u);
}

TEST(SessionRigReferenceTest, CampaignFailuresMatchAByValueExecuteLoop) {
  // Every catalog variant: the distinct failures a campaign's
  // SessionBatchRunner keeps (the lowest run index per signature, its
  // body completed on the rig only for a new signature) equal the report
  // a by-value execute of that run index files, key and every field, at
  // jobs=1 and jobs=3.
  constexpr std::size_t kBudget = 24;
  std::size_t variants = 0;
  std::size_t failures = 0;
  for_each_catalog_variant([&](const CatalogVariant& variant) {
    SCOPED_TRACE(variant.label);
    const PtestConfig& config = variant.config;
    const WorkloadSetup& setup = variant.setup;
    const CompiledTestPlanPtr plan = compile(config);
    pfa::WalkScratch scratch;
    std::map<std::string, BugReport> expected;
    for (std::size_t run = 0; run < kBudget; ++run) {
      AdaptiveTestResult result = execute(
          *plan, support::derive_seed(config.seed, run), setup, scratch);
      if (result.session.outcome == Outcome::kBug && result.session.report) {
        expected.try_emplace(result.session.report->signature(),
                             std::move(*result.session.report));
      }
    }
    for (const std::size_t jobs : {1u, 3u}) {
      SCOPED_TRACE("jobs " + std::to_string(jobs));
      CampaignOptions options;
      options.budget = kBudget;
      options.jobs = jobs;
      const auto campaign =
          Campaign::run_scenario(variant.entry.name, options, variant.benign);
      ASSERT_TRUE(campaign) << campaign.error();
      const auto& kept = campaign.value().distinct_failures;
      ASSERT_EQ(kept.size(), expected.size());
      auto b = expected.cbegin();
      for (auto a = kept.cbegin(); a != kept.cend(); ++a, ++b) {
        EXPECT_EQ(a->first, b->first);
        expect_same_report(a->second, b->second, plan->alphabet);
      }
    }
    failures += expected.size();
    ++variants;
  });
  EXPECT_EQ(variants, 27u);
  EXPECT_GT(failures, 0u);
}

}  // namespace
}  // namespace ptest::core
