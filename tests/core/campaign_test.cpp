#include "ptest/core/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ptest/support/worker_pool.hpp"
#include "ptest/workload/philosophers.hpp"
#include "ptest/workload/quicksort.hpp"

namespace ptest::core {
namespace {

const char* kSuspendHeavy =
    "TC -> TS = 0.8; TC -> TCH = 0.1; TC -> TD = 0.05; TC -> TY = 0.05;"
    "TCH -> TS = 0.8; TCH -> TCH = 0.1; TCH -> TD = 0.05; TCH -> TY = 0.05;"
    "TS -> TR = 1.0;"
    "TR -> TS = 0.8; TR -> TCH = 0.1; TR -> TD = 0.05; TR -> TY = 0.05";

PtestConfig philosopher_config() {
  PtestConfig config;
  config.n = 3;
  config.s = 10;
  config.program_id = workload::kPhilosopherProgramId;
  config.max_ticks = 100000;
  config.command_spacing = 12;
  return config;
}

WorkloadSetup buggy_setup() {
  return [](pcore::PcoreKernel& kernel) {
    (void)workload::register_philosophers(kernel, /*buggy=*/true,
                                          /*meals=*/500);
  };
}

TEST(CampaignTest, RejectsEmptyArmList) {
  EXPECT_THROW(Campaign(PtestConfig{}, {}, nullptr), std::invalid_argument);
}

TEST(CampaignTest, WarmupCoversEveryArm) {
  std::vector<CampaignArm> arms{
      {"sequential", pattern::MergeOp::kSequential, ""},
      {"round-robin", pattern::MergeOp::kRoundRobin, ""},
      {"cyclic", pattern::MergeOp::kCyclic, ""},
  };
  CampaignOptions options;
  options.budget = 9;
  options.warmup_per_arm = 3;
  Campaign campaign(philosopher_config(), arms, buggy_setup(), options);
  const CampaignResult result = campaign.run();
  EXPECT_EQ(result.total_runs, 9u);
  for (const ArmStats& stats : result.arm_stats) {
    EXPECT_EQ(stats.runs, 3u);
  }
}

TEST(CampaignTest, AllocatesBudgetTowardDetectingArm) {
  // Arm 0 can never detect (sequential, terminate-heavy would be even
  // stronger); arm 1 detects with good probability (round-robin,
  // suspend-heavy).  After warm-up the policy must favour arm 1.
  std::vector<CampaignArm> arms{
      {"cold", pattern::MergeOp::kSequential, ""},
      {"hot", pattern::MergeOp::kRoundRobin, kSuspendHeavy},
  };
  CampaignOptions options;
  options.budget = 40;
  options.warmup_per_arm = 4;
  options.epsilon = 0.1;
  options.target = BugKind::kDeadlock;
  Campaign campaign(philosopher_config(), arms, buggy_setup(), options);
  const CampaignResult result = campaign.run();
  EXPECT_EQ(result.total_runs, 40u);
  EXPECT_GT(result.total_detections, 0u);
  EXPECT_EQ(result.best_arm, 1u);
  EXPECT_GT(result.arm_stats[1].runs, result.arm_stats[0].runs * 2);
  EXPECT_EQ(result.arm_stats[0].detections, 0u);
  // Reports for distinct signatures are retained and replayable.
  EXPECT_FALSE(result.distinct_failures.empty());
  for (const auto& [signature, report] : result.distinct_failures) {
    EXPECT_EQ(report.kind, BugKind::kDeadlock);
    EXPECT_FALSE(report.merged.empty());
  }
}

TEST(CampaignTest, DeterministicAcrossRuns) {
  std::vector<CampaignArm> arms{
      {"a", pattern::MergeOp::kRoundRobin, ""},
      {"b", pattern::MergeOp::kCyclic, ""},
  };
  CampaignOptions options;
  options.budget = 12;
  Campaign first(philosopher_config(), arms, buggy_setup(), options);
  Campaign second(philosopher_config(), arms, buggy_setup(), options);
  const CampaignResult r1 = first.run();
  const CampaignResult r2 = second.run();
  EXPECT_EQ(r1.total_detections, r2.total_detections);
  for (std::size_t i = 0; i < arms.size(); ++i) {
    EXPECT_EQ(r1.arm_stats[i].runs, r2.arm_stats[i].runs);
    EXPECT_EQ(r1.arm_stats[i].detections, r2.arm_stats[i].detections);
  }
}

/// `same_plan_path` = both runs compiled the same way (precompile on or
/// off alike); see the metrics comparison below.
void expect_identical(const CampaignResult& a, const CampaignResult& b,
                      bool same_plan_path = true) {
  EXPECT_EQ(a.total_runs, b.total_runs);
  EXPECT_EQ(a.total_detections, b.total_detections);
  EXPECT_EQ(a.best_arm, b.best_arm);
  ASSERT_EQ(a.arm_stats.size(), b.arm_stats.size());
  for (std::size_t i = 0; i < a.arm_stats.size(); ++i) {
    EXPECT_EQ(a.arm_stats[i].runs, b.arm_stats[i].runs) << "arm " << i;
    EXPECT_EQ(a.arm_stats[i].detections, b.arm_stats[i].detections)
        << "arm " << i;
  }
  ASSERT_EQ(a.distinct_failures.size(), b.distinct_failures.size());
  auto it = b.distinct_failures.begin();
  for (const auto& [signature, report] : a.distinct_failures) {
    EXPECT_EQ(signature, it->first);
    EXPECT_EQ(report.kind, it->second.kind);
    EXPECT_EQ(report.signature(), it->second.signature());
    ++it;
  }
  // Every deterministic work counter is part of the identity too.
  support::MetricsSnapshot ma = a.metrics;
  support::MetricsSnapshot mb = b.metrics;
  if (!same_plan_path) {
    // The compile-per-run path counts a compile per session instead of
    // a cache hit, and tracks no coverage (it has no shared PFA to
    // replay patterns against), so only those rows may differ.
    for (support::MetricsSnapshot* m : {&ma, &mb}) {
      m->plan_cache_hits = m->plan_compiles = 0;
      m->pfa_states = m->pfa_states_covered = 0;
      m->pfa_transitions = m->pfa_transitions_covered = 0;
      m->pfa_ngrams = 0;
    }
  }
  EXPECT_EQ(support::work_difference(ma, mb), "");
  if (same_plan_path) {
    EXPECT_EQ(a.arm_coverage_state, b.arm_coverage_state);
  }
}

// The core contract of the parallel runner: same seed => bit-identical
// CampaignResult (arm stats and distinct-failure signatures) no matter
// how many worker threads execute the sessions.
TEST(CampaignTest, SerialAndParallelRunsAreBitIdentical) {
  std::vector<CampaignArm> arms{
      {"cold", pattern::MergeOp::kSequential, ""},
      {"hot", pattern::MergeOp::kRoundRobin, kSuspendHeavy},
  };
  CampaignOptions serial_options;
  serial_options.budget = 24;
  serial_options.warmup_per_arm = 2;
  serial_options.target = BugKind::kDeadlock;
  serial_options.jobs = 1;
  CampaignOptions parallel_options = serial_options;
  parallel_options.jobs = 4;

  Campaign serial(philosopher_config(), arms, buggy_setup(), serial_options);
  Campaign parallel(philosopher_config(), arms, buggy_setup(),
                    parallel_options);
  const CampaignResult serial_result = serial.run();
  const CampaignResult parallel_result = parallel.run();
  EXPECT_EQ(serial_result.total_runs, 24u);
  expect_identical(serial_result, parallel_result);
}

// The plan cache must be invisible in the results: for the same seed,
// every (jobs, precompile) combination — serial or 4 workers, compile
// the arm plans once up front or rebuild the pipeline per session —
// yields a byte-identical CampaignResult.
TEST(CampaignTest, PlanCacheAndJobsCombinationsAreBitIdentical) {
  std::vector<CampaignArm> arms{
      {"cold", pattern::MergeOp::kSequential, ""},
      {"hot", pattern::MergeOp::kRoundRobin, kSuspendHeavy},
  };
  CampaignOptions reference_options;
  reference_options.budget = 24;
  reference_options.warmup_per_arm = 2;
  reference_options.target = BugKind::kDeadlock;
  reference_options.jobs = 1;
  reference_options.precompile = false;  // legacy compile-per-run, serial
  Campaign reference(philosopher_config(), arms, buggy_setup(),
                     reference_options);
  const CampaignResult reference_result = reference.run();
  EXPECT_EQ(reference_result.total_runs, 24u);
  // The scenario must actually detect something, or the comparison is
  // vacuous.
  EXPECT_GT(reference_result.total_detections, 0u);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    for (const bool precompile : {false, true}) {
      CampaignOptions options = reference_options;
      options.jobs = jobs;
      options.precompile = precompile;
      Campaign campaign(philosopher_config(), arms, buggy_setup(), options);
      const CampaignResult result = campaign.run();
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " precompile=" + (precompile ? "on" : "off"));
      expect_identical(reference_result, result,
                       precompile == reference_options.precompile);
    }
  }
}

// compile() + execute() must reproduce the one-shot adaptive_test()
// exactly — same patterns, same merged schedule, same session outcome —
// and a plan compiled once must give the same answer for every seed a
// fresh compile would.
TEST(CampaignTest, CompiledPlanExecuteMatchesOneShotAdaptiveTest) {
  PtestConfig config = philosopher_config();
  config.distributions = kSuspendHeavy;
  const CompiledTestPlanPtr plan = compile(config);
  for (std::uint64_t seed : {1ULL, 99ULL, 0xfeedULL}) {
    config.seed = seed;
    pfa::Alphabet alphabet;
    const AdaptiveTestResult one_shot =
        adaptive_test(config, alphabet, buggy_setup());
    const AdaptiveTestResult planned = execute(*plan, seed, buggy_setup());
    ASSERT_EQ(one_shot.patterns.size(), planned.patterns.size());
    for (std::size_t i = 0; i < one_shot.patterns.size(); ++i) {
      EXPECT_EQ(one_shot.patterns[i].symbols, planned.patterns[i].symbols);
    }
    EXPECT_EQ(one_shot.merged.elements, planned.merged.elements);
    EXPECT_EQ(one_shot.session.outcome, planned.session.outcome);
    EXPECT_EQ(one_shot.session.stats.ticks, planned.session.stats.ticks);
    EXPECT_EQ(one_shot.session.stats.commands_issued,
              planned.session.stats.commands_issued);
    ASSERT_EQ(one_shot.session.report.has_value(),
              planned.session.report.has_value());
    if (one_shot.session.report) {
      EXPECT_EQ(one_shot.session.report->signature(),
                planned.session.report->signature());
    }
  }
}

TEST(CampaignTest, JobsZeroResolvesToHardwareConcurrency) {
  std::vector<CampaignArm> arms{{"rr", pattern::MergeOp::kRoundRobin, ""}};
  CampaignOptions serial_options;
  serial_options.budget = 6;
  serial_options.jobs = 1;
  CampaignOptions auto_options = serial_options;
  auto_options.jobs = 0;  // hardware concurrency, whatever it is
  Campaign serial(philosopher_config(), arms, buggy_setup(), serial_options);
  Campaign autos(philosopher_config(), arms, buggy_setup(), auto_options);
  const CampaignResult serial_result = serial.run();
  const CampaignResult auto_result = autos.run();
  expect_identical(serial_result, auto_result);
}

TEST(CampaignTest, SyncIntervalIsPartOfTheScheduleIdentity) {
  // Unlike jobs, sync_interval legitimately changes which arm each run
  // draws — but for a fixed interval the run counts must still be
  // reproducible.
  std::vector<CampaignArm> arms{
      {"a", pattern::MergeOp::kRoundRobin, ""},
      {"b", pattern::MergeOp::kCyclic, ""},
  };
  CampaignOptions options;
  options.budget = 12;
  options.sync_interval = 3;
  Campaign first(philosopher_config(), arms, buggy_setup(), options);
  Campaign second(philosopher_config(), arms, buggy_setup(), options);
  expect_identical(first.run(), second.run());
}

TEST(WorkerPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  support::WorkerPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::vector<std::atomic<int>> hits(101);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(WorkerPoolTest, ParallelForHandlesEmptyAndTiny) {
  support::WorkerPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 1);
}

TEST(WorkerPoolTest, ParallelForPropagatesExceptions) {
  support::WorkerPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(32,
                        [&](std::size_t i) {
                          if (i == 7) throw std::runtime_error("boom");
                          ++completed;
                        }),
      std::runtime_error);
  // The index space still drains: everything but the thrower completed.
  EXPECT_EQ(completed.load(), 31);
}

TEST(WorkerPoolTest, SubmitAndWaitIdleDrainTheQueue) {
  support::WorkerPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) pool.submit([&] { ++done; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 16);
}

TEST(WorkerPoolTest, WaitsThatOutlastTheSpinParkAndWake) {
  // Waits spin for a bounded time, then park.  Work that arrives long
  // after the spin still reaches the parked worker, and the idle counter
  // covers the whole wait, spin and park.
  support::WorkerPool pool(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::atomic<int> done{0};
  pool.submit([&] { ++done; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 1);
  EXPECT_GE(pool.idle_nanos(), 5'000'000u);

  // The caller finishes its index first and waits on the helper's slow
  // one past the spin, so it parks and must be woken.
  std::atomic<bool> helper_started{false};
  std::atomic<int> calls{0};
  pool.parallel_for(2, [&](std::size_t participant, std::size_t) {
    ++calls;
    if (participant == 0) {
      while (!helper_started.load()) std::this_thread::yield();
    } else {
      helper_started = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  EXPECT_EQ(calls.load(), 2);
}

TEST(CampaignTest, CleanWorkloadYieldsNoDetections) {
  PtestConfig config;
  config.n = 4;
  config.s = 6;
  config.program_id = workload::kQuicksortProgramId;
  std::vector<CampaignArm> arms{
      {"rr", pattern::MergeOp::kRoundRobin, ""},
      {"cyc", pattern::MergeOp::kCyclic, ""},
  };
  CampaignOptions options;
  options.budget = 8;
  Campaign campaign(config, arms, workload::register_quicksort, options);
  const CampaignResult result = campaign.run();
  EXPECT_EQ(result.total_detections, 0u);
  EXPECT_TRUE(result.distinct_failures.empty());
}

TEST(CampaignTest, MetricsCountSessionsAndPlanCache) {
  PtestConfig config;
  config.n = 2;
  config.s = 4;
  config.program_id = workload::kQuicksortProgramId;
  std::vector<CampaignArm> arms{
      {"rr", pattern::MergeOp::kRoundRobin, ""},
      {"cyc", pattern::MergeOp::kCyclic, ""},
  };
  CampaignOptions options;
  options.budget = 8;

  Campaign cached(config, arms, workload::register_quicksort, options);
  const CampaignResult with_cache = cached.run();
  EXPECT_EQ(with_cache.metrics.sessions, 8u);
  EXPECT_EQ(with_cache.metrics.plan_cache_hits, 8u);
  EXPECT_EQ(with_cache.metrics.plan_compiles, arms.size());
  // Every session samples n patterns.
  EXPECT_EQ(with_cache.metrics.patterns_generated, 8u * config.n);
  // Dedup is off in this config, so its counters stay zero.
  EXPECT_EQ(with_cache.metrics.dedup_accepted, 0u);
  EXPECT_EQ(with_cache.metrics.dedup_rejected, 0u);
  EXPECT_GT(with_cache.metrics.wall_ns, 0u);
  EXPECT_EQ(with_cache.metrics.worker_threads, 1u);

  // Compile-per-run path: no cache hits, one compile per session.
  options.precompile = false;
  Campaign uncached(config, arms, workload::register_quicksort, options);
  const CampaignResult without_cache = uncached.run();
  EXPECT_EQ(without_cache.metrics.plan_cache_hits, 0u);
  EXPECT_EQ(without_cache.metrics.plan_compiles, 8u);
}

TEST(CampaignTest, MetricsWorkCountersIdenticalAcrossJobs) {
  PtestConfig config;
  config.n = 2;
  config.s = 4;
  config.dedup_patterns = true;
  config.program_id = workload::kQuicksortProgramId;
  std::vector<CampaignArm> arms{
      {"rr", pattern::MergeOp::kRoundRobin, ""},
  };
  CampaignOptions options;
  options.budget = 16;

  options.jobs = 1;
  const CampaignResult serial =
      Campaign(config, arms, workload::register_quicksort, options).run();
  options.jobs = 4;
  const CampaignResult parallel =
      Campaign(config, arms, workload::register_quicksort, options).run();

  // Work counters are pure functions of (seed, config); only the
  // timing counters may differ between jobs values.
  EXPECT_EQ(support::work_difference(serial.metrics, parallel.metrics), "");
  EXPECT_EQ(serial.metrics.dedup_accepted, 16u * config.n);
  EXPECT_EQ(serial.metrics.worker_threads, 1u);
  EXPECT_GT(parallel.metrics.worker_threads, 1u);
}

}  // namespace
}  // namespace ptest::core
