#include "ptest/core/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ptest/core/session_batch.hpp"
#include "ptest/support/fnv.hpp"
#include "ptest/support/rng.hpp"
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

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
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
    // The same report was kept, not just one with the same signature:
    // the earliest run's seed and merged schedule.
    EXPECT_EQ(report.seed, it->second.seed) << signature;
    EXPECT_EQ(report.merged.elements, it->second.merged.elements)
        << signature;
    ++it;
  }
  // Every deterministic work counter is part of the identity too.
  EXPECT_EQ(support::work_difference(a.metrics, b.metrics), "");
  EXPECT_EQ(a.arm_coverage_state, b.arm_coverage_state);
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
  // The campaign must actually detect something, or the comparison is
  // vacuous.
  EXPECT_GT(serial_result.total_detections, 0u);
  expect_identical(serial_result, parallel_result);
}

// compile() + execute() must reproduce the one-shot adaptive_test()
// exactly — same patterns, same merged schedule, same session outcome —
// and a plan compiled once must give the same answer for every seed a
// fresh compile would.  This is the reference check for the campaign's
// compiled-plan sessions: it covers both arms of
// SerialAndParallelRunsAreBitIdentical under the 24 run seeds that
// campaign derives, plus a few arbitrary seeds.
TEST(CampaignTest, CompiledPlanExecuteMatchesOneShotAdaptiveTest) {
  std::vector<std::uint64_t> seeds{1, 99, 0xfeed};
  for (std::size_t i = 0; i < 24; ++i) {
    seeds.push_back(support::derive_seed(philosopher_config().seed, i));
  }
  const std::vector<CampaignArm> arms{
      {"cold", pattern::MergeOp::kSequential, ""},
      {"hot", pattern::MergeOp::kRoundRobin, kSuspendHeavy},
  };
  std::size_t bugs = 0;
  for (const CampaignArm& arm : arms) {
    PtestConfig config = philosopher_config();
    config.op = arm.op;
    config.distributions = arm.distributions;
    const CompiledTestPlanPtr plan = compile(config);
    pfa::WalkScratch scratch;
    for (const std::uint64_t seed : seeds) {
      SCOPED_TRACE(arm.name + " seed=" + std::to_string(seed));
      config.seed = seed;
      pfa::Alphabet alphabet;
      const AdaptiveTestResult one_shot =
          adaptive_test(config, alphabet, buggy_setup());
      const AdaptiveTestResult planned =
          execute(*plan, seed, buggy_setup(), scratch);
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
        ++bugs;
        EXPECT_EQ(one_shot.session.report->signature(),
                  planned.session.report->signature());
      }
    }
  }
  // Some sessions must file a report, or that comparison is vacuous.
  EXPECT_GT(bugs, 0u);
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

// A single-arm campaign runs its whole budget as one batch, with no
// round barrier; a budget that is not a multiple of the multi-arm round
// size must still be identical for any jobs value, down to which report
// each signature kept.
TEST(CampaignTest, SingleArmBatchIsIdenticalForAnyJobs) {
  const std::vector<CampaignArm> arms{
      {"hot", pattern::MergeOp::kRoundRobin, kSuspendHeavy}};
  CampaignOptions options;
  options.budget = 37;
  options.jobs = 1;
  const CampaignResult serial =
      Campaign(philosopher_config(), arms, buggy_setup(), options).run();
  EXPECT_EQ(serial.total_runs, 37u);
  // Several sessions per signature, or "which report was kept" is
  // vacuous.
  EXPECT_GT(serial.total_detections, serial.distinct_failures.size());
  for (const std::size_t jobs : {2u, 3u, 0u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    options.jobs = jobs;
    expect_identical(
        serial,
        Campaign(philosopher_config(), arms, buggy_setup(), options).run());
  }
}

/// FNV-1a over a campaign's coverage: every arm's covered states,
/// transitions and n-grams (with their counts, so no two layouts alias)
/// and the pfa_* work rows derived from them.
std::uint64_t coverage_digest(const CampaignResult& result) {
  std::uint64_t hash = support::kFnvOffset;
  const auto fold = [&hash](std::uint64_t value) {
    hash = support::fnv1a_word(hash, value, 8);
  };
  for (const pattern::CoverageState& arm : result.arm_coverage_state) {
    fold(arm.states_total);
    fold(arm.transitions_total);
    fold(arm.states.size());
    for (const std::uint32_t state : arm.states) fold(state);
    fold(arm.transitions.size());
    for (const auto& [state, symbol] : arm.transitions) {
      fold(state);
      fold(symbol);
    }
    fold(arm.ngrams.size());
    for (const std::vector<pfa::SymbolId>& ngram : arm.ngrams) {
      fold(ngram.size());
      for (const pfa::SymbolId symbol : ngram) fold(symbol);
    }
  }
  const support::MetricsSnapshot& metrics = result.metrics;
  for (const std::uint64_t row :
       {metrics.pfa_states, metrics.pfa_states_covered, metrics.pfa_transitions,
        metrics.pfa_transitions_covered, metrics.pfa_ngrams}) {
    fold(row);
  }
  return hash;
}

// The campaign's coverage fold, pinned: the digests were recorded from
// the replaying fold (each pattern walked again through the automaton),
// so the fold from sampled edges must reproduce it exactly on short
// (aba-stack, queue-order) and long (the other three) sessions, for any
// jobs split.  aba-stack and queue-order sample the same plan shape
// from the same seed, so their digests agree.
TEST(CampaignTest, CoverageStateIsPinned) {
  const std::pair<const char*, std::uint64_t> pins[] = {
      {"aba-stack", 0x062c69b3b04c4826ULL},
      {"queue-order", 0x062c69b3b04c4826ULL},
      {"philosophers-deadlock", 0xf20bde91a69d9bc5ULL},
      {"fig1-livelock", 0x0a3359ad50e68303ULL},
      {"writer-starvation", 0x73c9d9c79871e544ULL},
  };
  // A small budget: the catalog automata saturate their states and
  // transitions within a few dozen sessions, and a pin of saturated sets
  // would miss a fold that loses only some of its visits.
  CampaignOptions options;
  options.budget = 16;
  for (const auto& [name, digest] : pins) {
    for (const std::size_t jobs : {1u, 3u}) {
      SCOPED_TRACE(std::string(name) + " jobs=" + std::to_string(jobs));
      options.jobs = jobs;
      const auto campaign = Campaign::run_scenario(name, options);
      ASSERT_TRUE(campaign) << campaign.error();
      EXPECT_GT(campaign.value().metrics.pfa_transitions_covered, 0u);
      EXPECT_EQ(coverage_digest(campaign.value()), digest)
          << std::hex << "0x" << coverage_digest(campaign.value());
    }
  }
}

// The batch fold keeps the lowest run index per signature whichever
// participant ran it.  The schedule is forced: the caller's first session
// files nothing and holds until the helper has filed three reports, and
// the helper then holds until the caller has filed one too — so the
// earliest report sits in the helper's slot and a later one in the
// caller's, and a fold that preferred either slot would keep the wrong
// report.
TEST(SessionBatchRunnerTest, KeepsTheLowestRunIndexPerSignature) {
  const CompiledTestPlanPtr plan = compile(philosopher_config());
  SessionBatchRunner runner(2, 64, {plan}, nullptr);
  ASSERT_EQ(runner.participants(), 2u);
  // The slots' rigs are never loaded, so completing a report fills an
  // empty replay body and keeps the head written below.
  std::atomic<int> helper_reports{0};
  std::atomic<int> caller_reports{0};
  std::atomic<std::size_t> lowest_reported{SIZE_MAX};
  bool caller_started = false;
  const std::size_t first = 100;
  const SessionBatch batch = runner.run(
      first, first + 64,
      [&](SessionBatchRunner::Slot& slot, std::size_t run) {
        const std::size_t participant = slot.participant();
        AdaptiveTestResult& session = slot.out();
        session = AdaptiveTestResult{};
        if (participant == 0 && !caller_started) {
          caller_started = true;
          while (helper_reports.load() < 3) std::this_thread::yield();
          return std::size_t{0};  // passes: no report
        }
        if (participant != 0 && helper_reports.load() == 3) {
          while (caller_reports.load() == 0) std::this_thread::yield();
        }
        ++(participant == 0 ? caller_reports : helper_reports);
        std::size_t lowest = lowest_reported.load();
        while (run < lowest &&
               !lowest_reported.compare_exchange_weak(lowest, run)) {
        }
        session.session.outcome = Outcome::kBug;
        session.session.report.emplace();
        session.session.report->kind = BugKind::kDeadlock;
        session.session.report->seed = run;
        return std::size_t{0};
      });
  EXPECT_EQ(batch.result.total_runs, 64u);
  EXPECT_EQ(batch.result.total_detections, 63u);
  ASSERT_EQ(batch.result.distinct_failures.size(), 1u);
  EXPECT_EQ(batch.result.distinct_failures.begin()->second.seed,
            lowest_reported.load());
  EXPECT_EQ(batch.first_detection, lowest_reported.load());
}

TEST(WorkerPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  support::WorkerPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::vector<std::atomic<int>> hits(101);
  pool.parallel_for(hits.size(),
                    [&](std::size_t, std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

// SessionBatchRunner keeps each participant's first report per signature
// as its lowest-index one, which holds only if every participant runs its
// indices in increasing order, chunked claims included.
TEST(WorkerPoolTest, EachParticipantClaimsIncreasingIndices) {
  for (const std::size_t helpers : {1u, 2u, 3u}) {
    support::WorkerPool pool(helpers);
    for (const std::size_t count :
         {1u, 2u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u, 6000u}) {
      SCOPED_TRACE("helpers=" + std::to_string(helpers) +
                   " count=" + std::to_string(count));
      std::vector<std::atomic<int>> hits(count);
      std::vector<std::vector<std::size_t>> runs(helpers + 1);
      pool.parallel_for(count, [&](std::size_t participant, std::size_t i) {
        ++hits[i];
        runs[participant].push_back(i);
      });
      for (const auto& hit : hits) ASSERT_EQ(hit.load(), 1);
      for (const std::vector<std::size_t>& indices : runs) {
        for (std::size_t k = 1; k < indices.size(); ++k) {
          ASSERT_LT(indices[k - 1], indices[k]);
        }
      }
    }
  }
}

TEST(WorkerPoolTest, ParallelForHandlesEmptyAndTiny) {
  support::WorkerPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 1);
}

TEST(WorkerPoolTest, ParallelForPropagatesExceptions) {
  support::WorkerPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(32,
                        [&](std::size_t, std::size_t i) {
                          if (i == 7) throw std::runtime_error("boom");
                          ++completed;
                        }),
      std::runtime_error);
  // The index space still drains: everything but the thrower completed.
  EXPECT_EQ(completed.load(), 31);
}

TEST(WorkerPoolTest, WaitsThatOutlastTheSpinParkAndWake) {
  // Waits spin for a bounded time, then park.  A call that arrives long
  // after the spin still reaches the parked helper, and the idle counter
  // covers the whole wait, spin and park.  Inside the same call, the
  // caller finishes its index first and waits on the helper's slow one
  // past the spin, so it parks too and must be woken.
  support::WorkerPool pool(1);
  // A first call makes sure the helper is up: its wait for the next call
  // starts before this one returns.
  pool.parallel_for(2, [](std::size_t, std::size_t) {});
  const std::uint64_t idle_before = pool.idle_nanos();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
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
  EXPECT_GE(pool.idle_nanos() - idle_before, 5'000'000u);
}

TEST(WorkerPoolTest, BackToBackCallsReuseTheTeam) {
  // Each call's state lives on the caller's stack; a helper that touched
  // it after parallel_for returned would miscount here (and trip the
  // sanitizers), as would one that joined a call twice or missed one.
  support::WorkerPool pool(2);
  for (std::size_t call = 0; call < 10'000; ++call) {
    std::atomic<int> hits[3] = {0, 0, 0};
    const std::size_t count = 1 + call % 3;
    pool.parallel_for(count,
                      [&](std::size_t, std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_EQ(hits[i].load(), i < count ? 1 : 0) << "call " << call;
    }
  }
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
  EXPECT_EQ(with_cache.metrics.plan_compiles, arms.size());
  // Every session samples n patterns.
  EXPECT_EQ(with_cache.metrics.patterns_generated, 8u * config.n);
  // Dedup is off in this config, so its counter stays zero.
  EXPECT_EQ(with_cache.metrics.dedup_rejected, 0u);
  EXPECT_GT(with_cache.metrics.wall_ns, 0u);
  EXPECT_EQ(with_cache.metrics.worker_threads, 1u);
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
  EXPECT_EQ(serial.metrics.patterns_generated, 16u * config.n);
  EXPECT_EQ(serial.metrics.worker_threads, 1u);
  EXPECT_GT(parallel.metrics.worker_threads, 1u);
}

// session_wall_hist times one session in 64, chosen by run index, so
// its count is the same for every jobs split.
TEST(CampaignTest, SessionWallHistTimesOneRunIn64) {
  PtestConfig config;
  config.n = 2;
  config.s = 4;
  config.program_id = workload::kQuicksortProgramId;
  const std::vector<CampaignArm> arms{
      {"rr", pattern::MergeOp::kRoundRobin, ""}};
  CampaignOptions options;
  options.budget = 130;  // runs 0, 64 and 128
  for (const std::size_t jobs : {1u, 3u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    options.jobs = jobs;
    const CampaignResult result =
        Campaign(config, arms, workload::register_quicksort, options).run();
    EXPECT_EQ(result.metrics.sessions, 130u);
    EXPECT_EQ(result.metrics.session_wall_hist.count(), 3u);
  }
}

// The session rig retires the master and the committee once the
// committer is done and the channel drained, and from then on runs the
// kernel alone, ticking the detector only on a kernel event or one of its
// deadlines.  Hang scenarios run almost all their ticks there, with the
// detector on at most 2% of them; crash and deadlock scenarios stop
// before the committer finishes, so they never reach it.
TEST(CampaignTest, QuietPhaseCoversHangSessionsAndNoCrashSession) {
  CampaignOptions options;
  options.budget = 32;
  for (const char* name :
       {"barrier-reuse", "fig1-livelock", "writer-starvation"}) {
    SCOPED_TRACE(name);
    const auto campaign = Campaign::run_scenario(name, options);
    ASSERT_TRUE(campaign) << campaign.error();
    const support::MetricsSnapshot& metrics = campaign.value().metrics;
    ASSERT_GT(metrics.ticks, 0u);
    EXPECT_GE(static_cast<double>(metrics.quiet_ticks) /
                  static_cast<double>(metrics.ticks),
              0.95);
    EXPECT_GT(metrics.quiet_checks, 0u);
    EXPECT_LE(static_cast<double>(metrics.quiet_checks),
              0.02 * static_cast<double>(metrics.quiet_ticks));
  }
  for (const char* name :
       {"aba-stack", "queue-order", "philosophers-deadlock"}) {
    SCOPED_TRACE(name);
    const auto campaign = Campaign::run_scenario(name, options);
    ASSERT_TRUE(campaign) << campaign.error();
    EXPECT_GT(campaign.value().metrics.ticks, 0u);
    EXPECT_EQ(campaign.value().metrics.quiet_ticks, 0u);
    EXPECT_EQ(campaign.value().metrics.quiet_checks, 0u);
  }
}

}  // namespace
}  // namespace ptest::core
