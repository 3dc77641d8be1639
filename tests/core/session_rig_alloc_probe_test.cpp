// Allocation probe for the reusable session rig: a global operator-new
// hook counts allocations, and the suite asserts the rig's steady state.
// After a warm-up, generate_and_merge into a kept result through the
// rig's kept merger allocates nothing on any catalog scenario, with
// dedup off or on: each slot and the merged pattern were sized for the
// longest walk and merge the plan allows.  SessionRig::load allocates
// nothing on any catalog scenario: every device resets into the buffers
// the earlier sessions grew, and the workload setup re-registers its
// programs into the
// registry's kept capacity.  A whole short session (load plus run) stays
// within a small budget, which is what a report completed into a fresh
// result costs.  A warm campaign session (generate, merge, load, run and
// the batch fold, on kept buffers) allocates nothing: a repeat
// signature's head reuses the kept report, and the task frames reuse the
// kernel's frame pool, so a 400-session batch allocates only its fixed
// overhead.  A warm task_create allocates nothing.  A warm Soc::reset
// followed by idle ticks allocates nothing.
//
// The hook is process-global, so this suite lives in its own test
// binary: mixing it into another suite would tax every test with the
// counter and make the numbers meaningless.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>

#include "core/reference_session.hpp"
#include "ptest/core/session_batch.hpp"

namespace {
std::atomic<std::uint64_t> g_calls{0};
}  // namespace

void* operator new(std::size_t size) {
  g_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ptest::core {
namespace {

std::uint64_t calls() { return g_calls.load(std::memory_order_relaxed); }

constexpr std::size_t kWarmup = 50;
constexpr std::size_t kMeasured = 200;

struct Probe {
  std::uint64_t load_calls = 0;
  std::uint64_t session_calls = 0;  // load + run
};

/// Warms one rig up on `config`'s plan, then counts what kMeasured more
/// sessions allocate in load() and in load() plus run().
Probe probe(const PtestConfig& config, const WorkloadSetup& setup) {
  const CompiledTestPlanPtr plan = compile(config);
  pfa::WalkScratch scratch;
  SessionRig rig(plan->config, plan->alphabet);
  for (std::size_t run = 0; run < kWarmup; ++run) {
    AdaptiveTestResult warm;
    execute(*plan, support::derive_seed(config.seed, run), setup, scratch,
            rig, warm);
  }
  Probe totals;
  for (std::size_t run = kWarmup; run < kWarmup + kMeasured; ++run) {
    const std::uint64_t seed = support::derive_seed(config.seed, run);
    const AdaptiveTestResult generated =
        generate_and_merge(*plan, seed, scratch);
    const std::uint64_t before = calls();
    rig.load(seed, generated.merged, generated.patterns, setup);
    const std::uint64_t loaded = calls();
    { const SessionResult result = rig.run(); }
    totals.load_calls += loaded - before;
    totals.session_calls += calls() - before;
  }
  return totals;
}

TEST(SessionRigAllocProbe, WarmLoadAllocatesNothingOnEveryScenario) {
  std::size_t variants = 0;
  for_each_catalog_variant([&](const CatalogVariant& variant) {
    EXPECT_EQ(probe(variant.config, variant.setup).load_calls, 0u)
        << variant.label;
    ++variants;
  });
  EXPECT_EQ(variants, 27u);
}

TEST(SessionRigAllocProbe, ShortSessionsStayWithinTheirBudget) {
  // load + run averages at most this many allocations per session: the
  // buffers of a report completed into a fresh result.
  constexpr double kBudget = 12.0;
  for (const char* name : {"aba-stack", "queue-order"}) {
    const scenario::Scenario* entry =
        scenario::ScenarioRegistry::builtin().find(name);
    ASSERT_NE(entry, nullptr) << name;
    const Probe totals = probe(entry->config, entry->setup);
    const double per_session =
        static_cast<double>(totals.session_calls) / kMeasured;
    EXPECT_LE(per_session, kBudget) << name;
    RecordProperty(std::string(name) + "_allocs_per_session",
                   std::to_string(per_session));
  }
}

/// What kMeasured warm generate_and_merge calls allocate on `config`'s
/// plan, written in place into one kept result through a rig's kept
/// merger, as execute() calls it, after kWarmup calls the same way.
std::uint64_t warm_generate_calls(const PtestConfig& config) {
  const CompiledTestPlanPtr plan = compile(config);
  pfa::WalkScratch scratch;
  SessionRig rig(plan->config, plan->alphabet);
  AdaptiveTestResult kept;
  for (std::size_t run = 0; run < kWarmup; ++run) {
    generate_and_merge(*plan, support::derive_seed(config.seed, run),
                       scratch, rig.merger(), kept);
  }
  const std::uint64_t before = calls();
  for (std::size_t run = kWarmup; run < kWarmup + kMeasured; ++run) {
    generate_and_merge(*plan, support::derive_seed(config.seed, run),
                       scratch, rig.merger(), kept);
  }
  return calls() - before;
}

TEST(SessionRigAllocProbe, WarmGenerateAndMergeAllocatesNothing) {
  std::size_t variants = 0;
  for_each_catalog_variant([&](const CatalogVariant& variant) {
    EXPECT_EQ(warm_generate_calls(variant.config), 0u) << variant.label;
    // The same plan with dedup: a replica is told apart by comparing
    // symbols with the accepted slots, which allocates nothing either.
    PtestConfig dedup = variant.config;
    dedup.dedup_patterns = true;
    EXPECT_EQ(warm_generate_calls(dedup), 0u) << variant.label << " +dedup";
    ++variants;
  });
  EXPECT_EQ(variants, 27u);
}

struct BatchProbe {
  std::uint64_t allocations = 0;
  std::uint64_t task_creates = 0;  // TC elements the sessions drove
  std::size_t sessions = 0;
};

constexpr std::size_t kBatch = 400;
/// What a warm batch allocates (its sessions' task frames come from the
/// kernels' frame pools): the fold's
/// partial and batch results, and per new signature its map entries and
/// keys, the body completed for it (task list, CP records, trace tail,
/// merged pattern) and the head buffers the next bug is copied into once
/// the kept report has left with its own.  Repeats allocate nothing.
constexpr std::uint64_t kBatchOverhead = 16;

/// Runs `name`'s campaign sessions through a jobs=1 SessionBatchRunner
/// on its slot's kept rig, as Campaign does: a warm-up batch, then a
/// counted one.
BatchProbe probe_batch(const char* name) {
  const scenario::Scenario* entry =
      scenario::ScenarioRegistry::builtin().find(name);
  EXPECT_NE(entry, nullptr) << name;
  if (entry == nullptr) return {};
  const CompiledTestPlanPtr plan = compile(entry->config);
  const std::optional<pfa::SymbolId> tc = plan->alphabet.find("TC");
  EXPECT_TRUE(tc.has_value());
  SessionBatchRunner runner(1, kBatch, {plan}, nullptr);
  BatchProbe probe;
  auto body = [&](SessionBatchRunner::Slot& slot, std::size_t run) {
    execute(slot.plan(0), support::derive_seed(plan->config.seed, run),
            entry->setup, slot.scratch(), slot.rig(0), slot.out());
    for (const pattern::MergedElement& element : slot.out().merged.elements) {
      probe.task_creates += element.symbol == tc;
    }
    ++probe.sessions;
    return std::size_t{0};
  };
  (void)runner.run(0, kBatch, body);
  probe = BatchProbe{};
  const std::uint64_t before = calls();
  const SessionBatch batch = runner.run(kBatch, 2 * kBatch, body);
  probe.allocations = calls() - before;
  EXPECT_GT(batch.result.total_detections, 0u) << name;
  return probe;
}

TEST(SessionRigAllocProbe, WarmCampaignSessionsAllocateOnlyTheBatchOverhead) {
  for (const char* name : {"aba-stack", "queue-order"}) {
    const BatchProbe probe = probe_batch(name);
    ASSERT_EQ(probe.sessions, kBatch) << name;
    ASSERT_GT(probe.task_creates, kBatchOverhead) << name;
    EXPECT_LE(probe.allocations, kBatchOverhead) << name;
    RecordProperty(std::string(name) + "_campaign_allocs_per_session",
                   std::to_string(static_cast<double>(probe.allocations) /
                                  kBatch));
    RecordProperty(std::string(name) + "_task_creates_per_session",
                   std::to_string(static_cast<double>(probe.task_creates) /
                                  kBatch));
  }
}

/// What one task_create allocates on `name`'s kernel after three warm
/// create/delete cycles of the same program.
std::uint64_t warm_task_create_calls(const char* name) {
  const scenario::Scenario* entry =
      scenario::ScenarioRegistry::builtin().find(name);
  EXPECT_NE(entry, nullptr) << name;
  if (entry == nullptr) return 0;
  pcore::PcoreKernel kernel(entry->config.kernel);
  entry->setup(kernel);
  pcore::TaskId task = pcore::kInvalidTask;
  for (int cycle = 0; cycle < 3; ++cycle) {
    EXPECT_EQ(kernel.task_create(entry->config.program_id, 0, 5, task),
              pcore::Status::kOk);
    EXPECT_EQ(kernel.task_delete(task), pcore::Status::kOk);
  }
  const std::uint64_t before = calls();
  EXPECT_EQ(kernel.task_create(entry->config.program_id, 0, 5, task),
            pcore::Status::kOk);
  return calls() - before;
}

TEST(SessionRigAllocProbe, WarmTaskCreateAllocatesNothing) {
  // The factory's body is the task: no program object boxes it, and the
  // name stays a string literal however long it is ("livelock-backoff"
  // is past the small-string limit).  The heap's block table was
  // reserved for the whole working set at construction, and the
  // coroutine frame reuses the block the deleted task's frame left in
  // the kernel's frame pool.
  EXPECT_EQ(warm_task_create_calls("aba-stack"), 0u);
  EXPECT_EQ(warm_task_create_calls("livelock-backoff"), 0u);
}

TEST(SessionRigAllocProbe, WarmSocResetThenIdleTicksAllocateNothing) {
  const scenario::Scenario* entry =
      scenario::ScenarioRegistry::builtin().find("aba-stack");
  ASSERT_NE(entry, nullptr);
  const CompiledTestPlanPtr plan = compile(entry->config);
  pfa::WalkScratch scratch;
  SessionRig rig(plan->config, plan->alphabet);
  AdaptiveTestResult warm;
  execute(*plan, entry->config.seed, entry->setup, scratch, rig, warm);

  // With an empty pattern every device idles: the committer finishes at
  // once, nothing is created on the slave, and the kernel's periodic
  // collector sweeps an empty heap.  The first pass warms the collector's
  // buffers; the second, after load() resets the Soc and every device,
  // must allocate nothing.
  sim::Soc& soc = rig.soc();
  const pattern::MergedPattern empty;
  std::uint64_t made = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const std::uint64_t before = calls();
    rig.load(1, empty, {}, {});
    EXPECT_EQ(soc.now(), 0u);
    for (int i = 0; i < 1000; ++i) (void)soc.step();
    made = calls() - before;
  }
  EXPECT_EQ(made, 0u);
  EXPECT_EQ(soc.now(), 1000u);
  EXPECT_GT(rig.kernel().gc_runs(), 0u);
}

}  // namespace
}  // namespace ptest::core
