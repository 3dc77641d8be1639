// Registry mechanics and the negative paths of the scenario plumbing:
// malformed names come back as clean errors (never a throw-to-abort),
// benign requests on benign-less scenarios are rejected, and the catalog
// invariants every consumer relies on (unique names, resolvable program
// ids, pinned task names, sane metadata) hold for all built-in entries.
#include "ptest/scenario/registry.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/reference_session.hpp"
#include "ptest/core/campaign.hpp"

namespace ptest::scenario {
namespace {

TEST(ScenarioRegistryTest, BuiltinHasAtLeastTenScenarios) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  EXPECT_GE(registry.size(), 10u);
  EXPECT_EQ(registry.names().size(), registry.size());
}

TEST(ScenarioRegistryTest, NamesAreUniqueAndFindable) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  std::set<std::string> seen;
  for (const Scenario& scenario : registry.all()) {
    EXPECT_TRUE(seen.insert(scenario.name).second)
        << "duplicate name " << scenario.name;
    const Scenario* found = registry.find(scenario.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->name, scenario.name);
  }
}

TEST(ScenarioRegistryTest, FindUnknownReturnsNull) {
  EXPECT_EQ(ScenarioRegistry::builtin().find("no-such-scenario"), nullptr);
  EXPECT_EQ(ScenarioRegistry::builtin().find(""), nullptr);
}

TEST(ScenarioRegistryTest, AddRejectsDuplicatesAndEmptyNames) {
  ScenarioRegistry registry;
  Scenario scenario;
  scenario.name += "x";  // not = "x": gcc 12 -Wrestrict false positive
  registry.add(scenario);
  EXPECT_THROW(registry.add(scenario), std::invalid_argument);
  Scenario unnamed;
  EXPECT_THROW(registry.add(unnamed), std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ScenarioRegistryTest, CatalogMetadataIsComplete) {
  for (const Scenario& scenario : ScenarioRegistry::builtin().all()) {
    SCOPED_TRACE(scenario.name);
    EXPECT_FALSE(scenario.summary.empty());
    EXPECT_FALSE(scenario.oracle.description.empty());
    EXPECT_TRUE(scenario.setup != nullptr);
    EXPECT_GT(scenario.default_budget, 0u);
    // Clean scenarios have no expected kind; bug scenarios do, and every
    // bug scenario ships a benign control.
    if (scenario.category == Category::kClean) {
      EXPECT_FALSE(scenario.expects_bug());
    } else {
      EXPECT_TRUE(scenario.expects_bug());
      EXPECT_TRUE(scenario.has_benign());
    }
  }
}

TEST(ScenarioRegistryTest, SetupRegistersThePlansProgram) {
  // The plan's program_id must resolve after setup — otherwise every TC
  // command would fail with kErrBadProgram and the campaign would be
  // vacuously green.
  core::for_each_catalog_variant([](const core::CatalogVariant& variant) {
    SCOPED_TRACE(variant.label);
    pcore::PcoreKernel kernel(variant.config.kernel);
    variant.setup(kernel);
    EXPECT_TRUE(kernel.has_program(variant.config.program_id));
  });
}

/// One catalog variant's task names for args 0..n-1 of its plan, joined
/// by spaces.
std::string created_names(const core::PtestConfig& config,
                          const core::WorkloadSetup& setup) {
  pcore::PcoreKernel kernel(config.kernel);
  setup(kernel);
  for (std::uint32_t arg = 0; arg < config.n; ++arg) {
    pcore::TaskId task = pcore::kInvalidTask;
    EXPECT_EQ(kernel.task_create(config.program_id, arg, 1, task),
              pcore::Status::kOk);
  }
  std::string names;
  for (const pcore::TaskSnapshot& task : kernel.snapshot().tasks) {
    if (!names.empty()) names += ' ';
    names += task.program;
  }
  return names;
}

TEST(ScenarioRegistryTest, TaskNamesArePinnedForEveryVariant) {
  // Task names reach rendered bug reports and the fleet wire, so a change
  // here changes both.
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"quicksort-clean", "quicksort quicksort quicksort quicksort"},
      {"philosophers-deadlock", "philosopher philosopher philosopher"},
      {"philosophers-deadlock (benign)", "philosopher philosopher philosopher"},
      {"fig1-livelock", "fig1-pattern fig1-pattern"},
      {"fig1-livelock (benign)", "fig1-pattern fig1-pattern"},
      {"lost-update", "lost-update lost-update"},
      {"lost-update (benign)", "lost-update lost-update"},
      {"order-violation", "order order"},
      {"order-violation (benign)", "order order"},
      {"deadlock-pair", "opposed-lock opposed-lock"},
      {"deadlock-pair (benign)", "opposed-lock opposed-lock"},
      {"lost-wakeup", "lost-wakeup lost-wakeup"},
      {"lost-wakeup (benign)", "lost-wakeup lost-wakeup"},
      {"writer-starvation", "rw-writer rw-reader rw-reader rw-reader"},
      {"writer-starvation (benign)", "rw-writer rw-reader rw-reader rw-reader"},
      {"aba-stack", "aba-stack aba-stack"},
      {"aba-stack (benign)", "aba-stack aba-stack"},
      {"double-checked-lock", "dcl-init dcl-init dcl-init"},
      {"double-checked-lock (benign)", "dcl-init dcl-init dcl-init"},
      {"barrier-reuse", "barrier barrier barrier"},
      {"barrier-reuse (benign)", "barrier barrier barrier"},
      {"queue-order", "queue-order queue-order"},
      {"queue-order (benign)", "queue-order queue-order"},
      {"priority-inversion", "pinv-holder pinv-hog pinv-waiter"},
      {"priority-inversion (benign)", "pinv-holder pinv-hog pinv-waiter"},
      {"livelock-backoff", "livelock-backoff livelock-backoff"},
      {"livelock-backoff (benign)", "livelock-backoff livelock-backoff"},
  };
  std::vector<std::pair<std::string, std::string>> seen;
  core::for_each_catalog_variant([&](const core::CatalogVariant& variant) {
    seen.emplace_back(variant.label,
                      created_names(variant.config, variant.setup));
  });
  EXPECT_EQ(seen, expected);
}

TEST(ScenarioRegistryTest, BenignAccessorsThrowWithoutVariant) {
  Scenario scenario;
  scenario.name = "bare";
  EXPECT_FALSE(scenario.has_benign());
  EXPECT_THROW((void)scenario.benign_plan(), std::logic_error);
  EXPECT_THROW((void)scenario.benign_workload(), std::logic_error);
}

TEST(RunScenarioTest, UnknownNameIsACleanError) {
  const auto result = core::Campaign::run_scenario("no-such-scenario");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("unknown scenario"), std::string::npos);
  EXPECT_NE(result.error().find("no-such-scenario"), std::string::npos);
}

TEST(RunScenarioTest, BenignWithoutVariantIsACleanError) {
  // quicksort-clean is the control scenario and has no benign variant.
  const auto result =
      core::Campaign::run_scenario("quicksort-clean", {}, /*benign=*/true);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("no benign variant"), std::string::npos);
}

TEST(RunScenarioTest, ZeroBudgetMeansScenarioDefault) {
  const Scenario* scenario =
      ScenarioRegistry::builtin().find("quicksort-clean");
  ASSERT_NE(scenario, nullptr);
  core::CampaignOptions options;
  options.budget = 0;
  const auto result = core::Campaign::run_scenario("quicksort-clean", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().total_runs, scenario->default_budget);
}

TEST(RunScenarioTest, ExplicitBudgetAndSeedOverrideApply) {
  core::CampaignOptions options;
  options.budget = 3;
  const auto result =
      core::Campaign::run_scenario("quicksort-clean", options,
                                   /*benign=*/false, /*seed=*/1234u);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().total_runs, 3u);
}

}  // namespace
}  // namespace ptest::scenario
