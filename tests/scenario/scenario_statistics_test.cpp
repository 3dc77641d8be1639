// Statistical PFA validation, per scenario: chi-square goodness of fit of
// Pfa::sample's transition frequencies against each scenario's
// DistributionSpec.  Seeds are fixed, so every statistic is an exact
// number compared against a fixed critical value — no flaky tolerance
// bands.  A cross-fit negative control proves the statistic has the power
// to reject a genuinely different distribution.
#include "scenario/statistics.hpp"

#include <gtest/gtest.h>

#include "ptest/scenario/registry.hpp"

namespace ptest::scenario {
namespace {

constexpr std::uint64_t kSamplingSeed = 0x57a7a11dULL;
constexpr std::size_t kWalks = 2000;
/// Right-tail 0.1%: with 12 scenario fits per run, a correct sampler
/// produces a false alarm once per ~80 full-suite runs *if seeds varied*;
/// they are fixed, so a pass today is a pass forever.
constexpr double kAlpha = 0.001;

TEST(ScenarioStatisticsTest, SampleFrequenciesMatchEveryScenarioSpec) {
  for (const Scenario& scenario : ScenarioRegistry::builtin().all()) {
    SCOPED_TRACE(scenario.name);
    const core::CompiledTestPlanPtr plan = core::compile(scenario.config);
    const ChiSquareFit fit = chi_square_fit(*plan, kSamplingSeed, kWalks);
    EXPECT_EQ(fit.walks, kWalks);
    EXPECT_GT(fit.transitions, 0u);
    if (fit.degrees_of_freedom == 0) {
      // Fully forced automaton (e.g. the create-only starvation plan):
      // nothing to fit, and the statistic must reflect that.
      EXPECT_EQ(fit.statistic, 0.0);
      continue;
    }
    const double critical =
        chi_square_critical(fit.degrees_of_freedom, kAlpha);
    EXPECT_LT(fit.statistic, critical)
        << "df=" << fit.degrees_of_freedom << " stat=" << fit.statistic;
  }
}

TEST(ScenarioStatisticsTest, FitIsDeterministicForAFixedSeed) {
  const Scenario* scenario =
      ScenarioRegistry::builtin().find("philosophers-deadlock");
  ASSERT_NE(scenario, nullptr);
  const core::CompiledTestPlanPtr plan = core::compile(scenario->config);
  const ChiSquareFit a = chi_square_fit(*plan, kSamplingSeed, kWalks);
  const ChiSquareFit b = chi_square_fit(*plan, kSamplingSeed, kWalks);
  EXPECT_EQ(a.statistic, b.statistic);  // bitwise: same draws, same sums
  EXPECT_EQ(a.degrees_of_freedom, b.degrees_of_freedom);
  EXPECT_EQ(a.transitions, b.transitions);
}

TEST(ScenarioStatisticsTest, CrossFitRejectsAMismatchedDistribution) {
  // Negative control: sample from the uniform-PD plan, fit against the
  // suspend-heavy expectations of the same automaton.  The statistic must
  // blow far past the critical value, or the per-scenario assertions
  // above would be vacuous.
  const Scenario* scenario =
      ScenarioRegistry::builtin().find("philosophers-deadlock");
  ASSERT_NE(scenario, nullptr);
  core::PtestConfig uniform = scenario->config;
  uniform.distributions.clear();
  const core::CompiledTestPlanPtr sampler = core::compile(uniform);
  const core::CompiledTestPlanPtr reference =
      core::compile(scenario->config);
  const ChiSquareFit fit =
      chi_square_cross_fit(*sampler, *reference, kSamplingSeed, kWalks);
  ASSERT_GT(fit.degrees_of_freedom, 0u);
  EXPECT_GT(fit.statistic,
            10.0 * chi_square_critical(fit.degrees_of_freedom, kAlpha));
}

TEST(ScenarioStatisticsTest, RestartAtAcceptWalksStayAligned) {
  // Churn plans (restart_at_accept, case study 1) insert an extra state
  // into the walk trace at every lifecycle restart; the tally must pair
  // each symbol with the state it was actually drawn from, and the
  // correctly-aligned frequencies must still fit the spec.
  const Scenario* scenario = ScenarioRegistry::builtin().find("lost-update");
  ASSERT_NE(scenario, nullptr);
  core::PtestConfig churn = scenario->config;
  churn.restart_at_accept = true;
  churn.s = 12;  // several lifecycles per walk
  const core::CompiledTestPlanPtr plan = core::compile(churn);
  const ChiSquareFit fit = chi_square_fit(*plan, kSamplingSeed, kWalks);
  EXPECT_GT(fit.transitions, 0u);
  ASSERT_GT(fit.degrees_of_freedom, 0u);
  EXPECT_LT(fit.statistic,
            chi_square_critical(fit.degrees_of_freedom, kAlpha))
      << "df=" << fit.degrees_of_freedom << " stat=" << fit.statistic;
}

TEST(ScenarioStatisticsTest, CrossFitRejectsMismatchedSkeletons) {
  const Scenario* philosophers =
      ScenarioRegistry::builtin().find("philosophers-deadlock");
  const Scenario* starvation =
      ScenarioRegistry::builtin().find("writer-starvation");
  ASSERT_NE(philosophers, nullptr);
  ASSERT_NE(starvation, nullptr);
  const auto a = core::compile(philosophers->config);
  const auto b = core::compile(starvation->config);
  EXPECT_THROW((void)chi_square_cross_fit(*a, *b, 1, 10),
               std::invalid_argument);
}

TEST(ScenarioStatisticsTest, CriticalValuesMatchKnownQuantiles) {
  // Classic table values (two decimals) the Wilson–Hilferty approximation
  // must reproduce closely.  df=1 is the approximation's known weak spot
  // (~2.5% low); the scenario fits all carry df >= 3, where the error is
  // well under 1%.
  EXPECT_NEAR(chi_square_critical(1, 0.05), 3.84, 0.15);
  EXPECT_NEAR(chi_square_critical(10, 0.05), 18.31, 0.10);
  EXPECT_NEAR(chi_square_critical(12, 0.001), 32.91, 0.25);
  EXPECT_EQ(chi_square_critical(0, 0.05), 0.0);
  EXPECT_THROW((void)chi_square_critical(3, 0.0), std::invalid_argument);
  EXPECT_THROW((void)chi_square_critical(3, 1.0), std::invalid_argument);
  // Monotonic in df for a fixed alpha.
  EXPECT_LT(chi_square_critical(3, 0.01), chi_square_critical(6, 0.01));
}

}  // namespace
}  // namespace ptest::scenario
