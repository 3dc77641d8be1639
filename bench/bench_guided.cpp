// Guided vs static sessions-to-first-bug across the sync-bug catalog.
//
// The question the guided/ subsystem exists to answer: starting from an
// *uninformed* plan (the paper's own premise — §I assumes users do not
// know the probability distributions), how many sessions does each mode
// spend before the scenario's oracle fires?  Static keeps sampling the
// wrong-prior plan; guided refines it toward uncovered PFA transitions
// every epoch.  Both modes run the same scenario config, the same
// per-session budget, and the same derive_seed(seed, i) session seeds —
// epoch 0 of a guided run IS the static run's prefix, so any gap is
// attributable to refinement alone.
//
// Two wrong priors, one per regex family:
//   * lifecycle (Eq. 2) scenarios get a churn-heavy prior — tasks retire
//     early, starving hold-and-wait windows;
//   * terminal-free (hang) scenarios get a suspend-starved prior — the
//     suspend windows their bugs need almost never open.
//
// The report prints the full per-seed table; the timed benchmark runs
// one guided campaign and attaches the median sessions-to-first-bug of
// both modes as counters, which BENCH_results.json carries into
// scripts/check_bench_regression.py --counter (CI's blocking counter gate).
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "ptest/guided/campaign.hpp"
#include "ptest/scenario/registry.hpp"
#include "ptest/support/rng.hpp"

namespace {

using namespace ptest;

/// Churn-heavy wrong prior for Eq. 2 lifecycle plans: TD/TY dominate, so
/// static sessions rarely keep enough tasks alive to collide.
constexpr const char* kChurnPriorPd =
    "TC -> TCH = 0.3; TC -> TS = 0.02; TC -> TD = 1.0; TC -> TY = 1.0;"
    "TCH -> TCH = 0.3; TCH -> TS = 0.02; TCH -> TD = 1.0; TCH -> TY = 1.0;"
    "TS -> TR = 1.0;"
    "TR -> TCH = 0.3; TR -> TS = 0.02; TR -> TD = 1.0; TR -> TY = 1.0";

/// Suspend-starved wrong prior for terminal-free hang plans.
constexpr const char* kNoSuspendPriorPd =
    "TC -> TCH = 1.0; TC -> TS = 0.02;"
    "TCH -> TCH = 1.0; TCH -> TS = 0.02;"
    "TS -> TR = 1.0;"
    "TR -> TCH = 1.0; TR -> TS = 0.02";

struct BenchScenario {
  const char* name;
  const char* prior;  // the uninformed PD both modes start from
};

constexpr BenchScenario kScenarios[] = {
    {"deadlock-pair", kChurnPriorPd},
    {"philosophers-deadlock", kChurnPriorPd},
    {"aba-stack", kChurnPriorPd},
    {"lost-wakeup", kNoSuspendPriorPd},
    {"livelock-backoff", kNoSuspendPriorPd},
    {"fig1-livelock", kNoSuspendPriorPd},
};

guided::GuidedOptions guided_options(const scenario::Scenario& s,
                                     std::size_t budget) {
  guided::GuidedOptions options;
  options.sessions_per_epoch = 3;
  options.max_epochs = (budget + options.sessions_per_epoch - 1) /
                       options.sessions_per_epoch;
  options.refiner.exploration_share = 0.6;
  options.plateau_window = 0;  // measure pure sessions-to-first-bug
  options.counts_as_bug = [&s](const core::BugReport& report) {
    return s.oracle.matches(report);
  };
  return options;
}

core::PtestConfig wrong_prior_config(const scenario::Scenario& s,
                                     const char* prior, std::uint64_t seed) {
  core::PtestConfig config = s.config;
  config.distributions = prior;
  config.seed = seed;
  return config;
}

/// Static mode: the uninformed plan, fixed, session after session.
std::optional<std::size_t> static_stfb(const scenario::Scenario& s,
                                       const core::PtestConfig& config,
                                       std::size_t budget) {
  const core::CompiledTestPlanPtr plan = core::compile(config);
  pfa::WalkScratch scratch;
  for (std::size_t i = 0; i < budget; ++i) {
    const auto result = core::execute(
        *plan, support::derive_seed(config.seed, i), s.setup, scratch);
    if (result.session.outcome == core::Outcome::kBug &&
        result.session.report && s.oracle.matches(*result.session.report)) {
      return i + 1;
    }
  }
  return std::nullopt;
}

std::optional<std::size_t> guided_stfb(const scenario::Scenario& s,
                                       const core::PtestConfig& config,
                                       std::size_t budget) {
  guided::GuidedCampaign campaign(config, s.setup,
                                  guided_options(s, budget));
  return campaign.run().sessions_to_first_bug;
}

/// Median with misses counted as budget + 1 (they exhaust the budget).
double median_stfb(std::vector<std::optional<std::size_t>> values,
                   std::size_t budget) {
  std::vector<double> numeric;
  numeric.reserve(values.size());
  for (const auto& value : values) {
    numeric.push_back(value ? static_cast<double>(*value)
                            : static_cast<double>(budget + 1));
  }
  std::sort(numeric.begin(), numeric.end());
  return numeric[numeric.size() / 2];
}

void print_guided_table() {
  constexpr std::size_t kBudget = 96;
  constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6, 7};
  std::printf("=== Guided vs static sessions-to-first-bug "
              "(wrong-prior start, budget %zu, %zu seeds) ===\n",
              kBudget, std::size(kSeeds));
  std::printf("%-22s %-28s %-28s %6s %6s\n", "scenario",
              "static per-seed", "guided per-seed", "med(s)", "med(g)");
  for (const BenchScenario& entry : kScenarios) {
    const scenario::Scenario* s =
        scenario::ScenarioRegistry::builtin().find(entry.name);
    if (s == nullptr) continue;
    std::vector<std::optional<std::size_t>> st, gd;
    std::string st_text, gd_text;
    for (const std::uint64_t seed : kSeeds) {
      const core::PtestConfig config =
          wrong_prior_config(*s, entry.prior, seed);
      st.push_back(static_stfb(*s, config, kBudget));
      gd.push_back(guided_stfb(*s, config, kBudget));
      st_text += (st.back() ? std::to_string(*st.back()) : "-") + " ";
      gd_text += (gd.back() ? std::to_string(*gd.back()) : "-") + " ";
    }
    std::printf("%-22s %-28s %-28s %6.0f %6.0f\n", entry.name,
                st_text.c_str(), gd_text.c_str(), median_stfb(st, kBudget),
                median_stfb(gd, kBudget));
  }
  std::printf("('-' = oracle not reached within the budget; misses count "
              "as budget+1 in the median)\n\n");
}

const int registered = [] {
  bench::register_report("guided", print_guided_table);

  // The timed pass: wall cost of guided campaigns over a seed sweep on
  // one hang-class scenario, with both modes' median sessions-to-first-
  // bug attached as counters so the CI regression gate can watch the
  // effectiveness metric, not just the wall time.
  bench::register_benchmark("guided/sessions_to_first_bug",
                            [](bench::Context& ctx) {
    const scenario::Scenario* s =
        scenario::ScenarioRegistry::builtin().find("livelock-backoff");
    const std::size_t budget = ctx.scaled<std::size_t>(96, 48);
    const std::size_t seed_count = ctx.scaled<std::size_t>(5, 3);

    std::vector<std::optional<std::size_t>> st, gd;
    for (std::uint64_t seed = 1; seed <= seed_count; ++seed) {
      const core::PtestConfig config =
          wrong_prior_config(*s, kNoSuspendPriorPd, seed);
      st.push_back(static_stfb(*s, config, budget));
      gd.push_back(guided_stfb(*s, config, budget));
    }
    ctx.set_counter("static_sessions_to_first_bug_median",
                    median_stfb(st, budget));
    ctx.set_counter("guided_sessions_to_first_bug_median",
                    median_stfb(gd, budget));

    const core::PtestConfig config =
        wrong_prior_config(*s, kNoSuspendPriorPd, 1);
    ctx.measure([&] {
      guided::GuidedCampaign campaign(config, s->setup,
                                      guided_options(*s, budget));
      bench::do_not_optimize(campaign.run().campaign.total_runs);
    });
  });

  // Epoch-loop overhead in isolation: a guided campaign that never
  // finds a bug (clean scenario) — refine/recompile cost per epoch.
  bench::register_benchmark("guided/epoch_overhead",
                            [](bench::Context& ctx) {
    const scenario::Scenario* s =
        scenario::ScenarioRegistry::builtin().find("quicksort-clean");
    core::PtestConfig config = s->config;
    config.seed = 5;
    guided::GuidedOptions options;
    options.max_epochs = ctx.scaled<std::size_t>(6, 3);
    options.sessions_per_epoch = 2;
    options.stop_on_bug = false;
    options.plateau_window = 0;
    ctx.set_items_per_call(static_cast<double>(options.max_epochs));
    ctx.measure([&] {
      guided::GuidedCampaign campaign(config, s->setup, options);
      bench::do_not_optimize(campaign.run().refinements);
    });
  });
  return 0;
}();

}  // namespace
