// Golden-replay regression suite.
//
// For every registered scenario a canonical (seed, plan) fixture lives in
// tests/scenario/golden/<name>.golden, recording the trace fingerprint of
// the scenario's first campaign session and — for bug scenarios — the
// signature and replay fingerprint of the first retained failure.  The
// suite asserts the current tree reproduces those hashes bit for bit:
//
//   * the single-session fingerprint, hashed from a kept rig's warm load
//     (run_traced, tests/core/reference_session.hpp), from a compiled
//     plan and from a freshly compiled one (plan reuse must be
//     invisible);
//   * the campaign's distinct failures at jobs=1 and jobs=4 (both must
//     retain identical reports);
//   * the replay of the recorded failure (replay_traced), whose
//     fingerprint must match the committed one and reproduce the
//     original signature.
//
// Regenerate after an intentional behaviour change with
//   PTEST_GOLDEN_UPDATE=1 ctest -R scenario_golden
// (the binary rewrites the fixtures in the source tree, via the
// PTEST_SCENARIO_GOLDEN_DIR compile definition).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "core/reference_session.hpp"
#include "ptest/core/campaign.hpp"
#include "ptest/core/replay.hpp"
#include "ptest/scenario/registry.hpp"
#include "ptest/support/rng.hpp"
#include "ptest/support/strings.hpp"

namespace ptest::scenario {
namespace {

using core::replay_traced;
using core::run_traced;
using core::TracedRun;

std::string fixture_path(const std::string& name) {
  return std::string(PTEST_SCENARIO_GOLDEN_DIR) + "/" + name + ".golden";
}

bool update_mode() {
  const char* env = std::getenv("PTEST_GOLDEN_UPDATE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// "key rest-of-line" pairs; '#' lines are comments.
std::map<std::string, std::string> read_fixture(const std::string& path) {
  std::map<std::string, std::string> fields;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;
    fields[line.substr(0, space)] = line.substr(space + 1);
  }
  return fields;
}

struct GoldenRecord {
  std::uint64_t seed = 0;
  std::string outcome;
  std::string trace_hash;
  std::string failure_signature = "-";
  std::string replay_hash = "-";
};

/// Computes the current tree's golden record for `scenario` and runs the
/// cross-configuration identity checks along the way.
GoldenRecord compute_record(const Scenario& scenario) {
  GoldenRecord record;
  record.seed = support::derive_seed(scenario.config.seed, 0);

  const core::CompiledTestPlanPtr plan = core::compile(scenario.config);
  pfa::WalkScratch scratch;
  const TracedRun session =
      run_traced(*plan, record.seed, scenario.setup, scratch);
  record.outcome = core::to_string(session.result.session.outcome);
  record.trace_hash = support::hex64(session.trace_hash);

  // Plan reuse must be invisible: a freshly compiled plan replays to the
  // identical fingerprint.
  const TracedRun fresh =
      run_traced(*core::compile(scenario.config), record.seed,
                 scenario.setup, scratch);
  EXPECT_EQ(fresh.trace_hash, session.trace_hash);

  // The scenario campaign retains identical failures at jobs=1 and
  // jobs=4; the first one replays to a stable fingerprint.
  std::optional<core::BugReport> first_failure;
  std::string first_signature;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    core::CampaignOptions options;
    options.budget = 0;
    options.jobs = jobs;
    const auto result = core::Campaign::run_scenario(scenario.name, options);
    if (!result.ok()) {
      ADD_FAILURE() << result.error();
      continue;
    }
    const core::CampaignResult& campaign = result.value();
    if (campaign.distinct_failures.empty()) {
      EXPECT_FALSE(first_failure.has_value());
      continue;
    }
    const auto& [signature, report] = *campaign.distinct_failures.begin();
    if (!first_failure) {
      first_failure = report;
      first_signature = signature;
      continue;
    }
    // The parallel run must retain the same first failure.
    EXPECT_EQ(signature, first_signature);
    EXPECT_EQ(report.seed, first_failure->seed);
    EXPECT_EQ(report.merged.elements, first_failure->merged.elements);
    const TracedRun a = replay_traced(*first_failure, *plan, scenario.setup);
    const TracedRun b = replay_traced(report, *plan, scenario.setup);
    EXPECT_EQ(a.trace_hash, b.trace_hash);
  }
  if (first_failure) {
    record.failure_signature = first_signature;
    const TracedRun replay =
        replay_traced(*first_failure, *plan, scenario.setup);
    record.replay_hash = support::hex64(replay.trace_hash);
    // The replayed session reproduces the recorded failure.
    EXPECT_TRUE(core::verify_reproduces(*first_failure,
                                        replay.result.session));
  }
  return record;
}

void write_fixture(const Scenario& scenario, const GoldenRecord& record) {
  std::ofstream out(fixture_path(scenario.name));
  ASSERT_TRUE(out.good()) << fixture_path(scenario.name);
  out << "# golden replay fixture for scenario '" << scenario.name
      << "'\n";
  out << "# regenerate: PTEST_GOLDEN_UPDATE=1 ctest -R scenario_golden\n";
  out << "seed " << record.seed << "\n";
  out << "outcome " << record.outcome << "\n";
  out << "trace_hash " << record.trace_hash << "\n";
  out << "failure_signature " << record.failure_signature << "\n";
  out << "replay_hash " << record.replay_hash << "\n";
}

TEST(ScenarioGoldenTest, EveryScenarioMatchesItsCommittedFixture) {
  for (const Scenario& scenario : ScenarioRegistry::builtin().all()) {
    SCOPED_TRACE(scenario.name);
    const GoldenRecord record = compute_record(scenario);
    if (update_mode()) {
      write_fixture(scenario, record);
      continue;
    }
    const auto fields = read_fixture(fixture_path(scenario.name));
    ASSERT_FALSE(fields.empty())
        << "missing fixture " << fixture_path(scenario.name)
        << " — regenerate with PTEST_GOLDEN_UPDATE=1";
    // Checked lookup: a truncated fixture fails this scenario cleanly
    // instead of aborting the loop with std::out_of_range.
    const auto field = [&](const char* key) -> std::string {
      const auto it = fields.find(key);
      if (it != fields.end()) return it->second;
      ADD_FAILURE() << "fixture " << fixture_path(scenario.name)
                    << " is missing '" << key
                    << "' — regenerate with PTEST_GOLDEN_UPDATE=1";
      return "<missing>";
    };
    EXPECT_EQ(field("seed"), std::to_string(record.seed));
    EXPECT_EQ(field("outcome"), record.outcome);
    EXPECT_EQ(field("trace_hash"), record.trace_hash);
    EXPECT_EQ(field("failure_signature"), record.failure_signature);
    EXPECT_EQ(field("replay_hash"), record.replay_hash);
  }
}

TEST(ScenarioGoldenTest, FingerprintIsSensitiveToTheSeed) {
  // The hash must actually discriminate executions, or the fixtures prove
  // nothing: a different session seed must move it.
  const Scenario* scenario =
      ScenarioRegistry::builtin().find("philosophers-deadlock");
  ASSERT_NE(scenario, nullptr);
  const core::CompiledTestPlanPtr plan = core::compile(scenario->config);
  pfa::WalkScratch scratch;
  const TracedRun a = run_traced(*plan, 1, scenario->setup, scratch);
  const TracedRun b = run_traced(*plan, 2, scenario->setup, scratch);
  EXPECT_NE(a.trace_hash, b.trace_hash);
  const TracedRun again = run_traced(*plan, 1, scenario->setup, scratch);
  EXPECT_EQ(a.trace_hash, again.trace_hash);
}

TEST(ScenarioGoldenTest, Fnv1aSeparatesConcatenationBoundaries) {
  std::uint64_t ab_c = fnv1a(fnv1a(kFnvOffset, "ab"), "c");
  std::uint64_t a_bc = fnv1a(fnv1a(kFnvOffset, "a"), "bc");
  EXPECT_NE(ab_c, a_bc);
  EXPECT_NE(fnv1a(kFnvOffset, std::uint64_t{1}),
            fnv1a(kFnvOffset, std::uint64_t{2}));
}

}  // namespace
}  // namespace ptest::scenario
