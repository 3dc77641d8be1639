// Cross-configuration session invariants: whatever the op / seed /
// workload, an adaptive-test session must satisfy the protocol and
// resource accounting contracts.  Also pins core::committer_options, the
// committer wiring every session uses.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "ptest/core/adaptive_test.hpp"
#include "ptest/support/rng.hpp"
#include "ptest/workload/philosophers.hpp"
#include "ptest/workload/quicksort.hpp"

namespace ptest::core {
namespace {

struct InvariantParam {
  const char* workload;
  pattern::MergeOp op;
  std::uint64_t seed;
  sim::Tick spacing;
};

class SessionInvariants : public ::testing::TestWithParam<InvariantParam> {};

TEST_P(SessionInvariants, ProtocolAndAccountingHold) {
  const InvariantParam& param = GetParam();
  PtestConfig config;
  config.n = 3;
  config.s = 8;
  config.op = param.op;
  config.seed = param.seed;
  config.command_spacing = param.spacing;
  config.max_ticks = 200000;
  config.detector.termination_horizon = 30000;

  WorkloadSetup setup;
  if (std::string_view(param.workload) == "quicksort") {
    config.program_id = workload::kQuicksortProgramId;
    setup = workload::register_quicksort;
  } else {
    config.program_id = workload::kPhilosopherProgramId;
    setup = [](pcore::PcoreKernel& kernel) {
      (void)workload::register_philosophers(kernel, /*buggy=*/true,
                                            /*meals=*/500);
    };
  }

  pfa::Alphabet alphabet;
  const auto result = adaptive_test(config, alphabet, setup);

  // 1. Patterns: n of them, all legal words (complete_to_accept default).
  ASSERT_EQ(result.patterns.size(), config.n);
  // 2. Merged pattern preserves each slot's sequence.
  const std::vector<pattern::TestPattern> projected =
      result.merged.project_all();
  ASSERT_EQ(projected.size(), config.n);
  for (pattern::SlotIndex slot = 0; slot < config.n; ++slot) {
    EXPECT_EQ(projected[slot].symbols, result.patterns[slot].symbols);
  }
  // 3. Protocol accounting: acks never exceed issues; every issued command
  //    is eventually acked unless the run stopped on a bug/limit.
  const auto& stats = result.session.stats;
  EXPECT_LE(stats.commands_acked, stats.commands_issued);
  EXPECT_LE(stats.commands_failed, stats.commands_acked);
  if (result.session.outcome == Outcome::kPassed) {
    EXPECT_EQ(stats.commands_acked, stats.commands_issued);
  }
  // 4. A decisive outcome (the detector stops the run; the tick budget is
  //    generous enough for every configuration here).
  EXPECT_NE(result.session.outcome, Outcome::kTickLimit);
  // 5. Bug reports are well-formed when present.
  if (result.session.outcome == Outcome::kBug) {
    ASSERT_TRUE(result.session.report.has_value());
    EXPECT_FALSE(result.session.report->description.empty());
    EXPECT_EQ(result.session.report->seed, config.seed);
    EXPECT_FALSE(result.session.report->merged.empty());
    EXPECT_FALSE(result.session.report->signature().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SessionInvariants,
    ::testing::Values(
        InvariantParam{"quicksort", pattern::MergeOp::kSequential, 1, 0},
        InvariantParam{"quicksort", pattern::MergeOp::kRoundRobin, 2, 0},
        InvariantParam{"quicksort", pattern::MergeOp::kRandom, 3, 6},
        InvariantParam{"quicksort", pattern::MergeOp::kCyclic, 4, 12},
        InvariantParam{"quicksort", pattern::MergeOp::kShuffle, 5, 0},
        InvariantParam{"philosophers", pattern::MergeOp::kSequential, 6, 12},
        InvariantParam{"philosophers", pattern::MergeOp::kRoundRobin, 7, 12},
        InvariantParam{"philosophers", pattern::MergeOp::kRandom, 8, 12},
        InvariantParam{"philosophers", pattern::MergeOp::kCyclic, 9, 12},
        InvariantParam{"philosophers", pattern::MergeOp::kShuffle, 10, 6},
        InvariantParam{"philosophers", pattern::MergeOp::kCyclic, 11, 0},
        InvariantParam{"quicksort", pattern::MergeOp::kRoundRobin, 12, 24}));

// --- the committer wiring ------------------------------------------------------

// committer_options() is the one source of the committer's wiring, which
// the rig and the reference suites' hand-wired stacks share, so it is
// pinned here against hand-computed values.

constexpr std::uint64_t kNoiseSeed = 0x5eed;

TEST(CommitterOptionsTest, ProgramArgIsTheSlotIndex) {
  PtestConfig config;
  config.program_id = 42;
  support::Rng noise(kNoiseSeed ^ kNoiseStreamSalt);
  const master::CommitterOptions options = committer_options(config, noise);
  EXPECT_EQ(options.program_id, 42u);
  for (pattern::SlotIndex slot = 0; slot < 16; ++slot) {
    EXPECT_EQ(options.program_arg(slot), slot);
  }
}

TEST(CommitterOptionsTest, IssueDelayIsSpacingPlusNoiseFromTheStream) {
  const pattern::MergedElement element;
  for (const auto& [max_delay, spacing] :
       {std::pair<sim::Tick, sim::Tick>{0, 4}, {5, 0}, {5, 3}}) {
    SCOPED_TRACE("max_delay " + std::to_string(max_delay) + " spacing " +
                 std::to_string(spacing));
    PtestConfig config;
    config.noise_max_delay = max_delay;
    config.command_spacing = spacing;
    support::Rng noise(kNoiseSeed ^ kNoiseStreamSalt);
    const master::CommitterOptions options = committer_options(config, noise);
    support::Rng expected(kNoiseSeed ^ kNoiseStreamSalt);
    for (int draw = 0; draw < 64; ++draw) {
      EXPECT_EQ(options.issue_delay(element),
                spacing + expected.below(max_delay + 1))
          << "draw " << draw;
    }
    if (max_delay == 0) {
      // No noise to draw: the stream is where it started.
      EXPECT_EQ(noise.next(),
                support::Rng(kNoiseSeed ^ kNoiseStreamSalt).next());
    }
  }
}

TEST(CommitterOptionsTest, NoNoiseAndNoSpacingDrawsNothing) {
  const PtestConfig config;
  ASSERT_EQ(config.noise_max_delay, 0u);
  ASSERT_EQ(config.command_spacing, 0u);
  support::Rng noise(kNoiseSeed ^ kNoiseStreamSalt);
  const master::CommitterOptions options = committer_options(config, noise);
  for (int draw = 0; draw < 64; ++draw) {
    EXPECT_EQ(options.issue_delay(pattern::MergedElement{}), 0u);
  }
  EXPECT_EQ(noise.next(), support::Rng(kNoiseSeed ^ kNoiseStreamSalt).next());
}

}  // namespace
}  // namespace ptest::core
