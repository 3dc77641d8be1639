#include "ptest/core/replay.hpp"

namespace ptest::core {

SessionResult replay(const BugReport& report, const PtestConfig& config,
                     const pfa::Alphabet& alphabet,
                     const WorkloadSetup& setup) {
  PtestConfig replay_config = config;
  replay_config.seed = report.seed;
  // Per-slot projections reconstruct the state recorder's inputs, so it
  // reports the same Definition-2 tuples.
  TestSession session(replay_config, alphabet, report.merged,
                      report.merged.project_all(), setup);
  return session.run();
}

SessionResult replay(const BugReport& report, const CompiledTestPlan& plan,
                     const WorkloadSetup& setup) {
  return replay(report, plan.config, plan.alphabet, setup);
}

bool verify_reproduces(const BugReport& original,
                       const SessionResult& replayed) {
  if (replayed.outcome != Outcome::kBug || !replayed.report) return false;
  return replayed.report->signature() == original.signature();
}

}  // namespace ptest::core
