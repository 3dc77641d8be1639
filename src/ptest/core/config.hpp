// pTest configuration: the paper's (RE, n, s, op) tuple of Algorithm 1
// plus the probability distributions PD and the runtime knobs of the
// simulated platform.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "ptest/pattern/merger.hpp"
#include "ptest/pcore/kernel.hpp"

namespace ptest::core {

struct DetectorConfig {
  /// A pending remote command unacknowledged for this many ticks means the
  /// slave is unresponsive (crash signature distinct from panic).
  sim::Tick command_timeout = 4096;
  /// After the committer finished, live tasks must terminate within this
  /// horizon or the detector reports a synchronization anomaly ("if
  /// processes do not terminate ... the system may contain synchronization
  /// anomalies", §II-A).
  sim::Tick termination_horizon = 4096;
  /// A ready task unscheduled for this many ticks counts as starved.
  /// 0 disables starvation detection (strict-priority kernels starve
  /// low-priority tasks by design under load).
  sim::Tick starvation_horizon = 0;
};

/// Trace lines included in a bug report.
inline constexpr std::size_t kReportTraceLines = 32;

/// The paper's Fig. 5 probability distributions (service bigrams), in
/// DistributionSpec::parse syntax — the canonical copy consumers
/// (scenario catalog, ptest_cli --pd fig5) share so the "paper PFA
/// configuration" can never desynchronize between them.
inline constexpr const char* kFig5Distributions =
    "TC -> TCH = 0.6; TC -> TS = 0.2; TC -> TD = 0.1; TC -> TY = 0.1;"
    "TCH -> TCH = 0.6; TCH -> TS = 0.2; TCH -> TD = 0.1; TCH -> TY = 0.1;"
    "TS -> TR = 1.0;"
    "TR -> TCH = 0.4; TR -> TS = 0.3; TR -> TY = 0.2; TR -> TD = 0.1";

struct PtestConfig {
  // --- Algorithm 1 inputs ---------------------------------------------------
  /// RE: the service-lifecycle regular expression.  Default: paper Eq. (2).
  std::string regex = "TC((TCH)* | TS TR (TCH)*)* (TD$ | TY$)";
  /// PD: probability distributions, in DistributionSpec::parse syntax.
  /// Empty = uniform.
  std::string distributions;
  /// n: number of test patterns (= concurrent tasks under test).
  std::size_t n = 4;
  /// s: size of each test pattern.
  std::size_t s = 8;
  /// op: pattern-merger operator.
  pattern::MergeOp op = pattern::MergeOp::kRoundRobin;

  // --- generation options ----------------------------------------------------
  bool complete_to_accept = true;
  bool restart_at_accept = false;
  /// Drop replicated patterns (paper §V future work).
  bool dedup_patterns = false;

  // --- runtime ---------------------------------------------------------------
  std::uint64_t seed = 0x70746573'74303921ULL;
  sim::Tick max_ticks = 200000;
  pcore::KernelConfig kernel{};
  DetectorConfig detector{};
  /// Program the created tasks run (id in the session's registry).
  std::uint32_t program_id = 0;
  /// ConTest-style master-side jitter: maximum random delay (ticks)
  /// inserted before each command issue (0 = off); see baseline/noise.hpp.
  sim::Tick noise_max_delay = 0;
  /// Fixed pacing between consecutive command issues.  Spacing lets each
  /// command's effect settle on the slave before the next lands — without
  /// it, cleanup commands (TD/TY) can race ahead of the very anomaly a
  /// merge operator engineered (e.g. dissolve a wait-for cycle one tick
  /// before it closes).  0 = issue as fast as acks return.
  sim::Tick command_spacing = 0;
};

}  // namespace ptest::core
