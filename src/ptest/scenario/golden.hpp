// Golden-replay support: run one session with its full execution trace
// retained and reduce it to a stable 64-bit fingerprint.
//
// The simulation is deterministic end to end (every random stream derives
// from the session seed), so the complete trace — every kernel, mailbox,
// bridge, master, and detector event, in order — is a pure function of
// (plan, seed).  Hashing it gives a regression check far stricter than
// comparing outcomes: any drift in scheduling, protocol timing, GC
// cadence, or report content moves the hash.  tests/scenario/golden/
// commits one (seed, hash) fixture per scenario and asserts the hash is
// bit-identical across a reused vs a freshly compiled plan, campaign
// jobs=1 vs jobs=4, and replays of recorded failures.
//
// The hash is FNV-1a over integers and strings only (no floating point
// formatting), so fixtures are portable across compilers and platforms.
#pragma once

#include <cstdint>
#include <string_view>

#include "ptest/core/adaptive_test.hpp"
#include "ptest/core/report.hpp"
#include "ptest/support/fnv.hpp"

namespace ptest::scenario {

using support::kFnvOffset;
using support::kFnvPrime;

/// Fingerprint framing on top of the support::fnv primitives: strings
/// fold their bytes *and* their length (so adjacent fields can never
/// collide by shifting a boundary), integers fold all eight bytes.
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t hash,
                                  std::string_view bytes) noexcept;
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t hash,
                                  std::uint64_t value) noexcept;

/// The fingerprint of one finished session: hashes outcome, session
/// stats, the merged pattern, the report's signature and tick, and every
/// event `trace` retained.  run_traced and replay_traced apply it to
/// their session's Soc; a hand-wired session can apply it to its own.
[[nodiscard]] std::uint64_t trace_fingerprint(
    const core::SessionResult& result, const pattern::MergedPattern& merged,
    const sim::TraceLog& trace);

/// One traced session: the AdaptiveTest result plus the trace fingerprint.
struct TracedRun {
  core::AdaptiveTestResult result;
  std::uint64_t trace_hash = kFnvOffset;
};

/// execute(plan, seed, setup, scratch) with the session's Soc kept in
/// scope long enough for trace_fingerprint.  Samples through the
/// caller's scratch — pass each worker its own (see pfa::WalkScratch).
[[nodiscard]] TracedRun run_traced(const core::CompiledTestPlan& plan,
                                   std::uint64_t seed,
                                   const core::WorkloadSetup& setup,
                                   pfa::WalkScratch& scratch);

/// Replays `report`'s merged pattern under `plan` and fingerprints the
/// replayed session the same way.
[[nodiscard]] TracedRun replay_traced(const core::BugReport& report,
                                      const core::CompiledTestPlan& plan,
                                      const core::WorkloadSetup& setup);

}  // namespace ptest::scenario
