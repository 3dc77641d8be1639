// Trace fingerprints: reduce one finished session, with its full
// execution trace, to a stable 64-bit hash.
//
// The simulation is deterministic end to end (every random stream derives
// from the session seed), so the complete trace — every kernel, mailbox,
// bridge, master, and detector event, in order — is a pure function of
// (plan, seed).  Hashing it gives a regression check far stricter than
// comparing outcomes: any drift in scheduling, protocol timing, GC
// cadence, or report content moves the hash.  Guided epochs count the
// distinct fingerprints they see; tests/scenario/golden/ commits one
// (seed, hash) fixture per scenario, hashed from a kept rig's warm load
// (the tests' run_traced, tests/core/reference_session.hpp).
//
// The hash is FNV-1a over integers and strings only (no floating point
// formatting), so fixtures are portable across compilers and platforms.
#pragma once

#include <cstdint>
#include <string_view>

#include "ptest/core/session.hpp"
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
/// event `trace` retained.  Apply it to the session's own Soc trace
/// right after the run (SessionRig::soc().trace()).
[[nodiscard]] std::uint64_t trace_fingerprint(
    const core::SessionResult& result, const pattern::MergedPattern& merged,
    const sim::TraceLog& trace);

}  // namespace ptest::scenario
