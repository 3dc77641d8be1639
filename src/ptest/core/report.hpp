// Bug reports: what the bug detector "dumps ... to help users reproduce
// the bugs" (§II-B).
//
// A report carries everything replay needs: the failure classification and
// evidence (kernel snapshot, wait-for cycle, CP records, trace tail) plus
// the session's seed and merged pattern, which — because the whole
// simulation is deterministic — replays to the identical failure.  The CP
// records and trace events stay in their compact form; render() is the
// only place they become text, so a campaign that keeps one report per
// signature never formats the repeats.
//
// The fields split into a head (kind, tick, description, culprits,
// kernel.panicked, kernel.panic_reason, seed), which is everything
// signature() and a bug oracle read, and a replay body (the rest of the
// kernel snapshot, the CP records, the trace tail, the merged pattern).
// A session files the head; SessionRig::complete_report fills the body
// of a report that is kept, and a head-only report has an empty body.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ptest/core/state_record.hpp"
#include "ptest/pattern/pattern.hpp"
#include "ptest/pcore/kernel.hpp"
#include "ptest/sim/trace.hpp"

namespace ptest::core {

enum class BugKind : std::uint8_t {
  kSlaveCrash = 0,   // kernel panic (e.g. the GC corruption of case 1)
  kDeadlock,         // wait-for cycle among blocked tasks (case 2)
  kUnresponsive,     // remote command unacknowledged past the timeout
  kNoTermination,    // tasks alive/spinning past the termination horizon
  kStarvation,       // ready task unscheduled past the starvation horizon
};

inline constexpr std::size_t kBugKindCount = 5;

[[nodiscard]] const char* to_string(BugKind kind) noexcept;

struct BugReport {
  BugKind kind = BugKind::kSlaveCrash;
  sim::Tick detected_at = 0;
  std::string description;
  /// Tasks involved (wait-for cycle for deadlock, starved task, ...).
  std::vector<pcore::TaskId> culprits;
  /// Slave state at detection time.
  pcore::KernelSnapshot kernel;
  /// CP records (Definition 2) by slot, as filed.
  std::vector<std::pair<pattern::SlotIndex, CpRecord>> state_records;
  /// The last kReportTraceLines trace events, oldest first.
  std::vector<sim::TraceEvent> trace_tail;
  /// Replay bundle: seed and the exact merged pattern that was driven.
  std::uint64_t seed = 0;
  pattern::MergedPattern merged;

  /// Human-readable multi-line rendering.
  [[nodiscard]] std::string render(const pfa::Alphabet& alphabet) const;

  /// Stable failure signature for replay verification: kind + sorted
  /// culprits + (for crashes) the panic reason.
  [[nodiscard]] std::string signature() const;
  /// Appends signature()'s text to `out` without building a string (a
  /// campaign writes it into a kept key to look the report up).
  void append_signature(std::string& out) const;
};

}  // namespace ptest::core
