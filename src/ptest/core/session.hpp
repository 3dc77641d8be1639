// A test session wires the whole master-slave stack together:
//
//   Committer (ARM master thread) ──────────────┐
//   Soc (clock, SRAM, mailboxes)                │ bridge::Channel
//    ├─ Committee (DSP bridge dispatcher)       │
//    ├─ PcoreKernel (DSP)      <────────────────┘
//    └─ BugDetector (observer, stepped last)
//
// and drives a merged pattern to completion, a bug, or the tick limit.
//
// The rig steps the committer and the three devices itself, in that
// order, with direct calls (the classes are final or held by value), and
// advances the clock after all four: the same ticks sim::Soc::run would
// run with the committer in a master::MasterScheduler attached ahead of
// the three devices.  The rig records the scheduler's thread-done event
// when the committer finishes, so the trace is the same too.  Soc::run
// stays the generic loop for stacks wired by hand.  Once the committer
// is done and the committee is idle, neither can act again, so the rig's
// loop enters a quiet phase that retires them.  There the kernel runs
// alone (PcoreKernel::run_quiet) and the detector ticks only on a tick
// where a check could fire: a kernel event (a panic, a live-count or
// wait-graph epoch change), the detector's next deadline (BugDetector::
// quiet_deadline) or the tick-limit cut.  Every kernel tick still runs,
// the clock does not jump, and every report lands on the tick per-tick
// detection would file it.  Hang sessions spend almost all their ticks
// in this phase.
//
// SessionRig owns that stack and is the one place in src/ it is wired
// for a session; committer_options() is the one source of the
// committer's wiring, for the rig and for the reference stacks the tests
// wire by hand.  Campaigns, guided epochs and the systematic baseline run
// thousands of short sessions against one config and alphabet, so they
// build a rig once per participant and load() each session into it:
// every device resets to its freshly constructed state, keeping its
// buffers, and the workload setup runs again on the reset kernel.  A
// loaded rig runs exactly as a freshly built one would.  TestSession is
// the one-session form: one rig, loaded once.
//
// A report comes in two parts.  Its head (kind, tick, description,
// culprits, the kernel's panic flag and reason, and the seed) is what a
// signature and a bug oracle read; the detector files it on every bug,
// and run(out) copies it into `out`'s kept report.  Its replay body (the
// kernel snapshot, the CP records, the trace tail and the merged pattern)
// costs more and matters only for a report someone keeps, so run(out)
// leaves it empty and complete_report() fills it from the rig, which
// still holds the detection tick's state until the next load().  A
// campaign completes only a report whose signature is new; the one-shot
// forms (run(), TestSession, execute() into a fresh result, replay)
// always complete.
//
// Buffers circulate instead of being rebuilt.  The committer borrows the
// caller's merged pattern, and a report buffer a passing session frees
// from `out` waits in the rig for the next bug.  A caller that passes the
// same SessionResult to every run() therefore files warm heads without
// allocating.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "ptest/bridge/committee.hpp"
#include "ptest/core/bug_detector.hpp"
#include "ptest/core/config.hpp"
#include "ptest/core/state_record.hpp"
#include "ptest/master/committer.hpp"
#include "ptest/pattern/merger.hpp"
#include "ptest/pattern/pattern.hpp"
#include "ptest/support/rng.hpp"

namespace ptest::core {

enum class Outcome : std::uint8_t {
  kPassed = 0,   // pattern completed, all tasks terminated
  kBug,          // the detector filed a report
  kTickLimit,    // neither within max_ticks (treated as suspicious)
};

[[nodiscard]] const char* to_string(Outcome outcome) noexcept;

struct SessionStats {
  sim::Tick ticks = 0;
  /// Of `ticks`, those run in the quiet phase (master and committee
  /// retired).
  sim::Tick quiet_ticks = 0;
  /// Of `quiet_ticks`, those on which the detector ran: the first, each
  /// kernel event, each detector deadline and a tick-limit cut.
  sim::Tick quiet_checks = 0;
  std::size_t commands_issued = 0;
  std::size_t commands_acked = 0;
  std::size_t commands_failed = 0;
  std::uint64_t kernel_service_calls = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t gc_runs = 0;
};

struct SessionResult {
  Outcome outcome = Outcome::kPassed;
  std::optional<BugReport> report;
  SessionStats stats;
};

/// Hook that prepares the kernel before the run: registers program
/// factories (config.program_id must resolve) and creates any mutexes /
/// shared state the workload needs.
using WorkloadSetup = std::function<void(pcore::PcoreKernel&)>;

/// A session seeded `seed` draws its issue delays from
/// support::Rng(seed ^ kNoiseStreamSalt).
inline constexpr std::uint64_t kNoiseStreamSalt = 0x6e6f697365ULL;

/// The committer wiring of every session: `config.program_id`, the slot
/// index as each task's program argument (philosopher index, quicksort
/// seed and seeded-bug role all key off it), and, when
/// `config.noise_max_delay` or `config.command_spacing` is non-zero, an
/// issue delay of spacing + noise_rng.below(max_delay + 1), drawn only
/// when max_delay > 0.  The delay reads `noise_rng` through a pointer, so
/// the stream must outlive the committer.
[[nodiscard]] master::CommitterOptions committer_options(
    const PtestConfig& config, support::Rng& noise_rng);

/// The wired session stack, reusable across sessions of one plan.  Not
/// copyable or movable: the devices point at each other and the
/// committer's noise hook at the rig's own stream.
class SessionRig {
 public:
  /// Wires the stack for sessions of `config` (its seed is not used:
  /// load() takes each session's).  `alphabet` must outlive the rig.
  SessionRig(const PtestConfig& config, const pfa::Alphabet& alphabet);

  SessionRig(const SessionRig&) = delete;
  SessionRig& operator=(const SessionRig&) = delete;

  /// Prepares one session: resets every device, runs `setup` on the
  /// reset kernel, assigns each slot's CP record from `patterns`, hands
  /// `merged` to the committer and reseeds the noise stream from `seed`.
  /// Nothing of an earlier session survives.  The committer borrows
  /// `merged`: it must stay alive and unchanged until run() returns.
  void load(std::uint64_t seed, const pattern::MergedPattern& merged,
            const std::vector<pattern::TestPattern>& patterns,
            const WorkloadSetup& setup);
  void load(std::uint64_t seed, pattern::MergedPattern&& merged,
            const std::vector<pattern::TestPattern>& patterns,
            const WorkloadSetup& setup) = delete;

  /// Runs the loaded session to completion/bug/limit and writes every
  /// field of `out`.  A filed report's head and the session's seed are
  /// copied into `out.report`, reusing the buffers of the report it held;
  /// its body comes back empty.  Without a filing `out.report` is reset,
  /// and the rig keeps its buffers for the next one.  Call once per
  /// load().
  void run(SessionResult& out);
  /// run() into a fresh result, with the report completed.
  SessionResult run();

  /// Fills `report`'s body from the session run() just ran: the kernel
  /// snapshot, the CP records, the kReportTraceLines trace events before
  /// the detector's own bug event, and the merged pattern.  Exact until
  /// the next load(): the rig's state after run() is its state on the
  /// detection tick.
  void complete_report(BugReport& report) const;

  /// The merger execute() re-arms for each session on this rig, kept so
  /// its working lists keep their capacity.
  [[nodiscard]] pattern::PatternMerger& merger() noexcept { return merger_; }
  [[nodiscard]] sim::Soc& soc() noexcept { return soc_; }
  [[nodiscard]] pcore::PcoreKernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] const StateRecorder& recorder() const noexcept {
    return recorder_;
  }
  [[nodiscard]] const master::Committer& committer() const noexcept {
    return committer_;
  }

 private:
  /// Runs the loaded session's ticks; writes stats.ticks,
  /// stats.quiet_ticks and stats.quiet_checks.
  void tick_loop(SessionStats& stats);

  std::uint64_t seed_ = 0;
  sim::Tick max_ticks_ = 0;
  /// The committer's issue-delay stream, reseeded per session.
  support::Rng noise_rng_;
  sim::Soc soc_;
  pcore::PcoreKernel kernel_;
  bridge::Channel channel_;
  bridge::Committee committee_;
  StateRecorder recorder_;
  master::Committer committer_;
  BugDetector detector_;
  pattern::PatternMerger merger_;
  /// The buffers of the last report a passing session freed from its
  /// result, kept for the next filing.
  BugReport spare_report_;
};

/// One session on a rig of its own.
class TestSession {
 public:
  /// `merged` is the pattern the committer will drive; `patterns` are the
  /// per-slot patterns (for CP records).  The session forks all randomness
  /// from config.seed.
  TestSession(const PtestConfig& config, const pfa::Alphabet& alphabet,
              pattern::MergedPattern merged,
              const std::vector<pattern::TestPattern>& patterns,
              const WorkloadSetup& setup);

  /// Runs to completion/bug/limit.  Call once.
  SessionResult run() { return rig_.run(); }

  [[nodiscard]] sim::Soc& soc() noexcept { return rig_.soc(); }
  [[nodiscard]] pcore::PcoreKernel& kernel() noexcept { return rig_.kernel(); }
  [[nodiscard]] const StateRecorder& recorder() const noexcept {
    return rig_.recorder();
  }
  [[nodiscard]] const master::Committer& committer() const noexcept {
    return rig_.committer();
  }

 private:
  pattern::MergedPattern merged_;  // borrowed by the rig's committer
  SessionRig rig_;
};

}  // namespace ptest::core
