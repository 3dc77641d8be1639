// The bug detector (Fig. 2): "tracks the progress of test activities until
// it detects the potential system failures and then it terminates the test
// activity that results in these failures" (§II-B).
//
// Implemented as a sim::Device stepped after the master and slave stacks.
// In the paper it runs as a separate process on the master; here the
// deterministic tick loop gives it the same observational power (kernel
// state via the debug port, committer protocol state, CP records) without
// racing the system under test.  While commands flow it ticks every tick.
// Once the committer is done (the session rig's quiet phase) it ticks
// only on a kernel event or at quiet_deadline(), the first tick a
// time-based check could fire; between those no check can.  Its checks
// read the kernel's TCBs in place (the starvation check only the runnable
// slots of runnable_mask()); the wait-for graph is rescanned only when
// the kernel's wait_graph_epoch() moved off the last scanned value, which
// starts at 0: at epoch 0 no task has blocked since the kernel's reset,
// so the graph has no edge and no cycle, and skipping that scan is
// exact.
//
// The detector files only a report's head: the kind, the tick, the
// description, the culprits and the kernel's panic flag and reason, which
// is all a signature or a bug oracle reads.  The replay body (the kernel
// snapshot, the CP records, the trace tail and the merged pattern) is
// left empty; SessionRig::complete_report fills it from the stack, which
// still holds the detection tick's state, and only for a report someone
// keeps.
//
// Detections:
//   * slave crash      — kernel panic flag (case study 1's GC failure);
//   * deadlock         — cycle in the wait-for graph built from mutex
//                        owners/waiters (case study 2);
//   * unresponsive     — a remote command unacknowledged past the timeout;
//   * no-termination   — tasks still alive past the horizon after the
//                        committer finished (covers Fig. 1's spin livelock,
//                        where tasks keep running but never terminate);
//   * starvation       — optionally, a ready task unscheduled too long.
#pragma once

#include <optional>

#include "ptest/core/config.hpp"
#include "ptest/core/report.hpp"
#include "ptest/core/state_record.hpp"
#include "ptest/master/committer.hpp"
#include "ptest/pcore/kernel.hpp"

namespace ptest::core {

class BugDetector final : public sim::Device {
 public:
  /// The recorder holds the CP records of the stack the detector
  /// observes; they belong to a report's body, so the detector itself
  /// does not read them.
  BugDetector(const DetectorConfig& config, pcore::PcoreKernel& kernel,
              const master::Committer& committer,
              const StateRecorder& /*recorder*/)
      : config_(config), kernel_(&kernel), committer_(&committer) {}

  bool tick(sim::Soc& soc) override;

  /// Forgets the filed report, the pass and the termination watch, as
  /// freshly constructed (epoch 0 counts as scanned).  The report buffer
  /// keeps its capacity for the next filing.
  void reset() noexcept {
    filed_ = false;
    passed_ = false;
    committer_finished_at_.reset();
    scanned_epoch_ = 0;
  }

  [[nodiscard]] bool bug_found() const noexcept { return filed_; }
  /// The filed report's head (its body is empty), or null when none was
  /// filed.
  [[nodiscard]] const BugReport* report() const noexcept {
    return filed_ ? &report_ : nullptr;
  }

  /// True once the committer finished and every task exited cleanly.
  [[nodiscard]] bool passed() const noexcept { return passed_; }

  /// After a tick at `now` that filed nothing: the earliest later tick on
  /// which the termination or starvation check could fire, provided the
  /// kernel neither panics nor changes its live count or wait-graph epoch
  /// and no command arrives in between.  `now + 1` while the committer is
  /// not yet seen finished or has commands outstanding.
  [[nodiscard]] sim::Tick quiet_deadline(sim::Tick now) const noexcept;

  /// Finds a wait-for cycle among blocked tasks; exposed for unit tests.
  [[nodiscard]] static std::vector<pcore::TaskId> find_deadlock_cycle(
      const pcore::PcoreKernel& kernel);

 private:
  /// Files the head of a report of `kind` into the kept buffer and
  /// records the detector's bug event: the kind, the tick and the
  /// kernel's panic flag and reason are written, and the description and
  /// culprits come back empty for the caller to append to.
  BugReport& file_report(sim::Soc& soc, BugKind kind);

  DetectorConfig config_;
  pcore::PcoreKernel* kernel_;
  const master::Committer* committer_;
  BugReport report_;
  bool filed_ = false;
  bool passed_ = false;
  std::optional<sim::Tick> committer_finished_at_;
  /// Kernel wait-graph epoch of the last deadlock scan.
  std::uint64_t scanned_epoch_ = 0;
};

}  // namespace ptest::core
