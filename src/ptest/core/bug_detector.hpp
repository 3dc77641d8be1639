// The bug detector (Fig. 2): "tracks the progress of test activities until
// it detects the potential system failures and then it terminates the test
// activity that results in these failures" (§II-B).
//
// Implemented as a sim::Device stepped after the master and slave stacks
// each tick.  In the paper it runs as a separate process on the master;
// here the deterministic tick loop gives it the same observational power
// (kernel state via the debug port, committer protocol state, CP records)
// without racing the system under test.  The per-tick checks read the
// kernel's TCBs in place; the wait-for graph is rescanned only when the
// kernel's wait_graph_epoch() moved, and a full KernelSnapshot is taken
// once, when a report is filed.
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

#include <functional>
#include <optional>

#include "ptest/core/config.hpp"
#include "ptest/core/report.hpp"
#include "ptest/core/state_record.hpp"
#include "ptest/master/committer.hpp"
#include "ptest/pcore/kernel.hpp"

namespace ptest::core {

class BugDetector : public sim::Device {
 public:
  BugDetector(const DetectorConfig& config, pcore::PcoreKernel& kernel,
              const master::Committer& committer,
              const StateRecorder& recorder)
      : config_(config),
        kernel_(&kernel),
        committer_(&committer),
        recorder_(&recorder) {}

  bool tick(sim::Soc& soc) override;

  [[nodiscard]] bool bug_found() const noexcept {
    return report_.has_value();
  }
  [[nodiscard]] const std::optional<BugReport>& report() const noexcept {
    return report_;
  }
  /// Moves the filed report out; throws std::bad_optional_access when
  /// none was filed.  bug_found() stays true (so nothing further is
  /// filed) and report() is left holding a moved-from report.
  [[nodiscard]] BugReport take_report() { return std::move(report_.value()); }

  /// True once the committer finished and every task exited cleanly.
  [[nodiscard]] bool passed() const noexcept { return passed_; }

  /// Finds a wait-for cycle among blocked tasks; exposed for unit tests.
  [[nodiscard]] static std::vector<pcore::TaskId> find_deadlock_cycle(
      const pcore::PcoreKernel& kernel);

 private:
  BugReport& file_report(sim::Soc& soc, BugKind kind,
                         std::string description,
                         std::vector<pcore::TaskId> culprits);

  DetectorConfig config_;
  pcore::PcoreKernel* kernel_;
  const master::Committer* committer_;
  const StateRecorder* recorder_;
  std::optional<BugReport> report_;
  bool passed_ = false;
  std::optional<sim::Tick> committer_finished_at_;
  /// Kernel wait-graph epoch of the last deadlock scan.
  std::optional<std::uint64_t> scanned_epoch_;
};

}  // namespace ptest::core
