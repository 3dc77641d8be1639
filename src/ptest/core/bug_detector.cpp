#include "ptest/core/bug_detector.hpp"

#include <algorithm>

#include "ptest/support/strings.hpp"

namespace ptest::core {

std::vector<pcore::TaskId> BugDetector::find_deadlock_cycle(
    const pcore::PcoreKernel& kernel) {
  // wait_for[t] = owner of the mutex t is blocked on (if blocked).
  std::array<pcore::TaskId, pcore::kMaxTasks> wait_for;
  wait_for.fill(pcore::kInvalidTask);
  for (pcore::TaskId t = 0; t < pcore::kMaxTasks; ++t) {
    const pcore::Tcb& tcb = kernel.tcb(t);
    if (tcb.state != pcore::TaskState::kBlocked || !tcb.waiting_on) continue;
    const pcore::KMutex& mutex = kernel.mutex(*tcb.waiting_on);
    if (mutex.owner) wait_for[t] = *mutex.owner;
  }
  // Walk from every blocked task; a path visits each task at most once,
  // so it fits a fixed array of kMaxTasks.
  std::array<pcore::TaskId, pcore::kMaxTasks> path{};
  for (pcore::TaskId start = 0; start < pcore::kMaxTasks; ++start) {
    if (wait_for[start] == pcore::kInvalidTask) continue;
    std::size_t length = 0;
    std::array<bool, pcore::kMaxTasks> on_path{};
    pcore::TaskId cursor = start;
    while (cursor != pcore::kInvalidTask && !on_path[cursor]) {
      on_path[cursor] = true;
      path[length++] = cursor;
      cursor = wait_for[cursor];
    }
    if (cursor == pcore::kInvalidTask) continue;
    // `cursor` starts the cycle; trim the leading tail.
    const auto end = path.begin() + length;
    return {std::find(path.begin(), end, cursor), end};
  }
  return {};
}

BugReport& BugDetector::file_report(sim::Soc& soc, BugKind kind,
                                    std::string description,
                                    std::vector<pcore::TaskId> culprits) {
  BugReport report;
  report.kind = kind;
  report.detected_at = soc.now();
  report.description = std::move(description);
  report.culprits = std::move(culprits);
  report.kernel = kernel_->snapshot();
  report.state_records = recorder_->render();
  report.trace_tail = soc.trace().render(config_.report_trace_lines);
  report_ = std::move(report);
  soc.record(sim::TraceCategory::kDetector,
             std::string("bug detected: ") + to_string(report_->kind));
  return *report_;
}

bool BugDetector::tick(sim::Soc& soc) {
  if (report_ || passed_) return false;

  // 1. Slave crash.
  if (kernel_->panicked()) {
    file_report(soc, BugKind::kSlaveCrash,
                "slave kernel panicked: " + kernel_->panic_reason(), {});
    return false;
  }

  // 2. Deadlock.  The scan is a pure function of the wait-for graph and a
  // cycle is reported the tick it is found, so while the kernel's epoch
  // stands still the last scan's empty result still holds.
  if (const std::uint64_t epoch = kernel_->wait_graph_epoch();
      scanned_epoch_ != epoch) {
    scanned_epoch_ = epoch;
    if (auto cycle = find_deadlock_cycle(*kernel_); !cycle.empty()) {
      std::string desc = "wait-for cycle:";
      for (const auto t : cycle) {
        desc += " task";
        support::append_decimal(desc, t);
      }
      file_report(soc, BugKind::kDeadlock, std::move(desc), std::move(cycle));
      return false;
    }
  }

  // 3. Unresponsive slave (command timeout).
  for (const auto& [seq, issue] : committer_->outstanding()) {
    if (soc.now() - issue.issued_at > config_.command_timeout) {
      file_report(soc, BugKind::kUnresponsive,
                  "command seq=" + std::to_string(seq) + " (" +
                      bridge::mnemonic(issue.service) +
                      ") unacknowledged for " +
                      std::to_string(soc.now() - issue.issued_at) + " ticks",
                  {});
      return false;
    }
  }

  // 4. Post-pattern termination watchdog / pass detection.
  if (committer_->finished()) {
    if (!committer_finished_at_) committer_finished_at_ = soc.now();
    const std::size_t live = kernel_->live_task_count();
    if (live == 0) {
      passed_ = true;
      return false;
    }
    if (soc.now() - *committer_finished_at_ > config_.termination_horizon) {
      BugReport& report = file_report(
          soc, BugKind::kNoTermination,
          std::to_string(live) +
              " task(s) did not terminate within the horizon",
          {});
      for (const auto& task : report.kernel.tasks) {
        report.culprits.push_back(task.id);
      }
      return false;
    }
  }

  // 5. Starvation (optional).
  if (config_.starvation_horizon != 0) {
    for (pcore::TaskId id = 0; id < pcore::kMaxTasks; ++id) {
      const pcore::Tcb& task = kernel_->tcb(id);
      if (task.state != pcore::TaskState::kReady) continue;
      if (soc.now() - task.last_progress > config_.starvation_horizon) {
        file_report(soc, BugKind::kStarvation,
                    "task " + std::to_string(id) +
                        " ready but unscheduled for " +
                        std::to_string(soc.now() - task.last_progress) +
                        " ticks",
                    {id});
        return false;
      }
    }
  }
  return true;
}

}  // namespace ptest::core
