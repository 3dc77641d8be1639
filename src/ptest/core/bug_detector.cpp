#include "ptest/core/bug_detector.hpp"

#include <algorithm>
#include <limits>

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

BugReport& BugDetector::file_report(sim::Soc& soc, BugKind kind) {
  filed_ = true;
  report_.kind = kind;
  report_.detected_at = soc.now();
  report_.description.clear();
  report_.culprits.clear();
  report_.kernel.panicked = kernel_->panicked();
  report_.kernel.panic_reason.assign(kernel_->panic_reason());
  soc.record(sim::TraceCategory::kDetector,
             sim::bug_code(static_cast<std::uint8_t>(kind)));
  return report_;
}

sim::Tick BugDetector::quiet_deadline(sim::Tick now) const noexcept {
  if (!committer_finished_at_ || !committer_->outstanding().empty()) {
    return now + 1;
  }
  // The first tick on which `since` is more than `horizon` ticks ago;
  // saturates rather than wrapping past the last tick.
  const auto first_past = [](sim::Tick since, sim::Tick horizon) {
    constexpr sim::Tick kNever = std::numeric_limits<sim::Tick>::max();
    return horizon >= kNever - since ? kNever : since + horizon + 1;
  };
  sim::Tick deadline =
      first_past(*committer_finished_at_, config_.termination_horizon);
  if (config_.starvation_horizon != 0) {
    // Only a task ready on that tick can starve.  With no unblock (the
    // epoch moves) and no resume or create (no command arrives), such a
    // task is runnable now, and its last_progress only grows.  The running
    // task is included: a preemption could leave it ready.
    for (pcore::SlotMask m = kernel_->runnable_mask(); m != 0; m &= m - 1) {
      const pcore::Tcb& task = kernel_->tcb(pcore::lowest_slot(m));
      deadline = std::min(
          deadline, first_past(task.last_progress, config_.starvation_horizon));
    }
  }
  return std::max(deadline, now + 1);
}

bool BugDetector::tick(sim::Soc& soc) {
  if (filed_ || passed_) return false;

  // Descriptions are appended into the kept report's string.
  using support::append_decimal;

  // 1. Slave crash.
  if (kernel_->panicked()) {
    std::string& desc = file_report(soc, BugKind::kSlaveCrash).description;
    desc += "slave kernel panicked: ";
    desc += kernel_->panic_reason();
    return false;
  }

  // 2. Deadlock.  The scan is a pure function of the wait-for graph and a
  // cycle is reported the tick it is found, so while the kernel's epoch
  // stands still the last scan's empty result still holds.  Epoch 0 counts
  // as scanned: the graph has no edge there (see the header).
  if (const std::uint64_t epoch = kernel_->wait_graph_epoch();
      scanned_epoch_ != epoch) {
    scanned_epoch_ = epoch;
    if (auto cycle = find_deadlock_cycle(*kernel_); !cycle.empty()) {
      BugReport& report = file_report(soc, BugKind::kDeadlock);
      report.description += "wait-for cycle:";
      for (const auto t : cycle) {
        report.description += " task";
        append_decimal(report.description, t);
      }
      report.culprits.assign(cycle.begin(), cycle.end());
      return false;
    }
  }

  // 3. Unresponsive slave (command timeout).
  for (const auto& [seq, issue] : committer_->outstanding()) {
    if (soc.now() - issue.issued_at > config_.command_timeout) {
      const sim::Tick waited = soc.now() - issue.issued_at;
      std::string& desc = file_report(soc, BugKind::kUnresponsive).description;
      desc += "command seq=";
      append_decimal(desc, seq);
      desc += " (";
      desc += bridge::mnemonic(issue.service);
      desc += ") unacknowledged for ";
      append_decimal(desc, waited);
      desc += " ticks";
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
      BugReport& report = file_report(soc, BugKind::kNoTermination);
      append_decimal(report.description, live);
      report.description += " task(s) did not terminate within the horizon";
      // Every occupied slot, in ascending order: the tasks a kernel
      // snapshot lists.
      for (pcore::TaskId t = 0; t < pcore::kMaxTasks; ++t) {
        if (kernel_->tcb(t).state != pcore::TaskState::kFree) {
          report.culprits.push_back(t);
        }
      }
      return false;
    }
  }

  // 5. Starvation (optional).
  if (config_.starvation_horizon != 0) {
    for (pcore::SlotMask m = kernel_->runnable_mask(); m != 0; m &= m - 1) {
      const pcore::TaskId id = pcore::lowest_slot(m);
      const pcore::Tcb& task = kernel_->tcb(id);
      if (task.state != pcore::TaskState::kReady) continue;
      if (soc.now() - task.last_progress > config_.starvation_horizon) {
        const sim::Tick waited = soc.now() - task.last_progress;
        BugReport& report = file_report(soc, BugKind::kStarvation);
        report.description += "task ";
        append_decimal(report.description, id);
        report.description += " ready but unscheduled for ";
        append_decimal(report.description, waited);
        report.description += " ticks";
        report.culprits.push_back(id);
        return false;
      }
    }
  }
  return true;
}

}  // namespace ptest::core
