#include "ptest/core/report.hpp"

#include <algorithm>
#include <sstream>

#include "ptest/support/strings.hpp"

namespace ptest::core {

const char* to_string(BugKind kind) noexcept {
  switch (kind) {
    case BugKind::kSlaveCrash: return "slave-crash";
    case BugKind::kDeadlock: return "deadlock";
    case BugKind::kUnresponsive: return "unresponsive";
    case BugKind::kNoTermination: return "no-termination";
    case BugKind::kStarvation: return "starvation";
  }
  return "?";
}

std::string BugReport::render(const pfa::Alphabet& alphabet) const {
  std::ostringstream out;
  out << "=== pTest bug report ===\n"
      << "kind       : " << to_string(kind) << '\n'
      << "detected at: tick " << detected_at << '\n'
      << "description: " << description << '\n';
  if (!culprits.empty()) {
    out << "culprit tasks:";
    for (const auto t : culprits) out << ' ' << static_cast<int>(t);
    out << '\n';
  }
  out << "slave kernel: " << (kernel.panicked ? "PANICKED" : "alive")
      << ", live tasks " << kernel.live_tasks << ", service calls "
      << kernel.service_calls << '\n';
  if (kernel.panicked) out << "panic reason: " << kernel.panic_reason << '\n';
  for (const auto& task : kernel.tasks) {
    out << "  task " << static_cast<int>(task.id) << " [" << task.program
        << "] " << pcore::to_string(task.state) << " prio "
        << static_cast<int>(task.priority);
    if (task.waiting_on) {
      out << " waiting-on mutex " << static_cast<int>(*task.waiting_on);
    }
    if (!task.holds.empty()) {
      out << " holds";
      for (const auto m : task.holds) out << " m" << static_cast<int>(m);
    }
    out << '\n';
  }
  out << "state records (Definition 2):\n" << state_records;
  out << "merged pattern: " << merged.render(alphabet) << '\n';
  out << "seed: " << seed << '\n';
  if (!trace_tail.empty()) out << "trace tail:\n" << trace_tail;
  return out.str();
}

std::string BugReport::signature() const {
  std::string out = to_string(kind);
  std::vector<pcore::TaskId> sorted = culprits;
  std::sort(sorted.begin(), sorted.end());
  for (const auto t : sorted) {
    out += ':';
    support::append_decimal(out, t);
  }
  if (kind == BugKind::kSlaveCrash) {
    out += '|';
    out += kernel.panic_reason;
  }
  return out;
}

}  // namespace ptest::core
