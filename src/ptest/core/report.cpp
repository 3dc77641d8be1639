#include "ptest/core/report.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <string_view>

#include "ptest/support/strings.hpp"

namespace ptest::core {

namespace {
constexpr std::array<const char*, kBugKindCount> kBugKindNames = {
    "slave-crash", "deadlock", "unresponsive", "no-termination",
    "starvation"};

// The detector's "bug detected" trace line is spelled by sim's format
// table, one code per kind in BugKind order; the names there must be these.
static_assert([] {
  constexpr std::string_view kHead = "bug detected: ";
  for (std::size_t i = 0; i < kBugKindCount; ++i) {
    const std::string_view format =
        sim::kTraceFormats[static_cast<std::size_t>(
            sim::bug_code(static_cast<std::uint8_t>(i)))];
    if (!format.starts_with(kHead) ||
        format.substr(kHead.size()) != std::string_view(kBugKindNames[i])) {
      return false;
    }
  }
  return true;
}());
}  // namespace

const char* to_string(BugKind kind) noexcept {
  const auto index = static_cast<std::size_t>(kind);
  return index < kBugKindNames.size() ? kBugKindNames[index] : "?";
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
  std::string text = "state records (Definition 2):\n";
  for (const auto& [slot, cp] : state_records) {
    text += "CP";
    support::append_decimal(text, slot);
    text += "= ";
    cp.append_to(text, alphabet);
    text += '\n';
  }
  out << text;
  out << "merged pattern: " << merged.render(alphabet) << '\n';
  out << "seed: " << seed << '\n';
  if (!trace_tail.empty()) {
    text = "trace tail:\n";
    for (const sim::TraceEvent& event : trace_tail) event.append_line(text);
    out << text;
  }
  return out.str();
}

std::string BugReport::signature() const {
  std::string out;
  append_signature(out);
  return out;
}

void BugReport::append_signature(std::string& out) const {
  out += to_string(kind);
  // Sort a copy of the culprits; a detector names at most one per task
  // slot, so the copy fits on the stack.
  std::array<pcore::TaskId, pcore::kMaxTasks> on_stack;
  std::vector<pcore::TaskId> on_heap;
  pcore::TaskId* first = on_stack.data();
  if (culprits.size() > on_stack.size()) {
    on_heap.assign(culprits.begin(), culprits.end());
    first = on_heap.data();
  } else {
    std::copy(culprits.begin(), culprits.end(), first);
  }
  pcore::TaskId* const last = first + culprits.size();
  std::sort(first, last);
  for (const pcore::TaskId* t = first; t != last; ++t) {
    out += ':';
    support::append_decimal(out, *t);
  }
  if (kind == BugKind::kSlaveCrash) {
    out += '|';
    out += kernel.panic_reason;
  }
}

}  // namespace ptest::core
