#include "ptest/sim/trace.hpp"

#include <algorithm>

#include "ptest/support/strings.hpp"

namespace ptest::sim {

const char* to_string(TraceCategory category) noexcept {
  switch (category) {
    case TraceCategory::kKernel: return "kernel";
    case TraceCategory::kMailbox: return "mailbox";
    case TraceCategory::kBridge: return "bridge";
    case TraceCategory::kMaster: return "master";
    case TraceCategory::kDetector: return "detector";
    case TraceCategory::kFault: return "fault";
  }
  return "?";
}

void TraceLog::record(Tick tick, TraceCategory category, std::string message) {
  if (capacity_ == 0) return;
  if (events_.size() == capacity_) events_.pop_front();
  events_.push_back({tick, category, std::move(message)});
  ++total_;
}

std::vector<TraceEvent> TraceLog::tail(std::size_t count) const {
  const std::size_t take = std::min(count, events_.size());
  return {events_.end() - static_cast<std::ptrdiff_t>(take), events_.end()};
}

void TraceLog::clear() {
  events_.clear();
  total_ = 0;
}

std::string TraceLog::render(std::size_t count) const {
  const std::size_t take = std::min(count, events_.size());
  std::string out;
  for (auto e = events_.end() - static_cast<std::ptrdiff_t>(take);
       e != events_.end(); ++e) {
    support::append_decimal(out, e->tick);
    out += " [";
    out += to_string(e->category);
    out += "] ";
    out += e->message;
    out += '\n';
  }
  return out;
}

}  // namespace ptest::sim
