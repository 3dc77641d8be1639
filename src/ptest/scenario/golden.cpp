#include "ptest/scenario/golden.hpp"

#include <string>

namespace ptest::scenario {

std::uint64_t trace_fingerprint(const core::SessionResult& result,
                                const pattern::MergedPattern& merged,
                                const sim::TraceLog& trace) {
  std::uint64_t hash = kFnvOffset;
  hash = fnv1a(hash, static_cast<std::uint64_t>(result.outcome));
  hash = fnv1a(hash, static_cast<std::uint64_t>(result.stats.ticks));
  hash = fnv1a(hash, result.stats.commands_issued);
  hash = fnv1a(hash, result.stats.commands_acked);
  hash = fnv1a(hash, result.stats.commands_failed);
  hash = fnv1a(hash, result.stats.kernel_service_calls);
  hash = fnv1a(hash, result.stats.context_switches);
  hash = fnv1a(hash, result.stats.gc_runs);
  for (const pattern::MergedElement& element : merged.elements) {
    hash = fnv1a(hash, element.slot);
    hash = fnv1a(hash, element.symbol);
  }
  if (result.report) {
    hash = fnv1a(hash, result.report->signature());
    hash = fnv1a(hash, static_cast<std::uint64_t>(result.report->detected_at));
  }
  hash = fnv1a(hash, trace.total_recorded());
  std::string message;
  for (const sim::TraceEvent& event : trace.tail(trace.size())) {
    hash = fnv1a(hash, static_cast<std::uint64_t>(event.tick));
    hash = fnv1a(hash, sim::to_string(event.category));
    message.clear();
    event.append_message(message);
    hash = fnv1a(hash, message);
  }
  return hash;
}

std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) noexcept {
  // Length separator so ("ab","c") never collides with ("a","bc").
  return fnv1a(support::fnv1a_bytes(hash, bytes),
               static_cast<std::uint64_t>(bytes.size()));
}

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) noexcept {
  return support::fnv1a_word(hash, value, 8);
}

}  // namespace ptest::scenario
