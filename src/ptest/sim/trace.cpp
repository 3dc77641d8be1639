#include "ptest/sim/trace.hpp"

#include <algorithm>

#include "ptest/support/strings.hpp"

namespace ptest::sim {

namespace {
/// Slots the ring reserves on its first event; it then doubles up to its
/// capacity.  A short session records about this many events.
constexpr std::size_t kFirstReserve = 16;
}  // namespace

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

void TraceEvent::append_message(std::string& out) const {
  const auto index = static_cast<std::size_t>(code);
  if (index >= kTraceFormats.size()) {
    out += '?';
    return;
  }
  std::string_view format = kTraceFormats[index];
  for (std::size_t mark = format.find('%'); mark != std::string_view::npos;
       mark = format.find('%')) {
    out += format.substr(0, mark);
    switch (mark + 1 < format.size() ? format[mark + 1] : '\0') {
      case 'a': support::append_decimal(out, a); break;
      case 'b': support::append_decimal(out, b); break;
      case 't': out += text; break;
      default: out += '%'; break;
    }
    format.remove_prefix(std::min(mark + 2, format.size()));
  }
  out += format;
}

std::string TraceEvent::message() const {
  std::string out;
  append_message(out);
  return out;
}

void TraceEvent::append_line(std::string& out) const {
  support::append_decimal(out, tick);
  out += " [";
  out += to_string(category);
  out += "] ";
  append_message(out);
  out += '\n';
}

TraceEvent* TraceLog::place(Tick tick, TraceCategory category, TraceCode code,
                            std::uint32_t a, std::uint32_t b) {
  if (capacity_ == 0) return nullptr;
  ++total_;
  TraceEvent* slot = nullptr;
  if (size_ < ring_.size()) {
    slot = &ring_[size_++];
  } else if (size_ < capacity_) {
    if (ring_.size() == ring_.capacity()) {
      ring_.reserve(std::min(capacity_,
                             std::max(kFirstReserve, 2 * ring_.size())));
    }
    slot = &ring_.emplace_back();
    ++size_;
  } else {
    slot = &ring_[head_];
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  }
  slot->tick = tick;
  slot->category = category;
  slot->code = code;
  slot->a = a;
  slot->b = b;
  slot->text.clear();  // keeps its buffer: a reused slot allocates nothing
  return slot;
}

void TraceLog::record(Tick tick, TraceCategory category, TraceCode code,
                      std::uint32_t a, std::uint32_t b) {
  (void)place(tick, category, code, a, b);
}

void TraceLog::record(Tick tick, TraceCategory category, TraceCode code,
                      std::string_view text) {
  if (TraceEvent* slot = place(tick, category, code, 0, 0)) {
    slot->text.assign(text);
  }
}

void TraceLog::tail_into(std::size_t count, std::vector<TraceEvent>& out,
                         std::size_t skip) const {
  const std::size_t kept = size_ - std::min(skip, size_);
  const std::size_t take = std::min(count, kept);
  out.resize(take);
  // Oldest first: the ring's logical order starts at head_, which stays
  // 0 until the log holds size_ == capacity_ events.
  const std::size_t first = kept - take;
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t at = head_ + first + i;
    out[i] = ring_[at < size_ ? at : at - size_];
  }
}

std::vector<TraceEvent> TraceLog::tail(std::size_t count) const {
  std::vector<TraceEvent> out;
  tail_into(count, out);
  return out;
}

void TraceLog::clear() noexcept {
  size_ = 0;
  head_ = 0;
  total_ = 0;
}

}  // namespace ptest::sim
