// Bounded execution trace shared by all simulated components.
//
// The paper's bug detector "dumps the related information to help users
// reproduce the bugs"; the trace log is that information.  It is a ring of
// the most recent events so long stress runs stay in constant memory.
//
// An event is recorded as numbers: a code naming what happened plus up to
// two integer arguments.  Its text comes from kTraceFormats only when
// something reads it (a rendered bug report, a golden fingerprint), so the
// tick loop never formats a message nobody looks at.
//
// clear() keeps the ring's slots and their text buffers and only resets
// the count of events held, so a log reused session after session records
// into the slots (and "%t" text buffers) the earlier sessions built.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ptest/sim/clock.hpp"

namespace ptest::sim {

enum class TraceCategory : std::uint8_t {
  kKernel,     // slave kernel service execution / scheduling
  kMailbox,    // inter-core mailbox traffic
  kBridge,     // command/response protocol
  kMaster,     // master thread activity
  kDetector,   // bug-detector observations
  kFault,      // injected-fault activations
};

inline constexpr std::size_t kTraceCategoryCount = 6;

[[nodiscard]] const char* to_string(TraceCategory category) noexcept;

/// What an event says.  The bridge command codes follow bridge::Service
/// order and the bug codes core::BugKind order, so a call site turns its
/// enum into a code with command_code() / bug_code().
enum class TraceCode : std::uint8_t {
  kCommandTC = 0,
  kCommandTD,
  kCommandTS,
  kCommandTR,
  kCommandTCH,
  kCommandTY,
  kTaskExit,
  kRecursiveLock,
  kKernelPanic,
  kThreadDone,
  kBugSlaveCrash,
  kBugDeadlock,
  kBugUnresponsive,
  kBugNoTermination,
  kBugStarvation,
};

inline constexpr std::size_t kTraceCodeCount = 15;

/// Message format per code: "%a" and "%b" print the event's integer
/// arguments in decimal, "%t" its text.
inline constexpr std::array<std::string_view, kTraceCodeCount>
    kTraceFormats = {
        "cmd seq=%a TC task=%b",
        "cmd seq=%a TD task=%b",
        "cmd seq=%a TS task=%b",
        "cmd seq=%a TR task=%b",
        "cmd seq=%a TCH task=%b",
        "cmd seq=%a TY task=%b",
        "task %a exited with code %b",
        "task %a recursive lock of mutex %b",
        "kernel panic: %t",
        "thread '%t' done",
        "bug detected: slave-crash",
        "bug detected: deadlock",
        "bug detected: unresponsive",
        "bug detected: no-termination",
        "bug detected: starvation",
};

[[nodiscard]] constexpr TraceCode command_code(std::uint8_t service) noexcept {
  return static_cast<TraceCode>(service);
}

[[nodiscard]] constexpr TraceCode bug_code(std::uint8_t kind) noexcept {
  return static_cast<TraceCode>(
      static_cast<std::uint8_t>(TraceCode::kBugSlaveCrash) + kind);
}

struct TraceEvent {
  Tick tick = 0;
  TraceCategory category = TraceCategory::kKernel;
  TraceCode code = TraceCode::kTaskExit;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  /// Only the "%t" codes (kernel panic reason, master thread name).
  std::string text;

  /// The message kTraceFormats spells for this event.
  [[nodiscard]] std::string message() const;
  void append_message(std::string& out) const;
  /// Appends "tick [category] message\n".
  void append_line(std::string& out) const;

  [[nodiscard]] bool operator==(const TraceEvent&) const = default;
};

class TraceLog {
 public:
  explicit TraceLog(std::size_t capacity = 4096) : capacity_(capacity) {}

  void record(Tick tick, TraceCategory category, TraceCode code,
              std::uint32_t a = 0, std::uint32_t b = 0);
  void record(Tick tick, TraceCategory category, TraceCode code,
              std::string_view text);

  /// Copies the `count` events before the newest `skip`, oldest first,
  /// into `out`, replacing its contents and reusing its buffer (and its
  /// events' text buffers).
  void tail_into(std::size_t count, std::vector<TraceEvent>& out,
                 std::size_t skip = 0) const;
  /// tail_into() a fresh vector.
  [[nodiscard]] std::vector<TraceEvent> tail(std::size_t count) const;
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Total events ever recorded (including evicted ones).
  [[nodiscard]] std::uint64_t total_recorded() const noexcept {
    return total_;
  }
  /// Forgets every event; the slots and their text buffers stay for the
  /// next events.
  void clear() noexcept;

 private:
  /// Writes the event's numbers (and an empty text) into the next slot:
  /// a kept one while the log holds fewer events than slots, a new one
  /// while the ring grows, the oldest once it holds `capacity_` events.
  /// Returns the slot, or null at capacity 0.
  TraceEvent* place(Tick tick, TraceCategory category, TraceCode code,
                    std::uint32_t a, std::uint32_t b);

  std::size_t capacity_;
  /// Slots built so far; the first size_ hold events, in ring order.
  std::vector<TraceEvent> ring_;
  std::size_t size_ = 0;  // events held, at most capacity_
  std::size_t head_ = 0;  // oldest event once the ring is full
  std::uint64_t total_ = 0;
};

}  // namespace ptest::sim
