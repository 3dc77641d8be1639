// The simulated OMAP5912 SoC: two cores (ARM master, DSP slave), the
// mailbox bank, and shared SRAM, driven by one deterministic tick loop.
//
// Substitution note (DESIGN.md §2): pTest observes the platform only
// through mailbox semantics, shared-memory polling and relative core
// progress.  The simulator exposes exactly those; determinism (everything
// sequenced by the tick loop, all randomness from seeded Rng streams) is
// what makes the paper's bug reproduction claim checkable.
//
// run()/step() over attached Devices is the generic tick loop, for stacks
// wired by hand (unit tests, reference oracles, harnesses that wrap each
// device).  core::SessionRig::run does not use it: it steps its own
// devices in the same order and with the same semantics (see
// core/session.hpp).
#pragma once

#include <memory>
#include <vector>

#include "ptest/sim/clock.hpp"
#include "ptest/sim/mailbox.hpp"
#include "ptest/sim/shared_memory.hpp"
#include "ptest/sim/trace.hpp"

namespace ptest::sim {

class Soc;

/// A device stepped once per tick (a core's software stack, or an observer
/// such as the bug detector).
class Device {
 public:
  virtual ~Device() = default;
  /// One tick of execution.  Return false to request simulation stop
  /// (e.g. the bug detector found a failure, or the committer finished).
  virtual bool tick(Soc& soc) = 0;
};

class Soc {
 public:
  /// Default-sized SRAM, kMailboxLatency mailboxes, a 4096-event trace.
  Soc();

  [[nodiscard]] VirtualClock& clock() noexcept { return clock_; }
  [[nodiscard]] const VirtualClock& clock() const noexcept { return clock_; }
  [[nodiscard]] Tick now() const noexcept { return clock_.now(); }

  [[nodiscard]] SharedSram& sram() noexcept { return sram_; }
  [[nodiscard]] MailboxBank& mailboxes() noexcept { return mailboxes_; }
  [[nodiscard]] const MailboxBank& mailboxes() const noexcept {
    return mailboxes_;
  }
  [[nodiscard]] TraceLog& trace() noexcept { return trace_; }
  [[nodiscard]] const TraceLog& trace() const noexcept { return trace_; }

  void record(TraceCategory category, TraceCode code, std::uint32_t a = 0,
              std::uint32_t b = 0) {
    trace_.record(clock_.now(), category, code, a, b);
  }
  void record(TraceCategory category, TraceCode code, std::string_view text) {
    trace_.record(clock_.now(), category, code, text);
  }

  /// Registers a device; devices are stepped in registration order (ARM
  /// master first, then DSP slave, then observers — callers register in
  /// that order).
  void attach(Device& device) { devices_.push_back(&device); }

  /// Returns to the freshly constructed state for the next session on
  /// the same devices: the clock to 0, committed SRAM zeroed with its
  /// reservations kept, mailboxes fresh and the trace cleared.  The
  /// attached devices stay attached, and every buffer keeps its
  /// capacity.
  void reset() noexcept;

  /// Runs up to `max_ticks`; returns the tick count actually executed.
  /// Stops early when any device's tick() returns false.
  Tick run(Tick max_ticks);

  /// Steps one tick; false if any device requested stop.
  bool step();

 private:
  VirtualClock clock_;
  SharedSram sram_;
  MailboxBank mailboxes_;
  TraceLog trace_;
  std::vector<Device*> devices_;
};

}  // namespace ptest::sim
