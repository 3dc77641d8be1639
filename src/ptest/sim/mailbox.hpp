// The OMAP5912 mailbox block: four unidirectional word mailboxes used for
// inter-processor signalling (two per direction on the real part).
//
// A write enqueues a 32-bit word; the word becomes visible to the receiver
// `delivery_latency` ticks later (modelling the interconnect), at which
// point the receiving core's pending flag (interrupt line) is raised.  The
// FIFO is a fixed ring of at most four words, the hardware's depth, held
// inline in the Mailbox; writing to a full mailbox fails, which the bridge
// handles with retry — the polling behaviour the paper describes for
// "processors polling events through shared memory and sending events by
// triggering interrupts".  pending() is the interrupt line: receivers
// check it before they take, so a quiet doorbell costs one compare.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "ptest/sim/clock.hpp"

namespace ptest::sim {

enum class CoreId : std::uint8_t { kArm = 0, kDsp = 1 };

[[nodiscard]] constexpr const char* to_string(CoreId core) noexcept {
  return core == CoreId::kArm ? "ARM" : "DSP";
}

/// Ticks from post until a word is visible to the receiver.
inline constexpr Tick kMailboxLatency = 2;

class Mailbox {
 public:
  /// The OMAP5912 FIFO depth, and the deepest a Mailbox can be.
  static constexpr std::size_t kMaxDepth = 4;

  /// Throws std::invalid_argument unless 1 <= depth <= kMaxDepth.
  Mailbox(CoreId sender, CoreId receiver, std::size_t depth = kMaxDepth,
          Tick delivery_latency = kMailboxLatency);

  [[nodiscard]] CoreId sender() const noexcept { return sender_; }
  [[nodiscard]] CoreId receiver() const noexcept { return receiver_; }

  /// Posts a word at time `now`; false if the FIFO is full.
  bool post(Tick now, std::uint32_t word);

  /// True if a word is deliverable at time `now` (latency elapsed).
  [[nodiscard]] bool pending(Tick now) const noexcept {
    return count_ != 0 && ring_[head_].visible_at <= now;
  }

  /// Takes the next deliverable word, or nullopt.
  std::optional<std::uint32_t> take(Tick now) {
    if (!pending(now)) return std::nullopt;
    const std::uint32_t word = ring_[head_].word;
    head_ = (head_ + 1) % kMaxDepth;
    --count_;
    ++delivered_;
    return word;
  }

  /// Empties the FIFO and zeroes the counters, as freshly constructed.
  void reset() noexcept {
    head_ = 0;
    count_ = 0;
    posted_ = 0;
    delivered_ = 0;
  }

  [[nodiscard]] std::size_t queued() const noexcept { return count_; }
  [[nodiscard]] bool full() const noexcept { return count_ >= depth_; }

  /// Words posted / delivered since construction (for Table I accounting).
  [[nodiscard]] std::uint64_t posted_count() const noexcept { return posted_; }
  [[nodiscard]] std::uint64_t delivered_count() const noexcept {
    return delivered_;
  }

 private:
  struct Entry {
    Tick visible_at;
    std::uint32_t word;
  };

  CoreId sender_;
  CoreId receiver_;
  std::size_t depth_;
  Tick latency_;
  /// FIFO ring: `count_` words starting at `head_`.
  std::array<Entry, kMaxDepth> ring_{};
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::uint64_t posted_ = 0;
  std::uint64_t delivered_ = 0;
};

/// The four-mailbox bank of the OMAP5912: indices 0,1 are ARM -> DSP and
/// 2,3 are DSP -> ARM.
class MailboxBank {
 public:
  static constexpr std::size_t kCount = 4;

  /// Every box delivers after kMailboxLatency ticks.
  MailboxBank();

  /// Throws std::out_of_range for an index >= kCount.
  [[nodiscard]] Mailbox& box(std::size_t index) {
    check(index);
    return boxes_[index];
  }
  [[nodiscard]] const Mailbox& box(std::size_t index) const {
    check(index);
    return boxes_[index];
  }

  /// Resets every mailbox (see Mailbox::reset).
  void reset() noexcept {
    for (Mailbox& box : boxes_) box.reset();
  }

  /// True if any mailbox addressed to `core` has a deliverable word.
  [[nodiscard]] bool interrupt_pending(CoreId core, Tick now) const;

 private:
  static void check(std::size_t index) {
    if (index >= kCount) {
      throw std::out_of_range("MailboxBank: index out of range");
    }
  }

  std::array<Mailbox, kCount> boxes_;
};

}  // namespace ptest::sim
