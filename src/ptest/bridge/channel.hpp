// Bidirectional command/response channel over shared SRAM + mailboxes.
//
// Layout (reserved from the SoC's SharedSram at construction):
//   command ring : head, tail (uint32 each) + kRingEntries * Command
//   response ring: head, tail (uint32 each) + kRingEntries * Response
//
// The master posts commands and rings mailbox 0 (ARM -> DSP); the slave
// polls its doorbell, drains the ring, executes, pushes responses and
// rings mailbox 2 (DSP -> ARM).  Doorbells carry the number of new
// entries; a full ring or mailbox makes post() fail and the caller retries
// next tick — the polling behaviour the paper describes.
#pragma once

#include <optional>

#include "ptest/bridge/protocol.hpp"
#include "ptest/sim/soc.hpp"

namespace ptest::bridge {

class Channel {
 public:
  static constexpr std::size_t kRingEntries = 16;
  static constexpr std::size_t kCommandMailbox = 0;   // ARM -> DSP
  static constexpr std::size_t kResponseMailbox = 2;  // DSP -> ARM

  /// Reserves the rings in `soc`'s shared SRAM.
  explicit Channel(sim::Soc& soc);

  /// Empties both rings in `soc` (the SoC it was built on) and zeroes
  /// the credits and counters, as freshly constructed.  The rings keep
  /// their SRAM regions.
  void reset(sim::Soc& soc);

  // --- master side ----------------------------------------------------------
  /// Posts a command; false when the ring or doorbell mailbox is full.
  bool post_command(sim::Soc& soc, const Command& command);
  /// True when take_response could return a response this tick: doorbell
  /// credits are in hand, or the doorbell has a deliverable word.  When
  /// false, take_response returns nothing and changes no state.
  [[nodiscard]] bool response_ready(const sim::Soc& soc) const {
    return response_credits_ != 0 ||
           soc.mailboxes().box(kResponseMailbox).pending(soc.now());
  }
  /// Takes the next response if one is deliverable.
  std::optional<Response> take_response(sim::Soc& soc);

  // --- slave side -----------------------------------------------------------
  /// True when take_command could return a command this tick: doorbell
  /// credits are in hand, or the doorbell has a deliverable word.  When
  /// false, take_command returns nothing and changes no state.
  [[nodiscard]] bool command_ready(const sim::Soc& soc) const {
    return command_credits_ != 0 ||
           soc.mailboxes().box(kCommandMailbox).pending(soc.now());
  }
  /// Takes the next command if the doorbell has fired and one is pending.
  std::optional<Command> take_command(sim::Soc& soc);
  /// Posts a response; false when the ring or doorbell mailbox is full.
  bool post_response(sim::Soc& soc, const Response& response);

  // --- accounting -----------------------------------------------------------
  [[nodiscard]] std::uint64_t commands_posted() const noexcept {
    return commands_posted_;
  }
  [[nodiscard]] std::uint64_t responses_posted() const noexcept {
    return responses_posted_;
  }

 private:
  template <typename T>
  struct Ring {
    std::size_t head_offset;   // uint32 in SRAM
    std::size_t tail_offset;   // uint32 in SRAM
    std::size_t entries_offset;

    [[nodiscard]] std::uint32_t head(const sim::SharedSram& sram) const {
      return sram.read<std::uint32_t>(head_offset);
    }
    [[nodiscard]] std::uint32_t tail(const sim::SharedSram& sram) const {
      return sram.read<std::uint32_t>(tail_offset);
    }
    [[nodiscard]] bool full(const sim::SharedSram& sram) const {
      return tail(sram) - head(sram) >= kRingEntries;
    }
    [[nodiscard]] bool empty(const sim::SharedSram& sram) const {
      return tail(sram) == head(sram);
    }
    void push(sim::SharedSram& sram, const T& value) const {
      const std::uint32_t t = tail(sram);
      sram.write(entries_offset + (t % kRingEntries) * sizeof(T), value);
      sram.write(tail_offset, t + 1);
    }
    void clear(sim::SharedSram& sram) const {
      sram.write<std::uint32_t>(head_offset, 0);
      sram.write<std::uint32_t>(tail_offset, 0);
    }
    [[nodiscard]] T pop(sim::SharedSram& sram) const {
      const std::uint32_t h = head(sram);
      T value = sram.read<T>(entries_offset + (h % kRingEntries) * sizeof(T));
      sram.write(head_offset, h + 1);
      return value;
    }
  };

  template <typename T>
  Ring<T> reserve_ring(sim::SharedSram& sram);

  Ring<Command> command_ring_;
  Ring<Response> response_ring_;
  /// Doorbell credits: words taken from the mailbox grant ring pops.
  std::uint32_t command_credits_ = 0;
  std::uint32_t response_credits_ = 0;
  std::uint64_t commands_posted_ = 0;
  std::uint64_t responses_posted_ = 0;
};

}  // namespace ptest::bridge
