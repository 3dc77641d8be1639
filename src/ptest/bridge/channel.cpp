#include "ptest/bridge/channel.hpp"

namespace ptest::bridge {

namespace {

/// Moves every word `doorbell` can deliver at `now` into `credits`; a
/// quiet doorbell costs one pending() check and no take().
void collect(sim::Mailbox& doorbell, sim::Tick now, std::uint32_t& credits) {
  while (doorbell.pending(now)) credits += *doorbell.take(now);
}

}  // namespace

template <typename T>
Channel::Ring<T> Channel::reserve_ring(sim::SharedSram& sram) {
  Ring<T> ring;
  ring.head_offset = sram.reserve(sizeof(std::uint32_t), 4);
  ring.tail_offset = sram.reserve(sizeof(std::uint32_t), 4);
  ring.entries_offset = sram.reserve(sizeof(T) * kRingEntries, 8);
  ring.clear(sram);
  return ring;
}

Channel::Channel(sim::Soc& soc)
    : command_ring_(reserve_ring<Command>(soc.sram())),
      response_ring_(reserve_ring<Response>(soc.sram())) {}

void Channel::reset(sim::Soc& soc) {
  command_ring_.clear(soc.sram());
  response_ring_.clear(soc.sram());
  command_credits_ = 0;
  response_credits_ = 0;
  commands_posted_ = 0;
  responses_posted_ = 0;
}

bool Channel::post_command(sim::Soc& soc, const Command& command) {
  if (command_ring_.full(soc.sram())) return false;
  sim::Mailbox& doorbell = soc.mailboxes().box(kCommandMailbox);
  if (doorbell.full()) return false;
  command_ring_.push(soc.sram(), command);
  const bool posted = doorbell.post(soc.now(), 1);
  // The full() check above makes post() infallible here.
  (void)posted;
  ++commands_posted_;
  soc.record(sim::TraceCategory::kBridge,
             sim::command_code(static_cast<std::uint8_t>(command.service)),
             command.seq, command.task);
  return true;
}

std::optional<Command> Channel::take_command(sim::Soc& soc) {
  collect(soc.mailboxes().box(kCommandMailbox), soc.now(), command_credits_);
  if (command_credits_ == 0 || command_ring_.empty(soc.sram())) {
    return std::nullopt;
  }
  --command_credits_;
  return command_ring_.pop(soc.sram());
}

bool Channel::post_response(sim::Soc& soc, const Response& response) {
  if (response_ring_.full(soc.sram())) return false;
  sim::Mailbox& doorbell = soc.mailboxes().box(kResponseMailbox);
  if (doorbell.full()) return false;
  response_ring_.push(soc.sram(), response);
  (void)doorbell.post(soc.now(), 1);
  ++responses_posted_;
  return true;
}

std::optional<Response> Channel::take_response(sim::Soc& soc) {
  collect(soc.mailboxes().box(kResponseMailbox), soc.now(),
          response_credits_);
  if (response_credits_ == 0 || response_ring_.empty(soc.sram())) {
    return std::nullopt;
  }
  --response_credits_;
  return response_ring_.pop(soc.sram());
}

}  // namespace ptest::bridge
