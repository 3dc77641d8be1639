#include "ptest/sim/mailbox.hpp"

namespace ptest::sim {

Mailbox::Mailbox(CoreId sender, CoreId receiver, std::size_t depth,
                 Tick delivery_latency)
    : sender_(sender),
      receiver_(receiver),
      depth_(depth),
      latency_(delivery_latency) {
  if (depth == 0 || depth > kMaxDepth) {
    throw std::invalid_argument("Mailbox: depth must be 1..4");
  }
}

bool Mailbox::post(Tick now, std::uint32_t word) {
  if (full()) return false;
  ring_[(head_ + count_) % kMaxDepth] = {now + latency_, word};
  ++count_;
  ++posted_;
  return true;
}

MailboxBank::MailboxBank()
    : boxes_{Mailbox(CoreId::kArm, CoreId::kDsp),
             Mailbox(CoreId::kArm, CoreId::kDsp),
             Mailbox(CoreId::kDsp, CoreId::kArm),
             Mailbox(CoreId::kDsp, CoreId::kArm)} {}

bool MailboxBank::interrupt_pending(CoreId core, Tick now) const {
  for (const Mailbox& box : boxes_) {
    if (box.receiver() == core && box.pending(now)) return true;
  }
  return false;
}

}  // namespace ptest::sim
