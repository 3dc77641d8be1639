// The committee: the slave-side agent of pTest (Fig. 2 of the paper).
//
// A sim::Device stepped just before the kernel each tick: it drains remote
// commands from the bridge channel, invokes the corresponding pCore
// services, and posts responses.  Processing is rate-limited per tick to
// model the DSP cycles the dispatcher costs on the real platform.
//
// The committee wakes on its doorbell: a tick on which it is idle() (no
// unposted response and no command ready, Channel::command_ready)
// returns after that one check, which is exactly the set of ticks on
// which draining the channel would find nothing and change no state.
#pragma once

#include <vector>

#include "ptest/bridge/channel.hpp"
#include "ptest/pcore/kernel.hpp"

namespace ptest::bridge {

class Committee final : public sim::Device {
 public:
  Committee(Channel& channel, pcore::PcoreKernel& kernel,
            std::size_t commands_per_tick = 2)
      : channel_(&channel),
        kernel_(&kernel),
        commands_per_tick_(commands_per_tick) {}

  bool tick(sim::Soc& soc) override;

  /// True when a tick at `soc`'s current time would change nothing: no
  /// response is waiting to be posted and no command is ready.  tick()
  /// returns at once on such a tick.
  [[nodiscard]] bool idle(const sim::Soc& soc) const {
    return backlog_.empty() && !channel_->command_ready(soc);
  }

  /// Drops the response backlog (keeping its buffer) and zeroes the
  /// executed count, as freshly constructed.
  void reset() noexcept {
    backlog_.clear();
    executed_ = 0;
  }

  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  Response execute(const Command& command);
  /// Posts backlogged responses in FIFO order; true once none is left.
  bool flush_backlog(sim::Soc& soc);

  Channel* channel_;
  pcore::PcoreKernel* kernel_;
  std::size_t commands_per_tick_;
  /// Responses that could not be posted yet (response ring full), oldest
  /// first.  Empty on almost every tick, so it allocates only when used.
  std::vector<Response> backlog_;
  std::uint64_t executed_ = 0;
};

}  // namespace ptest::bridge
