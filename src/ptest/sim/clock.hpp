// Virtual time for the deterministic dual-core simulation.
//
// One Tick is one simulation step of the SoC (both cores step once per
// tick; the OMAP5912's ARM and DSP run at the same 192 MHz clock, so a
// 1:1 interleave is faithful to the platform's coarse timing).
#pragma once

#include <cstdint>

namespace ptest::sim {

using Tick = std::uint64_t;

class VirtualClock {
 public:
  [[nodiscard]] Tick now() const noexcept { return now_; }
  void advance() noexcept { ++now_; }
  void reset() noexcept { now_ = 0; }

 private:
  Tick now_ = 0;
};

}  // namespace ptest::sim
