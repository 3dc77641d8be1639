#include "ptest/sim/soc.hpp"

namespace ptest::sim {

Soc::Soc() {
  // A session attaches four devices: master, committee, kernel, detector.
  devices_.reserve(4);
}

void Soc::reset() noexcept {
  clock_.reset();
  sram_.clear_contents();
  mailboxes_.reset();
  trace_.clear();
}

bool Soc::step() {
  bool keep_running = true;
  for (Device* device : devices_) {
    if (!device->tick(*this)) keep_running = false;
  }
  clock_.advance();
  return keep_running;
}

Tick Soc::run(Tick max_ticks) {
  Tick executed = 0;
  while (executed < max_ticks) {
    ++executed;
    if (!step()) break;
  }
  return executed;
}

}  // namespace ptest::sim
