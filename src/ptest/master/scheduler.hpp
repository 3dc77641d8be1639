// Round-robin time-sharing scheduler for master threads; a sim::Device
// representing the ARM core's software stack.  It keeps a count of
// threads not yet done, so once all are done a tick is one compare.
// Master stacks wired by hand run on it (the fig1 harness, and the
// reference stacks the session rig is checked against); the rig itself
// steps its one thread, the committer, directly.
#pragma once

#include <memory>
#include <vector>

#include "ptest/master/thread.hpp"
#include "ptest/sim/soc.hpp"

namespace ptest::master {

class MasterScheduler final : public sim::Device {
 public:
  explicit MasterScheduler(bridge::Channel& channel,
                           sim::Tick quantum = 4)
      : channel_(&channel), quantum_(quantum) {}

  /// Adds a thread; returns its index.  Threads added after the
  /// simulation started join the tail of the run queue, and run even
  /// when every earlier thread is already done.
  std::size_t add(std::unique_ptr<MasterThread> thread);

  bool tick(sim::Soc& soc) override;

  /// True once every thread reported kDone.
  [[nodiscard]] bool all_done() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return threads_.size();
  }
  [[nodiscard]] const MasterThread& thread(std::size_t index) const {
    return *threads_.at(index).thread;
  }

 private:
  struct Entry {
    std::unique_ptr<MasterThread> thread;
    bool done = false;
  };

  void rotate();

  bridge::Channel* channel_;
  sim::Tick quantum_;
  std::vector<Entry> threads_;
  std::size_t live_ = 0;  // threads not yet done
  std::size_t current_ = 0;
  sim::Tick used_ = 0;
};

}  // namespace ptest::master
