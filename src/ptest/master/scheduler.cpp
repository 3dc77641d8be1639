#include "ptest/master/scheduler.hpp"

namespace ptest::master {

std::size_t MasterScheduler::add(std::unique_ptr<MasterThread> thread) {
  threads_.push_back({std::move(thread), false});
  ++live_;
  return threads_.size() - 1;
}

void MasterScheduler::rotate() {
  if (threads_.empty()) return;
  used_ = 0;
  for (std::size_t i = 1; i <= threads_.size(); ++i) {
    const std::size_t candidate = (current_ + i) % threads_.size();
    if (!threads_[candidate].done) {
      current_ = candidate;
      return;
    }
  }
}

bool MasterScheduler::tick(sim::Soc& soc) {
  if (live_ == 0) return true;
  if (threads_[current_].done) rotate();
  Entry& entry = threads_[current_];
  MasterContext ctx(soc, *channel_);
  const ThreadStep result = entry.thread->step(ctx);
  ++used_;
  switch (result) {
    case ThreadStep::kContinue:
      if (used_ >= quantum_) rotate();
      break;
    case ThreadStep::kWaiting:
      rotate();
      break;
    case ThreadStep::kDone:
      entry.done = true;
      --live_;
      soc.record(sim::TraceCategory::kMaster, sim::TraceCode::kThreadDone,
                 entry.thread->name());
      rotate();
      break;
  }
  return true;
}

}  // namespace ptest::master
