#include "ptest/fleet/transport.hpp"

namespace ptest::fleet {

InProcessQueue::InProcessQueue(std::size_t capacity) {
  to_worker_.capacity = capacity == 0 ? 1 : capacity;
  to_coordinator_.capacity = capacity == 0 ? 1 : capacity;
}

bool InProcessQueue::Queue::push(const std::string& frame) {
  const std::lock_guard<std::mutex> lock(mutex);
  if (frames.size() >= capacity) return false;
  frames.push_back(frame);
  return true;
}

std::optional<std::string> InProcessQueue::Queue::pop() {
  const std::lock_guard<std::mutex> lock(mutex);
  if (frames.empty()) return std::nullopt;
  std::string frame = std::move(frames.front());
  frames.pop_front();
  return frame;
}

}  // namespace ptest::fleet
