#include "ptest/sim/shared_memory.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ptest::sim {

std::size_t SharedSram::reserve(std::size_t size, std::size_t alignment) {
  if (alignment == 0 || (alignment & (alignment - 1)) != 0) {
    throw std::invalid_argument("SharedSram::reserve: bad alignment");
  }
  const std::size_t aligned = (reserved_ + alignment - 1) & ~(alignment - 1);
  if (aligned + size > size_) {
    throw std::length_error("SharedSram::reserve: out of shared memory");
  }
  reserved_ = aligned + size;
  return aligned;
}

void SharedSram::throw_out_of_range(std::size_t offset,
                                    std::size_t size) const {
  throw std::out_of_range("SharedSram: access [" + std::to_string(offset) +
                          ", " + std::to_string(offset + size) +
                          ") beyond size " + std::to_string(size_));
}

void SharedSram::commit(std::size_t end) {
  // Commit every region reserved so far, rounded up to a granule, so the
  // regions' later writes (and reserves that follow soon after) rarely
  // grow the buffer again.
  const std::size_t target = std::max(end, reserved_);
  const std::size_t rounded =
      (target + kCommitGranule - 1) / kCommitGranule * kCommitGranule;
  bytes_.resize(std::min(rounded, size_), 0);
}

void SharedSram::read_uncommitted(std::size_t offset, void* out,
                                  std::size_t size) const {
  std::memset(out, 0, size);
  if (offset < bytes_.size()) {
    std::memcpy(out, bytes_.data() + offset, bytes_.size() - offset);
  }
}

}  // namespace ptest::sim
