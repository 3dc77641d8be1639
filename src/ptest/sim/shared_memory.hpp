// Shared internal SRAM of the simulated OMAP5912 (250 KB on the real part).
//
// Both cores read and write it; the bridge places its command/response
// rings here.  Accesses are bounds-checked; a trivial bump allocator hands
// out non-overlapping regions to subsystems at setup time (the real
// platform assigns these regions in the board support package).
//
// The modelled size bounds every access, but host memory is committed on
// first touch: a write past the committed prefix grows it over that write
// and every region reserved so far, in 256-byte granules.  A session's
// bridge uses under 1 KiB, so zero-filling the full 250 KiB per SoC would
// dominate short sessions.  A byte that was never written reads as 0
// either way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace ptest::sim {

class SharedSram {
 public:
  static constexpr std::size_t kDefaultSize = 250 * 1024;

  explicit SharedSram(std::size_t size = kDefaultSize) : size_(size) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Reserves `size` bytes aligned to `alignment`; returns the offset.
  /// Throws std::length_error when the SRAM is exhausted.
  [[nodiscard]] std::size_t reserve(std::size_t size,
                                    std::size_t alignment = 8);

  /// Zeroes every committed byte.  Reservations and the committed
  /// buffer stay, so the regions handed out so far keep their offsets
  /// and read as a fresh SRAM's do.
  void clear_contents() noexcept {
    std::fill(bytes_.begin(), bytes_.end(), std::uint8_t{0});
  }

  /// Remaining unreserved bytes.
  [[nodiscard]] std::size_t available() const noexcept {
    return size_ - reserved_;
  }

  template <typename T>
  [[nodiscard]] T read(std::size_t offset) const {
    static_assert(std::is_trivially_copyable_v<T>);
    check(offset, sizeof(T));
    T value;
    if (offset + sizeof(T) <= bytes_.size()) {
      std::memcpy(&value, bytes_.data() + offset, sizeof(T));
    } else {
      read_uncommitted(offset, &value, sizeof(T));
    }
    return value;
  }

  template <typename T>
  void write(std::size_t offset, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    check(offset, sizeof(T));
    if (offset + sizeof(T) > bytes_.size()) commit(offset + sizeof(T));
    std::memcpy(bytes_.data() + offset, &value, sizeof(T));
  }

 private:
  void check(std::size_t offset, std::size_t size) const {
    if (offset + size > size_) throw_out_of_range(offset, size);
  }
  /// Throws std::out_of_range for the access [offset, offset + size).
  /// Out of line and cold, so the check inlined into every access is a
  /// compare and a branch.
  [[noreturn, gnu::cold, gnu::noinline]] void throw_out_of_range(
      std::size_t offset, std::size_t size) const;

  static constexpr std::size_t kCommitGranule = 256;

  /// Grows the committed prefix, zero-filled, to cover `end` and every
  /// reserved region.
  void commit(std::size_t end);
  /// Copies a range reaching past the committed prefix; the uncommitted
  /// part reads as zeros.
  void read_uncommitted(std::size_t offset, void* out, std::size_t size) const;

  std::size_t size_;
  std::vector<std::uint8_t> bytes_;  // committed prefix of the SRAM
  std::size_t reserved_ = 0;
};

}  // namespace ptest::sim
