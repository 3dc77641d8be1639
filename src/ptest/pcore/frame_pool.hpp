// Recycled coroutine frames for one kernel's tasks.
//
// Every task body is a coroutine, so every task_create allocates a frame
// and every reclaim frees one.  A FramePool keeps the freed blocks on one
// free list per 64-byte size class and hands them to the next frame of
// that class; its blocks survive the kernel's reset(), so a warm session
// allocates no frame from the heap.
//
// CoTask's promise allocates through FramePool::allocate, which serves the
// pool a FramePool::Scope made current on this thread (task_create opens
// one around the program factory).  A frame made with no current pool, or
// one larger than the largest class, comes from the global heap; the
// larger case counts in fallbacks().  Each block starts with a small
// header naming its owning pool, so deallocate returns a frame to the
// right place whichever pool (if any) is current.
//
// Not thread-safe: a pool is used by the thread that drives its kernel.
// It must outlive every frame it served; the kernel declares it before its
// TCBs for that.  Under AddressSanitizer a block on a free list is
// poisoned, so a use of a reclaimed frame is reported as it would be
// after a heap free.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace ptest::pcore {

class FramePool {
 public:
  /// Block sizes, header included, step by this many bytes.
  static constexpr std::size_t kClassBytes = 64;
  /// Size classes: the largest block is kClassCount * kClassBytes bytes.
  static constexpr std::size_t kClassCount = 16;

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  /// Frees every block; every frame the pool served must be gone.
  ~FramePool();

  /// Blocks the pool owns, free or serving a frame.
  [[nodiscard]] std::size_t blocks() const noexcept { return blocks_; }
  /// Frames made while the pool was current but too large for a class.
  [[nodiscard]] std::uint64_t fallbacks() const noexcept {
    return fallbacks_;
  }

  /// Makes `pool` this thread's current pool until the scope ends.
  class Scope {
   public:
    explicit Scope(FramePool& pool) noexcept;
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    FramePool* previous_;
  };

  /// A block for a `size`-byte frame: from the current pool when there is
  /// one and the frame fits a class, else from the global heap.
  [[nodiscard]] static void* allocate(std::size_t size);
  /// Returns a frame allocate() made to the pool that served it, or to
  /// the global heap.
  static void deallocate(void* frame) noexcept;

 private:
  /// Precedes every frame; keeps the frame at the default new alignment.
  struct alignas(__STDCPP_DEFAULT_NEW_ALIGNMENT__) Header {
    FramePool* pool;  // null for a global-heap frame
    union {
      std::size_t size_class;  // while serving a frame
      Header* next;            // while on a free list
    };
  };

  [[nodiscard]] static constexpr std::size_t block_bytes(
      std::size_t size_class) noexcept {
    return (size_class + 1) * kClassBytes;
  }
  [[nodiscard]] Header* take(std::size_t size_class);
  void give(Header* block) noexcept;

  std::array<Header*, kClassCount> free_{};
  std::size_t blocks_ = 0;
  std::uint64_t fallbacks_ = 0;
};

}  // namespace ptest::pcore
