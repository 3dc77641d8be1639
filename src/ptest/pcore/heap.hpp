// pCore kernel heap: a first-fit free-list allocator over the DSP's 160 KB
// internal memory, with deferred reclamation ("garbage collection") of
// resources owned by deleted tasks.
//
// pCore frees a deleted task's TCB and stack lazily: task_delete moves the
// task's blocks onto a graveyard list, and the collector sweeps the
// graveyard and coalesces adjacent free blocks when the kernel is idle or
// an allocation would otherwise fail.  This mirrors the "failure of
// garbage collection" the paper's case study 1 exposes: the heap carries a
// fault-injection plan that, when armed, corrupts a block header during a
// sweep under create/delete churn at high task pressure — reproducing a
// latent GC bug that only heavy stress uncovers.
//
// All sizes are in bytes; blocks are 8-byte aligned with a 16-byte header.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ptest::pcore {

/// Ground-truth fault plan (see DESIGN.md §2: the paper reports *that* a GC
/// crash exists; we seed an equivalent latent bug so the experiment has a
/// detectable ground truth).
struct HeapFaultPlan {
  /// Master switch.
  bool gc_corruption = false;
  /// The sweep corrupts a header only after this many graveyard
  /// reclamations have happened in total...
  std::uint32_t churn_threshold = 48;
  /// ...and only while at least this many live allocations exist (the
  /// "16 active tasks" pressure of case study 1; each task holds 2 blocks).
  std::uint32_t live_block_threshold = 24;
};

struct HeapStats {
  std::size_t capacity = 0;
  std::size_t live_bytes = 0;
  std::size_t live_blocks = 0;
  std::size_t free_bytes = 0;
  std::size_t graveyard_blocks = 0;
  std::uint64_t total_allocs = 0;
  std::uint64_t total_frees = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t coalesced = 0;
};

class KernelHeap {
 public:
  static constexpr std::size_t kDefaultCapacity = 160 * 1024;

  explicit KernelHeap(std::size_t capacity = kDefaultCapacity,
                      HeapFaultPlan fault_plan = {});

  /// Allocates `size` bytes; returns the block offset, or nullopt when out
  /// of memory even after collection.  Detects header corruption and sets
  /// panic() instead of returning.
  [[nodiscard]] std::optional<std::uint32_t> alloc(std::size_t size);

  /// Immediate free (for kernel-internal buffers).
  void free(std::uint32_t offset);

  /// Deferred free: the block is parked on the graveyard until the next
  /// collection (used for deleted tasks' TCB/stack).
  void defer_free(std::uint32_t offset);

  /// Sweeps the graveyard and coalesces free blocks.  This is where the
  /// injected GC bug fires (when armed and thresholds are met).
  void collect();

  /// True once heap-metadata corruption has been detected; the kernel
  /// treats this as a panic.  `panic_reason` describes the detection site.
  [[nodiscard]] bool panicked() const noexcept { return panicked_; }
  [[nodiscard]] const std::string& panic_reason() const noexcept {
    return panic_reason_;
  }

  [[nodiscard]] HeapStats stats() const;
  /// stats().gc_runs without the O(blocks) free-byte walk.
  [[nodiscard]] std::uint64_t gc_runs() const noexcept {
    return stats_.gc_runs;
  }
  /// stats().graveyard_blocks without the walk.
  [[nodiscard]] std::size_t graveyard_blocks() const noexcept {
    return graveyard_.size();
  }

  /// Verifies all block headers; returns false (and sets panic) on
  /// corruption.  Runs in O(blocks).
  bool check_integrity();

  [[nodiscard]] const HeapFaultPlan& fault_plan() const noexcept {
    return fault_plan_;
  }

 private:
  struct Block {
    std::uint32_t magic;
    std::uint32_t size;     // payload bytes
    bool free;
    bool in_graveyard;
  };

  static constexpr std::uint32_t kMagic = 0xbeefcafe;
  static constexpr std::uint32_t kHeader = 16;

  [[nodiscard]] std::size_t index_of(std::uint32_t offset) const;
  void panic(std::string reason);

  std::size_t capacity_;
  HeapFaultPlan fault_plan_;
  // Simulated layout: blocks ordered by offset.  (We model headers as
  // metadata rather than raw bytes; the *behaviour* — fragmentation,
  // coalescing, corruption detection via magic — matches a real free list.)
  std::vector<std::pair<std::uint32_t, Block>> blocks_;  // (offset, block)
  std::vector<std::uint32_t> graveyard_;
  std::uint32_t churn_ = 0;
  bool corruption_armed_fired_ = false;
  bool panicked_ = false;
  std::string panic_reason_;
  HeapStats stats_;
};

}  // namespace ptest::pcore
