#include "ptest/pcore/heap.hpp"

#include <algorithm>
#include <stdexcept>

namespace ptest::pcore {

KernelHeap::KernelHeap(std::size_t capacity, HeapFaultPlan fault_plan)
    : capacity_(capacity), fault_plan_(fault_plan) {
  blocks_.reserve(kReservedBlocks);
  merged_.reserve(kReservedBlocks);
  reset();
}

void KernelHeap::reset() {
  blocks_.clear();
  Block initial{kMagic, static_cast<std::uint32_t>(capacity_ - kHeader), true,
                false};
  blocks_.emplace_back(0, initial);
  graveyard_.clear();
  churn_ = 0;
  corruption_armed_fired_ = false;
  panicked_ = false;
  panic_reason_.clear();
  stats_ = HeapStats{};
  stats_.capacity = capacity_;
}

std::size_t KernelHeap::index_of(std::uint32_t offset) const {
  const auto it = std::lower_bound(
      blocks_.begin(), blocks_.end(), offset,
      [](const auto& entry, std::uint32_t off) { return entry.first < off; });
  if (it == blocks_.end() || it->first != offset) {
    throw std::invalid_argument("KernelHeap: unknown block offset " +
                                std::to_string(offset));
  }
  return static_cast<std::size_t>(it - blocks_.begin());
}

void KernelHeap::panic(std::string reason) {
  panicked_ = true;
  panic_reason_ = std::move(reason);
}

std::optional<std::uint32_t> KernelHeap::alloc(std::size_t size) {
  if (panicked_) return std::nullopt;
  if (size == 0) size = 1;
  const auto need = static_cast<std::uint32_t>((size + 7) & ~std::size_t{7});

  for (int attempt = 0; attempt < 2; ++attempt) {
    for (std::size_t idx = 0; idx < blocks_.size(); ++idx) {
      const std::uint32_t offset = blocks_[idx].first;
      {
        Block& block = blocks_[idx].second;
        if (block.magic != kMagic) {
          panic("heap: corrupted block header at offset " +
                std::to_string(offset) + " during alloc");
          return std::nullopt;
        }
        if (!block.free || block.in_graveyard || block.size < need) continue;
      }
      // Split if the remainder can hold a header plus a minimal payload.
      // (Re-index after any mutation: emplace invalidates references.)
      if (blocks_[idx].second.size >= need + kHeader + 8) {
        const std::uint32_t rest_offset = offset + kHeader + need;
        Block rest{kMagic, blocks_[idx].second.size - need - kHeader, true,
                   false};
        blocks_[idx].second.size = need;
        blocks_[idx].second.free = false;
        blocks_.emplace(blocks_.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
                        rest_offset, rest);
      } else {
        blocks_[idx].second.free = false;
      }
      ++stats_.total_allocs;
      stats_.live_bytes += blocks_[idx].second.size;
      ++stats_.live_blocks;
      return offset;
    }
    // First pass failed: collect (sweep graveyard + coalesce) and retry.
    if (attempt == 0) collect();
    if (panicked_) return std::nullopt;
  }
  return std::nullopt;
}

void KernelHeap::free(std::uint32_t offset) {
  if (panicked_) return;
  auto& [off, block] = blocks_[index_of(offset)];
  if (block.magic != kMagic) {
    panic("heap: corrupted block header at offset " + std::to_string(offset) +
          " during free");
    return;
  }
  if (block.free) {
    panic("heap: double free at offset " + std::to_string(offset));
    return;
  }
  block.free = true;
  ++stats_.total_frees;
  stats_.live_bytes -= block.size;
  --stats_.live_blocks;
}

void KernelHeap::defer_free(std::uint32_t offset) {
  if (panicked_) return;
  auto& [off, block] = blocks_[index_of(offset)];
  if (block.magic != kMagic) {
    panic("heap: corrupted block header at offset " + std::to_string(offset) +
          " during defer_free");
    return;
  }
  if (block.free || block.in_graveyard) {
    panic("heap: double defer_free at offset " + std::to_string(offset));
    return;
  }
  block.in_graveyard = true;
  graveyard_.push_back(offset);
}

void KernelHeap::collect() {
  if (panicked_) return;
  ++stats_.gc_runs;

  // Sweep the graveyard.
  for (const std::uint32_t offset : graveyard_) {
    auto& [off, block] = blocks_[index_of(offset)];
    if (block.magic != kMagic) {
      panic("heap: corrupted block header at offset " +
            std::to_string(offset) + " during graveyard sweep");
      return;
    }
    block.in_graveyard = false;
    block.free = true;
    ++stats_.total_frees;
    stats_.live_bytes -= block.size;
    --stats_.live_blocks;
    ++churn_;

    // ---- Injected fault (case study 1 ground truth) ----
    // Under sustained create/delete churn at high allocation pressure the
    // buggy collector smashes the *next* block's header while unlinking —
    // classic off-by-one on the free-list node size.  The damage is
    // silent now; a later alloc/sweep walks onto the bad header and the
    // kernel panics, exactly the delayed-crash signature of the paper's
    // first test case.
    if (fault_plan_.gc_corruption && !corruption_armed_fired_ &&
        churn_ >= fault_plan_.churn_threshold &&
        stats_.live_blocks >= fault_plan_.live_block_threshold) {
      const std::size_t victim = index_of(offset);
      if (victim + 1 < blocks_.size()) {
        blocks_[victim + 1].second.magic ^= 0x00ff00ffu;
        corruption_armed_fired_ = true;
      }
    }
  }
  graveyard_.clear();

  // Coalesce adjacent free blocks.
  std::vector<std::pair<std::uint32_t, Block>>& merged = merged_;
  merged.clear();
  merged.reserve(blocks_.size());
  for (const auto& [offset, block] : blocks_) {
    if (block.magic != kMagic) {
      panic("heap: corrupted block header at offset " +
            std::to_string(offset) + " during coalesce");
      return;
    }
    if (!merged.empty() && merged.back().second.free && block.free &&
        !block.in_graveyard && !merged.back().second.in_graveyard &&
        merged.back().first + kHeader + merged.back().second.size == offset) {
      merged.back().second.size += kHeader + block.size;
      ++stats_.coalesced;
    } else {
      merged.emplace_back(offset, block);
    }
  }
  blocks_.swap(merged);
}

bool KernelHeap::check_integrity() {
  if (panicked_) return false;
  for (const auto& [offset, block] : blocks_) {
    if (block.magic != kMagic) {
      panic("heap: corrupted block header at offset " +
            std::to_string(offset) + " during integrity check");
      return false;
    }
  }
  return true;
}

HeapStats KernelHeap::stats() const {
  HeapStats s = stats_;
  s.graveyard_blocks = graveyard_.size();
  s.free_bytes = 0;
  for (const auto& [offset, block] : blocks_) {
    if (block.free && !block.in_graveyard) s.free_bytes += block.size;
  }
  return s;
}

}  // namespace ptest::pcore
