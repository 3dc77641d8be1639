#include "ptest/pcore/frame_pool.hpp"

#include <sanitizer/asan_interface.h>

#include <cassert>
#include <new>
#include <utility>

namespace ptest::pcore {

namespace {
thread_local FramePool* current_pool = nullptr;
}  // namespace

FramePool::~FramePool() {
  std::size_t freed = 0;
  for (std::size_t size_class = 0; size_class < kClassCount; ++size_class) {
    for (Header* block = free_[size_class]; block != nullptr; ++freed) {
      Header* next = block->next;
      ASAN_UNPOISON_MEMORY_REGION(block + 1,
                                  block_bytes(size_class) - sizeof(Header));
      ::operator delete(block);
      block = next;
    }
  }
  assert(freed == blocks_ && "a coroutine frame outlived its FramePool");
  (void)freed;
}

FramePool::Scope::Scope(FramePool& pool) noexcept
    : previous_(std::exchange(current_pool, &pool)) {}

FramePool::Scope::~Scope() { current_pool = previous_; }

void* FramePool::allocate(std::size_t size) {
  FramePool* pool = current_pool;
  const std::size_t total = size + sizeof(Header);
  Header* block = nullptr;
  if (pool != nullptr && total <= block_bytes(kClassCount - 1)) {
    block = pool->take((total - 1) / kClassBytes);
  } else {
    if (pool != nullptr) ++pool->fallbacks_;
    block = static_cast<Header*>(::operator new(total));
    block->pool = nullptr;
  }
  return block + 1;
}

void FramePool::deallocate(void* frame) noexcept {
  Header* block = static_cast<Header*>(frame) - 1;
  if (block->pool == nullptr) {
    ::operator delete(block);
  } else {
    block->pool->give(block);
  }
}

FramePool::Header* FramePool::take(std::size_t size_class) {
  Header* block = free_[size_class];
  if (block != nullptr) {
    free_[size_class] = block->next;
    ASAN_UNPOISON_MEMORY_REGION(block + 1,
                                block_bytes(size_class) - sizeof(Header));
  } else {
    block = static_cast<Header*>(::operator new(block_bytes(size_class)));
    block->pool = this;
    ++blocks_;
  }
  block->size_class = size_class;
  return block;
}

void FramePool::give(Header* block) noexcept {
  const std::size_t size_class = block->size_class;
  // A reclaimed frame's bytes stay unreadable until the block serves
  // the next frame.
  ASAN_POISON_MEMORY_REGION(block + 1,
                            block_bytes(size_class) - sizeof(Header));
  block->next = free_[size_class];
  free_[size_class] = block;
}

}  // namespace ptest::pcore
