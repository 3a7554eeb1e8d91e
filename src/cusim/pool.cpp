#include "cusim/pool.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace cusfft::cusim {

namespace {
thread_local BufferPool* t_pool = nullptr;  // null: global()
}  // namespace

/// Process-wide simulated device address space; allocations are 256-byte
/// aligned like cudaMalloc's guarantees, with a 256-byte guard gap so
/// distinct ranges never share a 128-byte coalescing segment.
u64 reserve_device_range(u64 bytes) {
  static std::atomic<u64> next{1u << 20};
  const u64 aligned = (bytes + 255) & ~u64{255};
  return next.fetch_add(aligned + 256);
}

BufferPool::PoolScope::PoolScope(BufferPool& pool) : prev_(t_pool) {
  t_pool = &pool;
}

BufferPool::PoolScope::~PoolScope() { t_pool = prev_; }

BufferPool::Block BufferPool::acquire(std::size_t bytes) {
  const u64 cap = std::max<u64>(256, (static_cast<u64>(bytes) + 255) &
                                         ~u64{255});
  if (enabled_.load(std::memory_order_relaxed)) {
    Block b;
    bool hit = false;
    {
      std::lock_guard lk(mu_);
      auto it = free_.lower_bound(cap);
      if (it != free_.end() && it->first <= 2 * cap) {
        b = std::move(it->second.back());
        it->second.pop_back();
        if (it->second.empty()) free_.erase(it);
        hit = true;
      }
    }
    if (hit) {
      reuses_.fetch_add(1, std::memory_order_relaxed);
      bytes_reused_.fetch_add(b.cap, std::memory_order_relaxed);
      bytes_pooled_.fetch_sub(b.cap, std::memory_order_relaxed);
      // Zero outside the lock: for MB-sized scratch this memset dominates
      // acquire cost and must not serialize concurrent captures.
      std::memset(b.bytes.data(), 0, b.bytes.size());
      return b;
    }
  }
  allocations_.fetch_add(1, std::memory_order_relaxed);
  bytes_allocated_.fetch_add(cap, std::memory_order_relaxed);
  Block b;
  b.cap = cap;
  b.bytes.assign(cap, std::byte{0});
  b.base = reserve_device_range(cap);
  return b;
}

void BufferPool::release(Block&& b) {
  if (b.cap == 0) return;
  if (!enabled_.load(std::memory_order_relaxed)) return;  // frees b
  // Reserve the budget before touching the list; roll back and free the
  // block if the reservation overshoots. The parked total therefore never
  // exceeds the budget even with releases racing each other.
  const u64 prev = bytes_pooled_.fetch_add(b.cap, std::memory_order_relaxed);
  if (prev + b.cap > max_pooled_bytes_.load(std::memory_order_relaxed)) {
    bytes_pooled_.fetch_sub(b.cap, std::memory_order_relaxed);
    return;  // frees b
  }
  std::lock_guard lk(mu_);
  free_[b.cap].push_back(std::move(b));
}

void BufferPool::trim() {
  std::map<u64, std::vector<Block>> doomed;
  {
    std::lock_guard lk(mu_);
    doomed.swap(free_);
    u64 parked = 0;
    for (const auto& [cap, blocks] : doomed) parked += cap * blocks.size();
    bytes_pooled_.fetch_sub(parked, std::memory_order_relaxed);
  }
  // Destructors (the actual frees) run after the lock is dropped.
}

BufferPool::Stats BufferPool::stats() const {
  Stats s;
  s.allocations = allocations_.load(std::memory_order_relaxed);
  s.reuses = reuses_.load(std::memory_order_relaxed);
  s.bytes_allocated = bytes_allocated_.load(std::memory_order_relaxed);
  s.bytes_reused = bytes_reused_.load(std::memory_order_relaxed);
  s.bytes_pooled = bytes_pooled_.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void BufferPool::set_max_pooled_bytes(u64 bytes) {
  max_pooled_bytes_.store(bytes, std::memory_order_relaxed);
}

BufferPool& BufferPool::global() {
  static BufferPool* pool = new BufferPool();
  return *pool;
}

BufferPool& BufferPool::lanes() {
  static BufferPool* pool = [] {
    auto* p = new BufferPool();
    p->set_enabled(false);
    return p;
  }();
  return *pool;
}

BufferPool& BufferPool::current() {
  return t_pool != nullptr ? *t_pool : global();
}

}  // namespace cusfft::cusim
