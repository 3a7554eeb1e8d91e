// Device-memory arena: recycles the host-backed allocations behind
// DeviceBuffer across plan construction and execute() calls. A real cusFFT
// plan pays cudaMalloc/cudaFree per buffer; the functional simulator was
// paying the same cost in page faults and zeroing ~20 times per plan. The
// pool keeps released blocks (host storage + their simulated device address
// range) on size-class free lists, so a warm plan rebuild or a batched
// execute_many() performs no new allocations — asserted by tests via
// stats().
//
// Concurrency: the mutex guards only the free-list structure. The zeroing
// memset on acquire (the expensive part for MB-sized blocks) runs outside
// the lock, and stats are plain atomics so stats() never contends with the
// worker threads that acquire scratch buffers mid-capture.
//
// Two process-wide pools: global(), whose stats captures report, and
// lanes(), which backs everything a batch's signal lanes allocate (the
// extra lanes' buffer sets, and scratch a kernel sequence acquires while
// it runs on a lane). Keeping lane memory off global() makes a capture's
// pool delta the same at every lane count, and keeps concurrent fleet
// shards (whose plans are built before they fan out) off global()'s free
// lists altogether. lanes() never parks: lane memory is freed with its
// lane, so a process that builds plan after plan (one-shot jobs of many
// shapes) keeps no lane-count-fold free lists.
// DeviceBuffer allocates from the calling thread's current pool (global()
// unless a PoolScope is live) and releases to the pool it came from.
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <mutex>
#include <vector>

#include "core/types.hpp"

namespace cusfft::cusim {

/// Reserves a fresh simulated device address range of `bytes` (256-byte
/// aligned, with a guard gap) without host storage — for views that read
/// memory the caller owns.
u64 reserve_device_range(u64 bytes);

class BufferPool {
 public:
  /// One allocation: host storage plus its 256-byte-aligned simulated
  /// device address range (stable across reuses, like a recycled
  /// cudaMalloc range).
  struct Block {
    std::vector<std::byte> bytes;
    u64 base = 0;  // simulated device address of bytes[0]
    u64 cap = 0;   // capacity in bytes (256-byte multiple); 0 == empty
  };

  /// Makes `pool` the calling thread's current pool for the scope's
  /// lifetime (restoring the previous one on exit).
  class PoolScope {
   public:
    explicit PoolScope(BufferPool& pool);
    ~PoolScope();
    PoolScope(const PoolScope&) = delete;
    PoolScope& operator=(const PoolScope&) = delete;

   private:
    BufferPool* prev_;
  };

  struct Stats {
    u64 allocations = 0;     // fresh device ranges created
    u64 reuses = 0;          // acquires served from the free list
    u64 bytes_allocated = 0; // cumulative fresh bytes
    u64 bytes_reused = 0;    // cumulative bytes served from the free list
    u64 bytes_pooled = 0;    // currently parked on the free list

    /// Delta of the monotonic counters against an earlier snapshot
    /// (bytes_pooled is a level, not a counter, so the delta keeps the
    /// current value). This is what captures report: "allocations since
    /// begin_capture()".
    Stats since(const Stats& earlier) const {
      Stats d;
      d.allocations = allocations - earlier.allocations;
      d.reuses = reuses - earlier.reuses;
      d.bytes_allocated = bytes_allocated - earlier.bytes_allocated;
      d.bytes_reused = bytes_reused - earlier.bytes_reused;
      d.bytes_pooled = bytes_pooled;
      return d;
    }
  };

  /// Returns a zeroed block of at least `bytes` capacity — from the free
  /// list when a fit exists there (capacity within 2x of the request),
  /// otherwise freshly allocated.
  Block acquire(std::size_t bytes);

  /// Parks a block for reuse; frees it instead when pooling is disabled or
  /// the pooled-bytes budget would be exceeded.
  void release(Block&& b);

  /// Frees every parked block (the free list only; live buffers are
  /// untouched).
  void trim();

  Stats stats() const;

  /// Pooling toggle and pooled-bytes budget (1 GiB by default).
  void set_enabled(bool on);
  void set_max_pooled_bytes(u64 bytes);

  /// Process-wide pool whose stats captures report (created on first use).
  static BufferPool& global();
  /// Process-wide, never-parking pool for signal-lane memory (see the
  /// file comment).
  static BufferPool& lanes();
  /// The calling thread's current pool: global() unless a PoolScope is live.
  static BufferPool& current();

 private:
  mutable std::mutex mu_;
  // size class (= capacity) -> parked blocks
  std::map<u64, std::vector<Block>> free_;

  // Counters live outside the mutex: bytes_pooled_ is adjusted with a
  // reserve-then-insert protocol in release() so the parked total never
  // exceeds the budget even under concurrent releases.
  std::atomic<u64> allocations_{0};
  std::atomic<u64> reuses_{0};
  std::atomic<u64> bytes_allocated_{0};
  std::atomic<u64> bytes_reused_{0};
  std::atomic<u64> bytes_pooled_{0};
  std::atomic<bool> enabled_{true};
  std::atomic<u64> max_pooled_bytes_{u64{1} << 30};
};

}  // namespace cusfft::cusim
