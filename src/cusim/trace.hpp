// Warp-level memory tracing. While a kernel executes functionally, sampled
// warps record every global access; finalize() groups the accesses of the
// 32 lanes by instruction slot and counts each slot's distinct 128-byte
// segments — the coalescing rule of Section IV.B ("the k-th thread accesses
// the k-th word in a cache line").
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "cusim/arena.hpp"

namespace cusfft::cusim {

/// Totals extracted from one traced warp.
struct WarpTotals {
  double coalesced_tx = 0;  // transactions from dense (near-minimal) slots
  double random_tx = 0;     // transactions from scattered slots
  double useful_bytes = 0;
  double atomic_ops = 0;
  double shared_accesses = 0;
};

class WarpTracer {
 public:
  /// `arena` backs the access records until the next reset; it must outlive
  /// the tracer's use and is recycled by the owning KernelAccum per launch.
  void reset(std::size_t transaction_bytes, LaunchArena* arena);

  /// Empties the record list for the next traced warp, keeping all storage
  /// (same arena generation) — the per-warp cycle allocates nothing once
  /// the capacity high-water mark is reached.
  void clear();

  /// Records one lane's access. `slot` is the lane-local sequence number of
  /// the access; the i-th access of every lane is treated as one warp-wide
  /// instruction (exact for non-divergent kernels).
  void on_access(u32 slot, u64 addr, u32 bytes, bool atomic);

  void on_shared(double count) { shared_ += count; }

  /// Groups slots into transactions and classifies them. A slot whose
  /// transaction count is within 2x of the minimum possible for its byte
  /// volume counts as coalesced; otherwise random. Grouping is a counting
  /// sort by slot. A slot's transaction count is the number of distinct
  /// segments it touches: when they arrive in non-decreasing order
  /// (coalesced, broadcast and strided slots) that is the number of value
  /// changes; otherwise the slot's segments go through a small
  /// open-addressed set. One warp finalizes in O(accesses) with no
  /// comparison sort and no heap traffic.
  WarpTotals finalize();

 private:
  struct Access {
    u64 addr;
    u32 slot;
    u32 bytes;
  };
  u64 segment(u64 addr) const {
    return tx_shift_ >= 0 ? addr >> tx_shift_ : addr / tx_bytes_;
  }
  /// Distinct segments among [a, e), which span `segs` segments in all.
  u64 distinct_segments(const Access* a, const Access* e, u64 segs);

  ArenaVec<Access> accesses_;
  // finalize() scratch, capacity reused across warps (see clear()).
  ArenaVec<Access> sorted_;
  ArenaVec<u32> counts_;
  ArenaVec<u64> seg_set_;
  u32 max_slot_ = 0;
  u64 atomics_ = 0;
  double shared_ = 0;
  std::size_t tx_bytes_ = 128;
  int tx_shift_ = 7;  // log2(tx_bytes_), or -1 when not a power of two
};

/// Whole-kernel accumulation across traced warps plus the kernel-wide
/// atomic-conflict table (deepest same-address chain). A launch sweeps its
/// warps in ascending order on one thread, so the running totals fold in
/// warp-index order.
///
/// All per-launch trace records live on the accumulator's LaunchArena;
/// reset() recycles it. The conflict table is a flat open-addressed
/// address -> count map whose capacity survives reset(), so a warm
/// accumulator's launches allocate nothing.
class KernelAccum {
 public:
  void reset(std::size_t transaction_bytes, u64 sample_stride);

  WarpTracer& tracer() { return tracer_; }
  u64 sample_stride() const { return stride_; }
  LaunchArena& arena() { return arena_; }

  /// Finalizes the tracer's warp into the running totals.
  void fold_warp();

  /// Records an atomic on `addr` from a traced warp (conflict accounting).
  void on_atomic_addr(u64 addr) { add_conflicts(addr, 1); }

  /// Extrapolated whole-kernel counters (multiplies by the sample stride).
  WarpTotals scaled_totals() const;
  double max_atomic_conflict() const;

 private:
  /// One conflict-table slot; count 0 marks it empty. Packed to 12 bytes:
  /// a lane keeps a table sized for its widest atomic launch.
  struct [[gnu::packed]] Conflict {
    u64 addr;
    u32 count;
  };
  void add_conflicts(u64 addr, u32 count);
  void grow_conflicts();

  LaunchArena arena_;
  WarpTracer tracer_;
  WarpTotals totals_;
  std::vector<Conflict> conflicts_;  // power-of-two size, <= 3/4 full
  std::vector<u32> conflict_used_;   // occupied slots, for reset
  u32 conflict_max_ = 0;
  u64 stride_ = 1;
};

}  // namespace cusfft::cusim
