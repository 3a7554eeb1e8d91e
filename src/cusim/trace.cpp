#include "cusim/trace.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

namespace cusfft::cusim {

namespace {
// Fibonacci hashing multiplier (2^64 / golden ratio): the top bits of
// key * kFibonacci spread strided keys evenly over a power-of-two table.
constexpr u64 kFibonacci = 0x9E3779B97F4A7C15ULL;
// Empty mark of the segment set: segment indices are addresses divided by
// the transaction size, far below 2^64 - 1.
constexpr u64 kNoSegment = ~u64{0};
}  // namespace

void WarpTracer::reset(std::size_t transaction_bytes, LaunchArena* arena) {
  accesses_.reset(arena);
  sorted_.reset(arena);
  counts_.reset(arena);
  seg_set_.reset(arena);
  max_slot_ = 0;
  atomics_ = 0;
  shared_ = 0;
  tx_bytes_ = transaction_bytes;
  tx_shift_ =
      std::has_single_bit(tx_bytes_) ? std::countr_zero(tx_bytes_) : -1;
}

void WarpTracer::clear() {
  accesses_.clear();
  max_slot_ = 0;
  atomics_ = 0;
  shared_ = 0;
}

void WarpTracer::on_access(u32 slot, u64 addr, u32 bytes, bool atomic) {
  accesses_.push_back(Access{addr, slot, bytes});
  max_slot_ = std::max(max_slot_, slot);
  atomics_ += atomic ? 1 : 0;
}

WarpTotals WarpTracer::finalize() {
  WarpTotals out;
  out.shared_accesses = shared_;
  out.atomic_ops = static_cast<double>(atomics_);
  const std::size_t n = accesses_.size();
  if (n == 0) return out;

  // Stable counting sort by slot: lane order survives within a slot, so
  // coalesced slots arrive ascending below. After the scatter, off[s] is
  // the end of slot s's group.
  const std::size_t slots = static_cast<std::size_t>(max_slot_) + 1;
  counts_.resize_uninit(slots + 1);
  u32* off = counts_.begin();
  std::memset(off, 0, (slots + 1) * sizeof(u32));
  for (const Access& a : accesses_) ++off[a.slot + 1];
  for (std::size_t s = 0; s < slots; ++s) off[s + 1] += off[s];
  sorted_.resize_uninit(n);
  Access* sorted = sorted_.begin();
  for (const Access& a : accesses_) sorted[off[a.slot]++] = a;

  const Access* group = sorted;
  for (std::size_t s = 0; s < slots; ++s) {
    const Access* end = sorted + off[s];
    if (group == end) continue;
    // `next` is one past the highest segment seen: while segments arrive
    // in non-decreasing order, only those from `next` on are new.
    u64 bytes = 0, segs = 0, tx = 0, next = 0;
    bool ordered = true;
    for (const Access* a = group; a != end; ++a) {
      const u64 first = segment(a->addr);
      const u64 last = segment(a->addr + a->bytes - 1);
      bytes += a->bytes;
      segs += last - first + 1;
      if (first + 1 >= next) {
        tx += last + 1 - std::max(first, next);
        next = last + 1;
      } else {
        ordered = false;
      }
    }
    if (!ordered) tx = distinct_segments(group, end, segs);
    group = end;

    const double b = static_cast<double>(bytes);
    const double t = static_cast<double>(tx);
    const double min_tx =
        std::max(1.0, std::ceil(b / static_cast<double>(tx_bytes_)));
    out.useful_bytes += b;
    if (t <= 2.0 * min_tx)
      out.coalesced_tx += t;
    else
      out.random_tx += t;
  }
  return out;
}

u64 WarpTracer::distinct_segments(const Access* a, const Access* e,
                                  u64 segs) {
  // Linear-probing set, a power of two at least twice `segs`.
  const int bits = std::max(4, static_cast<int>(std::bit_width(2 * segs - 1)));
  const std::size_t size = std::size_t{1} << bits;
  seg_set_.resize_uninit(size);
  u64* set = seg_set_.begin();
  std::fill(set, set + size, kNoSegment);
  u64 distinct = 0;
  for (; a != e; ++a) {
    const u64 last = segment(a->addr + a->bytes - 1);
    for (u64 s = segment(a->addr); s <= last; ++s) {
      std::size_t i = (s * kFibonacci) >> (64 - bits);
      while (set[i] != kNoSegment && set[i] != s) i = (i + 1) & (size - 1);
      if (set[i] == kNoSegment) {
        set[i] = s;
        ++distinct;
      }
    }
  }
  return distinct;
}

void KernelAccum::reset(std::size_t transaction_bytes, u64 sample_stride) {
  arena_.reset();
  tracer_.reset(transaction_bytes, &arena_);
  totals_ = WarpTotals{};
  for (const u32 i : conflict_used_) conflicts_[i].count = 0;
  conflict_used_.clear();
  conflict_max_ = 0;
  stride_ = std::max<u64>(1, sample_stride);
}

void KernelAccum::fold_warp() {
  const WarpTotals t = tracer_.finalize();
  totals_.coalesced_tx += t.coalesced_tx;
  totals_.random_tx += t.random_tx;
  totals_.useful_bytes += t.useful_bytes;
  totals_.atomic_ops += t.atomic_ops;
  totals_.shared_accesses += t.shared_accesses;
}

void KernelAccum::add_conflicts(u64 addr, u32 count) {
  if (4 * (conflict_used_.size() + 1) > 3 * conflicts_.size())
    grow_conflicts();
  const std::size_t mask = conflicts_.size() - 1;
  std::size_t i = (addr * kFibonacci) >> (64 - std::countr_zero(mask + 1));
  while (conflicts_[i].count != 0 && conflicts_[i].addr != addr)
    i = (i + 1) & mask;
  Conflict& c = conflicts_[i];
  if (c.count == 0) {
    c.addr = addr;
    conflict_used_.push_back(static_cast<u32>(i));
  }
  c.count += count;
  conflict_max_ = std::max(conflict_max_, c.count);
}

void KernelAccum::grow_conflicts() {
  const std::size_t size = std::max<std::size_t>(64, 2 * conflicts_.size());
  const std::vector<Conflict> old =
      std::exchange(conflicts_, std::vector<Conflict>(size));
  const std::vector<u32> used = std::exchange(conflict_used_, {});
  conflict_max_ = 0;
  for (const u32 i : used) add_conflicts(old[i].addr, old[i].count);
}

WarpTotals KernelAccum::scaled_totals() const {
  WarpTotals s = totals_;
  const double m = static_cast<double>(stride_);
  s.coalesced_tx *= m;
  s.random_tx *= m;
  s.useful_bytes *= m;
  s.atomic_ops *= m;
  s.shared_accesses *= m;
  return s;
}

double KernelAccum::max_atomic_conflict() const {
  return static_cast<double>(conflict_max_) * static_cast<double>(stride_);
}

}  // namespace cusfft::cusim
