// Device global-memory buffer: host-backed storage (the simulator executes
// kernels functionally on real data) plus a distinct device address range so
// the warp tracer can run the 128-byte coalescing analysis. Storage comes
// from the calling thread's current BufferPool, so destroying a buffer
// parks its allocation for the next plan or execute() instead of freeing
// it. Kernels of one launch run on one host thread (a lane sweeps its grid
// in order), so device atomics need no host synchronization.
#pragma once

#include <span>
#include <stdexcept>
#include <type_traits>

#include "core/types.hpp"
#include "cusim/pool.hpp"
#include "cusim/thread_ctx.hpp"

namespace cusfft::cusim {

template <typename T>
class DeviceBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "DeviceBuffer elements must be trivially copyable (the pool "
                "recycles raw storage)");

 public:
  DeviceBuffer() = default;
  explicit DeviceBuffer(std::size_t count)
      : pool_(&BufferPool::current()),
        block_(pool_->acquire(count * sizeof(T))),
        count_(count) {}
  ~DeviceBuffer() { pool_->release(std::move(block_)); }

  DeviceBuffer(DeviceBuffer&& o) noexcept
      : pool_(o.pool_), block_(std::move(o.block_)), count_(o.count_) {
    o.block_ = BufferPool::Block{};
    o.count_ = 0;
  }
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      pool_->release(std::move(block_));
      pool_ = o.pool_;
      block_ = std::move(o.block_);
      count_ = o.count_;
      o.block_ = BufferPool::Block{};
      o.count_ = 0;
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  u64 device_addr(std::size_t i = 0) const {
    return block_.base + i * sizeof(T);
  }

  // ---- device-side (traced) accessors; use inside kernels ----
  const T& load(ThreadCtx& t, std::size_t i) const {
    check(i);
    t.record_global(device_addr(i), sizeof(T));
    return data()[i];
  }
  void store(ThreadCtx& t, std::size_t i, const T& v) {
    check(i);
    t.record_global(device_addr(i), sizeof(T));
    data()[i] = v;
  }
  /// Read-modify-write with conflict accounting (atomicAdd and friends).
  template <typename U>
  T atomic_add(ThreadCtx& t, std::size_t i, const U& delta) {
    check(i);
    t.record_atomic(device_addr(i), sizeof(T));
    const T old = data()[i];
    data()[i] = static_cast<T>(old + delta);
    return old;
  }
  /// Compare-free atomic max for unsigned counters.
  T atomic_max(ThreadCtx& t, std::size_t i, const T& v) {
    check(i);
    t.record_atomic(device_addr(i), sizeof(T));
    const T old = data()[i];
    if (v > old) data()[i] = v;
    return old;
  }

  /// Store whose *data movement* was staged through shared memory (the
  /// classic coalescing fix for scattered writes): the value lands at `i`,
  /// but the global-memory traffic recorded is the dense burst at
  /// `linear_slot` the staged warp would emit. Callers must ensure every
  /// lane passes a distinct linear_slot < size().
  void store_staged(ThreadCtx& t, std::size_t i, std::size_t linear_slot,
                    const T& v) {
    check(i);
    check(linear_slot);
    t.record_shared(2);  // one shared write + one shared read
    t.record_global(device_addr(linear_slot), sizeof(T));
    data()[i] = v;
  }

  // ---- host-side (untraced) access; use via Device::upload/download or in
  // test assertions ----
  std::span<T> host() { return {data(), count_}; }
  std::span<const T> host() const { return {data(), count_}; }

 private:
  T* data() { return reinterpret_cast<T*>(block_.bytes.data()); }
  const T* data() const {
    return reinterpret_cast<const T*>(block_.bytes.data());
  }
  void check(std::size_t i) const {
    if (i >= count_)
      throw std::out_of_range("DeviceBuffer: index out of range");
  }
  BufferPool* pool_ = &BufferPool::global();  // the pool block_ came from
  BufferPool::Block block_;
  std::size_t count_ = 0;
};

/// Read-only device array over host memory the caller owns — an input
/// signal the kernels only read, so a plan need not copy it in. The view
/// keeps one simulated address range and is rebound per use; loads trace
/// exactly like DeviceBuffer::load.
template <typename T>
class DeviceView {
 public:
  DeviceView() = default;
  explicit DeviceView(std::size_t count)
      : base_(reserve_device_range(count * sizeof(T))), count_(count) {}

  /// Points the view at `data`, which must hold size() elements and
  /// outlive the kernels that read it.
  void bind(std::span<const T> data) {
    if (data.size() != count_)
      throw std::invalid_argument("cusim DeviceView: size mismatch");
    data_ = data.data();
  }

  std::size_t size() const { return count_; }
  const T& load(ThreadCtx& t, std::size_t i) const {
    if (i >= count_) throw std::out_of_range("DeviceView: index out of range");
    t.record_global(base_ + i * sizeof(T), sizeof(T));
    return data_[i];
  }
  std::span<const T> host() const { return {data_, count_}; }

 private:
  u64 base_ = 0;
  const T* data_ = nullptr;
  std::size_t count_ = 0;
};

}  // namespace cusfft::cusim
