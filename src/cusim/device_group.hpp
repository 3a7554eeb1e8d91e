// A fleet of simulated GPUs behind one host. Each Device keeps its own
// timeline, buffers, and (for N > 1) a private host ThreadPool sized
// global_threads/N, so N shards execute functionally in parallel from N
// host threads, each running its batch's signal lanes on its own team.
//
// The merged simulation is the timeline event loop (timeline.hpp) run
// over every device's captured timeline on one clock: device-side
// resources (the Hyper-Q concurrent-kernel window, device memory
// bandwidth) stay per-device, but all PCIe copies contend for the shared
// host root complex — H2D/D2H transfers to different devices split host
// link bandwidth instead of overlapping for free. For a single device the
// merged schedule is Timeline::simulate()'s, so fleet numbers degrade
// exactly to the single-device ones.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/thread_pool.hpp"
#include "cusim/device.hpp"
#include "cusim/pool.hpp"

namespace cusfft::cusim {

struct CaptureProfile;  // profiler.hpp

class DeviceGroup {
 public:
  /// One Device per spec, in order. For size() > 1 each device gets a
  /// private ThreadPool of max(1, ThreadPool::global().size()/N) workers.
  explicit DeviceGroup(std::vector<perfmodel::GpuSpec> specs);
  /// N homogeneous devices (default: the paper's K20x).
  explicit DeviceGroup(std::size_t count,
                       perfmodel::GpuSpec spec = perfmodel::GpuSpec::k20x());

  std::size_t size() const { return devices_.size(); }
  Device& device(std::size_t i) { return *devices_[i].dev; }
  const Device& device(std::size_t i) const { return *devices_[i].dev; }

  /// Starts a fresh measured region on every device and snapshots the
  /// global BufferPool for the fleet-level allocation delta. Call before
  /// fanning shards out; every device shares the capture's t=0.
  void begin_capture();

  /// Root-complex admission policy for the merged simulation. Takes
  /// effect on the next simulate(); kUnlimited (the default) reproduces
  /// the historical all-copies-share-the-link behavior exactly.
  void set_staging(PcieStaging s) {
    staging_ = s;
    replayed_at_.clear();
  }
  const PcieStaging& staging() const { return staging_; }

  /// Replays all captured timelines on the shared clock (see file
  /// comment). The result is cached, like Timeline::simulate()'s, until a
  /// device timeline or the staging policy changes. Throws
  /// std::runtime_error naming the stuck device and item if the captured
  /// timelines deadlock (an item's dependencies can never clear — only
  /// possible with hand-injected items); a silent stop here would
  /// under-report the makespan.
  FleetSchedule simulate();

  /// Merged observability record: one CaptureProfile whose spans/phases
  /// carry a device index, with one `lanes` entry per device — the
  /// chrome-trace export renders one track group (pid) per device on the
  /// shared time origin.
  CaptureProfile end_capture();

  /// BufferPool::global() stats at the last begin_capture() (group-level;
  /// per-device snapshots are racy while shards run concurrently).
  const BufferPool::Stats& pool_stats_at_capture() const {
    return pool_at_capture_;
  }

 private:
  struct PerDevice {
    std::unique_ptr<Device> dev;
    std::unique_ptr<ThreadPool> pool;  // private team; null for N == 1
  };
  std::vector<PerDevice> devices_;
  BufferPool::Stats pool_at_capture_;
  PcieStaging staging_;
  FleetSchedule fleet_;  // last simulate() result
  // Each device timeline's changes_ when fleet_ was replayed; empty when
  // there is no valid cache.
  std::vector<std::uint64_t> replayed_at_;
};

}  // namespace cusfft::cusim
