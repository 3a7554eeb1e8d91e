#include "cusim/device_group.hpp"

#include <algorithm>
#include <stdexcept>

#include "cusim/profiler.hpp"

namespace cusfft::cusim {

DeviceGroup::DeviceGroup(std::vector<perfmodel::GpuSpec> specs) {
  if (specs.empty())
    throw std::invalid_argument("DeviceGroup: need at least one GpuSpec");
  const std::size_t n = specs.size();
  const std::size_t team =
      std::max<std::size_t>(1, ThreadPool::global().size() / n);
  for (auto& spec : specs) {
    PerDevice pd;
    pd.dev = std::make_unique<Device>(spec);
    if (n > 1) {
      // Private team per device: shards submit their lanes from N host
      // threads at once, and a shared pool would run all but one of them
      // on a single lane.
      pd.pool = std::make_unique<ThreadPool>(team);
      pd.dev->set_pool(pd.pool.get());
    }
    devices_.push_back(std::move(pd));
  }
  pool_at_capture_ = BufferPool::global().stats();
}

DeviceGroup::DeviceGroup(std::size_t count, perfmodel::GpuSpec spec)
    : DeviceGroup(std::vector<perfmodel::GpuSpec>(
          count > 0 ? count : 1, std::move(spec))) {
  if (count == 0)
    throw std::invalid_argument("DeviceGroup: need at least one device");
}

void DeviceGroup::begin_capture() {
  for (auto& pd : devices_) pd.dev->begin_capture();
  pool_at_capture_ = BufferPool::global().stats();
}

FleetSchedule DeviceGroup::simulate() {
  const std::size_t ndev = devices_.size();
  std::vector<Timeline*> tls(ndev);
  bool cached = replayed_at_.size() == ndev;
  for (std::size_t d = 0; d < ndev; ++d) {
    tls[d] = &devices_[d].dev->timeline();
    cached = cached && replayed_at_[d] == tls[d]->changes_;
  }
  if (cached) return fleet_;

  FleetSchedule fs;
  if (ndev == 1 && staging_.kind == PcieStaging::Kind::kUnlimited) {
    // One device has nobody to contend with, so the merged replay is the
    // device's own (MultiGpu.SingleDeviceReplayIsTheFullMerge pins this):
    // read its cached Timeline::simulate() instead of replaying again.
    fs.makespan_s = tls[0]->simulate();
    fs.items = {tls[0]->schedule()};
    fs.pcie_queue_s = {0.0};
  } else {
    fs = Timeline::replay(tls, staging_);
  }

  // Per-device rollup of the replayed schedule: finish, busy time and the
  // PCIe stall against each device's own schedule.
  fs.finish_s.assign(ndev, 0.0);
  fs.busy_s.assign(ndev, 0.0);
  fs.pcie_stall_s.assign(ndev, 0.0);
  for (std::size_t d = 0; d < ndev; ++d) {
    const auto& items = tls[d]->items();
    // Busy time = union of kernel intervals (time with >= 1 kernel
    // resident), so busy_s/makespan is a true [0, 1] utilization —
    // summing spans would double-count concurrent kernels.
    std::vector<std::pair<double, double>> spans;
    for (std::size_t i = 0; i < items.size(); ++i) {
      fs.finish_s[d] = std::max(fs.finish_s[d], fs.items[d][i].finish_s);
      if (items[i].resource == Resource::kDeviceMemory)
        spans.emplace_back(fs.items[d][i].start_s, fs.items[d][i].finish_s);
    }
    std::sort(spans.begin(), spans.end());
    double cover_end = -1.0;
    for (const auto& [s0, s1] : spans) {
      if (s0 > cover_end) {
        fs.busy_s[d] += s1 - s0;
        cover_end = s1;
      } else if (s1 > cover_end) {
        fs.busy_s[d] += s1 - cover_end;
        cover_end = s1;
      }
    }
    // Contention stall: merged copy durations vs the device's own
    // (contention-free, cached) schedule of the same items.
    tls[d]->simulate();
    const auto& solo = tls[d]->schedule();
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].resource != Resource::kPcie) continue;
      const double merged =
          fs.items[d][i].finish_s - fs.items[d][i].start_s;
      const double alone = solo[i].finish_s - solo[i].start_s;
      fs.pcie_stall_s[d] += std::max(0.0, merged - alone);
    }
  }

  fleet_ = fs;
  replayed_at_.resize(ndev);
  for (std::size_t d = 0; d < ndev; ++d) replayed_at_[d] = tls[d]->changes_;
  return fs;
}

CaptureProfile DeviceGroup::end_capture() { return collect_profile(*this); }

}  // namespace cusfft::cusim
