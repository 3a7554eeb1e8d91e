#include "cusim/device_group.hpp"

#include <algorithm>
#include <limits>
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
      // Private team per device: the global pool's task slots assume a
      // single submitting thread, and shards submit from N host threads.
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

// Merged replay of every device's timeline. The loop is
// Timeline::simulate() generalized: stream FIFO / barriers / deps stay
// within their device (resolved via per-device index bases), the
// concurrent-kernel cap and device-memory bandwidth sharing are
// per-device, and PCIe bandwidth is shared across ALL devices' in-flight
// copies (the host root complex). For one device every arithmetic step
// matches Timeline::simulate() exactly.
FleetSchedule DeviceGroup::simulate() {
  const std::size_t ndev = devices_.size();
  FleetSchedule fs;
  fs.items.resize(ndev);
  fs.finish_s.assign(ndev, 0.0);
  fs.busy_s.assign(ndev, 0.0);
  fs.pcie_stall_s.assign(ndev, 0.0);
  fs.pcie_queue_s.assign(ndev, 0.0);

  // Per-device rollup of the replayed schedule: finish, busy time and the
  // PCIe stall against each device's own schedule.
  auto rollup = [&] {
    for (std::size_t d = 0; d < ndev; ++d) {
      Device& dev = *devices_[d].dev;
      const auto& items = dev.timeline().items();
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
      // (contention-free) schedule of the same items.
      dev.elapsed_model_ms();  // ensures the solo schedule is computed
      const auto& solo = dev.timeline().schedule();
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (items[i].resource != Resource::kPcie) continue;
        const double merged =
            fs.items[d][i].finish_s - fs.items[d][i].start_s;
        const double alone = solo[i].finish_s - solo[i].start_s;
        fs.pcie_stall_s[d] += std::max(0.0, merged - alone);
      }
    }
  };

  if (ndev == 1 && staging_.kind == PcieStaging::Kind::kUnlimited) {
    // One device has nobody to contend with, so the merge is its own
    // Timeline::simulate() step for step (MultiGpu.
    // SingleDeviceGroupHasNoContention pins this). That replay is cached,
    // so a 1-device batch and its profile reuse it instead of replaying
    // every item again.
    Timeline& tl = devices_[0].dev->timeline();
    fs.makespan_s = tl.simulate();
    fs.items[0] = tl.schedule();
    rollup();
    return fs;
  }

  struct Node {
    const TimelineItem* it = nullptr;
    unsigned dev = 0;
    std::size_t base = 0;  // global index of this device's item 0
    double mem_left = 0, comp_left = 0;
    std::ptrdiff_t prev = -1;  // global index of stream predecessor
    bool running = false, done = false;
    bool held = false;  // ready this step but queued by the staging policy
  };
  std::vector<Node> nodes;
  std::vector<std::size_t> dev_count(ndev, 0);  // items per device
  for (std::size_t d = 0; d < ndev; ++d) {
    const auto& items = devices_[d].dev->timeline().items();
    const std::size_t base = nodes.size();
    dev_count[d] = items.size();
    fs.items[d].assign(items.size(), ItemSchedule{});
    std::vector<std::pair<StreamId, std::size_t>> last;  // local indices
    for (std::size_t i = 0; i < items.size(); ++i) {
      Node nd;
      nd.it = &items[i];
      nd.dev = static_cast<unsigned>(d);
      nd.base = base;
      nd.mem_left = items[i].mem_s;
      nd.comp_left = items[i].compute_s;
      for (auto& [sid, idx] : last)
        if (sid == items[i].stream) {
          nd.prev = static_cast<std::ptrdiff_t>(base + idx);
          idx = i;
          goto linked;
        }
      last.emplace_back(items[i].stream, i);
    linked:
      nodes.push_back(std::move(nd));
    }
  }

  const std::size_t n = nodes.size();
  constexpr double kEps = 1e-15;
  std::vector<unsigned> cap(ndev, 0);
  for (std::size_t d = 0; d < ndev; ++d)
    cap[d] = devices_[d].dev->spec().max_concurrent_kernels;

  double t = 0.0;
  std::size_t done_count = 0;
  unsigned rr_next = 0;  // round-robin rotation cursor (device index)
  std::vector<unsigned> dev_running(ndev, 0), dev_mem(ndev, 0);
  while (done_count < n) {
    // Start every eligible item, respecting each device's kernel window
    // and the root-complex staging policy for PCIe copies.
    std::fill(dev_running.begin(), dev_running.end(), 0u);
    unsigned pcie_running = 0;
    for (std::size_t i = 0; i < n; ++i) {
      nodes[i].held = false;
      if (!nodes[i].running) continue;
      if (nodes[i].it->resource == Resource::kDeviceMemory)
        ++dev_running[nodes[i].dev];
      else
        ++pcie_running;
    }
    std::ptrdiff_t rr_pick = -1;  // best kRoundRobin candidate this step
    auto rr_dist = [&](unsigned dev) {
      return (dev + static_cast<unsigned>(ndev) - rr_next) %
             static_cast<unsigned>(ndev);
    };
    for (std::size_t i = 0; i < n; ++i) {
      Node& nd = nodes[i];
      if (nd.running || nd.done) continue;
      if (nd.prev >= 0 && !nodes[static_cast<std::size_t>(nd.prev)].done)
        continue;
      bool barrier_clear = true;
      for (std::size_t b = 0; b < nd.it->after && barrier_clear; ++b)
        barrier_clear = nodes[nd.base + b].done;
      if (!barrier_clear) continue;
      bool deps_clear = true;
      // Deps are local to the owning device's timeline: bound them by
      // that device's own item count (mirroring Timeline::simulate's
      // `dep < n` guard) so a dangling local index can never alias into
      // the next device's node range and gate on a foreign item.
      for (const std::size_t dep : nd.it->deps)
        if (dep < dev_count[nd.dev] && !nodes[nd.base + dep].done) {
          deps_clear = false;
          break;
        }
      if (!deps_clear) continue;
      if (nd.it->resource == Resource::kDeviceMemory) {
        if (dev_running[nd.dev] >= cap[nd.dev]) continue;
        ++dev_running[nd.dev];
      } else {
        switch (staging_.kind) {
          case PcieStaging::Kind::kUnlimited:
            break;
          case PcieStaging::Kind::kMaxInflight:
            if (pcie_running >= staging_.limit) {
              nd.held = true;
              continue;
            }
            ++pcie_running;
            break;
          case PcieStaging::Kind::kRoundRobin:
            // One copy at a time; the winner is the ready device closest
            // in rotation after the last admission (earliest-submitted
            // copy within it, by scan order). Decided after the scan.
            nd.held = true;
            if (pcie_running == 0 &&
                (rr_pick < 0 || rr_dist(nd.dev) < rr_dist(nodes[rr_pick].dev)))
              rr_pick = static_cast<std::ptrdiff_t>(i);
            continue;
        }
      }
      nd.running = true;
      fs.items[nd.dev][i - nd.base].start_s = t;
    }
    if (rr_pick >= 0) {
      Node& nd = nodes[static_cast<std::size_t>(rr_pick)];
      nd.held = false;
      nd.running = true;
      fs.items[nd.dev][static_cast<std::size_t>(rr_pick) - nd.base].start_s =
          t;
      rr_next = (nd.dev + 1) % static_cast<unsigned>(ndev);
    }

    // Bandwidth shares: per-device memory, fleet-wide PCIe.
    std::fill(dev_mem.begin(), dev_mem.end(), 0u);
    unsigned pcie_mem = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (nodes[i].running && nodes[i].mem_left > kEps) {
        if (nodes[i].it->resource == Resource::kDeviceMemory)
          ++dev_mem[nodes[i].dev];
        else
          ++pcie_mem;
      }
    auto share_of = [&](const Node& nd) {
      return nd.it->resource == Resource::kDeviceMemory
                 ? static_cast<double>(std::max(1u, dev_mem[nd.dev]))
                 : static_cast<double>(std::max(1u, pcie_mem));
    };

    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (!nodes[i].running) continue;
      const double share = share_of(nodes[i]);
      const double fin =
          std::max(nodes[i].comp_left, nodes[i].mem_left * share);
      dt = std::min(dt, fin);
      if (nodes[i].mem_left > kEps)
        dt = std::min(dt, nodes[i].mem_left * share);
    }
    if (!std::isfinite(dt)) {
      // Nothing is runnable yet items remain: the captured timelines
      // deadlocked (only reachable with hand-injected items, e.g. a
      // cyclic dep). Breaking here used to leave the undone items with
      // finish_s == 0 and silently under-report the makespan.
      throw std::runtime_error(
          "DeviceGroup::simulate: deadlock — " +
          std::to_string(n - done_count) + " of " + std::to_string(n) +
          " items can never start (unsatisfiable dependencies)");
    }
    dt = std::max(dt, 0.0);

    for (std::size_t i = 0; i < n; ++i) {
      if (nodes[i].held)  // admission wait under the staging policy
        fs.pcie_queue_s[nodes[i].dev] += dt;
      if (!nodes[i].running) continue;
      const double share = share_of(nodes[i]);
      nodes[i].comp_left -= dt;
      nodes[i].mem_left -= dt / share;
      if (nodes[i].comp_left <= kEps && nodes[i].mem_left <= kEps) {
        nodes[i].running = false;
        nodes[i].done = true;
        fs.items[nodes[i].dev][i - nodes[i].base].finish_s = t + dt;
        ++done_count;
      }
    }
    t += dt;
  }
  fs.makespan_s = t;
  rollup();
  return fs;
}

CaptureProfile DeviceGroup::end_capture() { return collect_profile(*this); }

}  // namespace cusfft::cusim
