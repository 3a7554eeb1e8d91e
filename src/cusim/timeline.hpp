// Event-driven device timeline: streams, concurrent-kernel overlap with
// bandwidth sharing, and PCIe transfers as a separate resource. This is what
// makes the paper's asynchronous data-layout transformation (Fig. 4) — up to
// 32 kernels in flight on GK110 — simulatable.
//
// One event loop replays N timelines on one clock. Stream FIFO order,
// barriers, deps, the concurrent-kernel window and device-memory bandwidth
// stay per timeline; PCIe copies of every timeline share one host link
// under a PcieStaging admission policy. Timeline::simulate() is that loop
// over the timeline alone; DeviceGroup::simulate() runs it over its
// devices' timelines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "cusim/arena.hpp"

namespace cusfft::cusim {

using StreamId = u32;  // 0 is the default stream

enum class Resource { kDeviceMemory, kPcie };

/// One scheduled operation (kernel or copy).
struct TimelineItem {
  std::string name;
  StreamId stream = 0;
  Resource resource = Resource::kDeviceMemory;
  double mem_s = 0;      // solo memory time (seconds) on its resource
  double compute_s = 0;  // non-shareable time (compute + atomics + overhead)
  std::size_t after = 0;  // barrier: may not start before items [0, after)
                          // have all completed (set by Timeline::barrier)

  // Telemetry carried for the profiler's trace export (filled by
  // Device::finish_launch / submit_copy; the scheduler ignores them).
  double mem_bytes = 0;        // bytes crossing this item's resource
  double useful_bytes = 0;     // bytes the program asked for
  double transactions = 0;     // 128B segments (coalesced + random)
  double atomic_conflict = 0;  // deepest same-address atomic chain

  // Explicit cross-stream dependencies (cudaStreamWaitEvent): indices of
  // items that must finish before this one may start. Attached by submit()
  // from the stream's pending wait_event() calls; the storage lives on the
  // owning Timeline's launch arena (valid until that Timeline's clear()).
  // External injectors pass their list through submit(item, deps).
  std::span<const std::size_t> deps;
};

/// Result for one item after simulation.
struct ItemSchedule {
  double start_s = 0;
  double finish_s = 0;
};

/// Admission policy for the shared PCIe root complex. Under kUnlimited
/// (the default, and the only behavior before staging existed) every
/// in-flight copy splits host-link bandwidth; the staged policies instead
/// bound how many copies may be in flight at once, so shards stagger
/// their bulk uploads rather than all contending at t=0 — the total bytes
/// moved are identical, but the first-admitted device's kernels start
/// sooner and overlap the remaining copies.
struct PcieStaging {
  enum class Kind {
    kUnlimited,   ///< all ready copies run, splitting link bandwidth
    kRoundRobin,  ///< one copy at a time, devices admitted in rotation
    kMaxInflight  ///< at most `limit` concurrent copies (admission in
                  ///< device-then-submission order)
  };
  Kind kind = Kind::kUnlimited;
  unsigned limit = 0;  // kMaxInflight only

  static PcieStaging Unlimited() { return {}; }
  static PcieStaging RoundRobin() {
    return {Kind::kRoundRobin, 0};
  }
  static PcieStaging MaxInflight(unsigned n) {
    return {Kind::kMaxInflight, n > 0 ? n : 1};
  }
  const char* name() const {
    switch (kind) {
      case Kind::kRoundRobin: return "round-robin";
      case Kind::kMaxInflight: return "max-inflight";
      case Kind::kUnlimited: break;
    }
    return "unlimited";
  }
};

/// Timelines replayed on one shared clock (t=0 at the group's
/// begin_capture). Index-aligned with the replayed timelines — a
/// DeviceGroup's devices.
struct FleetSchedule {
  double makespan_s = 0;  // fleet-level finish (max over devices)
  /// Per-device item schedules, index-aligned with that device's
  /// timeline().items() — same shape Timeline::schedule() has, but with
  /// cross-device PCIe contention applied.
  std::vector<std::vector<ItemSchedule>> items;
  std::vector<double> finish_s;      // per device: last item finish (0 idle)
  /// Per device: time with at least one kernel resident (union of kernel
  /// intervals, NOT summed spans) — busy_s/makespan is a [0, 1]
  /// utilization that correctly drops when the device idles on PCIe.
  std::vector<double> busy_s;
  /// Per device: extra time its PCIe copies spent because other devices'
  /// copies shared the host link (merged duration minus the device's own
  /// contention-free schedule). Zero for a single-device group.
  std::vector<double> pcie_stall_s;
  /// Per device: time its PCIe copies spent *waiting for admission* under
  /// a staging policy (ready but held back by the in-flight limit). Zero
  /// under PcieStaging::kUnlimited — staging converts bandwidth-sharing
  /// stall into queueing, and the two columns make that trade visible.
  std::vector<double> pcie_queue_s;
};

class Timeline {
 public:
  explicit Timeline(unsigned max_concurrent_kernels = 32)
      : max_kernels_(max_concurrent_kernels) {}

  void clear();
  std::size_t submit(TimelineItem item);  // returns item index
  /// submit() with an explicit dependency list (raw-item injection: tests,
  /// schedulers). The list is copied onto the timeline's arena and merged
  /// with any pending wait_event() deps for the item's stream.
  std::size_t submit(TimelineItem item, std::span<const std::size_t> deps);
  std::size_t item_count() const { return items_.size(); }

  /// Device-wide synchronization point (cudaDeviceSynchronize semantics):
  /// every item submitted afterwards waits for everything submitted so far.
  void barrier() { barrier_ = items_.size(); }

  /// cudaEvent-style marker: the event's time is when every item submitted
  /// before it has completed. Returns an id for event_time_s().
  std::size_t record_event() {
    events_.push_back(EventMark{items_.size(), -1, false});
    return events_.size() - 1;
  }

  /// Stream-scoped cudaEvent: completes when every item submitted to `s`
  /// so far has finished (reads as time 0 on an empty stream). Shares the
  /// id space of record_event().
  std::size_t record_event(StreamId s);

  /// cudaStreamWaitEvent: the next item submitted to `s` (and, by stream
  /// FIFO, everything after it) may not start before `event_id` completes.
  void wait_event(StreamId s, std::size_t event_id);

  /// Drops every recorded event mark (ids become invalid) while keeping
  /// the submitted items — long-lived captures recycle their event table
  /// between replayed graphs this way. Invalidates the cached simulate()
  /// result: a later simulate() recomputes instead of serving the
  /// makespan cached for the pre-clear event set (the stale-`makespan_s_`
  /// hazard — reuse was previously keyed on new submissions only).
  void clear_events();

  /// Time of a recorded event in the last simulate() run (0 if nothing
  /// preceded it).
  double event_time_s(std::size_t event_id) const;

  /// Same lookup against an external schedule (index-aligned with items()).
  /// Used by DeviceGroup to read event times off a merged fleet schedule,
  /// where contention with other devices shifts this timeline's items.
  double event_time_s(std::size_t event_id,
                      const std::vector<ItemSchedule>& sched) const;

  /// Simulates the whole submission list. Items on the same stream run in
  /// FIFO order; an item additionally waits for its barrier window and its
  /// explicit deps (wait_event). Across streams up to
  /// `max_concurrent_kernels` device kernels run concurrently and share
  /// memory bandwidth equally (an item's memory phase dilates by the number
  /// of co-running items on its resource). Returns the makespan in seconds,
  /// cached until the next submission or clear; throws std::runtime_error
  /// naming an item that can never start (a dependency cycle).
  double simulate();

  /// Per-item schedule from the last simulate() call.
  const std::vector<ItemSchedule>& schedule() const { return schedule_; }
  const std::vector<TimelineItem>& items() const { return items_; }

  /// Usage of the arena backing the dependency spans — feeds the arena
  /// high-water gauges in MetricsRegistry.
  LaunchArena::Stats arena_stats() const { return dep_arena_.stats(); }

 private:
  friend class DeviceGroup;  // runs replay() and keys its cache on changes_

  /// One recorded event: device-wide (all items [0, upto)) or stream-scoped
  /// (the single item that was last on the stream when recorded).
  struct EventMark {
    std::size_t upto = 0;
    std::ptrdiff_t item = -1;
    bool scoped = false;
  };

  /// The event loop (see file comment): replays `tls` on one clock and
  /// fills makespan_s, items and pcie_queue_s; the per-device rollup
  /// columns are the caller's. Throws std::runtime_error on a deadlock.
  static FleetSchedule replay(std::span<Timeline* const> tls,
                              const PcieStaging& staging);

  unsigned max_kernels_;
  std::size_t barrier_ = 0;
  // Bumped by every submission, clear and event clear; keys the cached
  // simulate() result here and DeviceGroup's cached fleet replay.
  std::uint64_t changes_ = 1;
  std::uint64_t simulated_at_ = 0;  // changes_ at the last simulate()
  double makespan_s_ = 0;           // cached simulate() result
  LaunchArena dep_arena_;    // backs every TimelineItem::deps span
  std::vector<TimelineItem> items_;
  std::vector<ItemSchedule> schedule_;
  std::vector<EventMark> events_;
  std::map<StreamId, std::size_t> last_on_stream_;
  // wait_event() state consumed by the next submit() on the stream.
  std::map<StreamId, std::vector<std::size_t>> pending_deps_;
  std::map<StreamId, std::size_t> pending_after_;
};

}  // namespace cusfft::cusim
