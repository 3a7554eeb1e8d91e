// Structured capture observability: turns one measured region of a Device
// (everything between begin_capture() and end_capture()) into a
// machine-readable CaptureProfile — the evidence behind every figure the
// benches regenerate (Fig. 2 profile breakdown, Fig. 4 stream overlap,
// Table II counters), exportable instead of trapped in printed tables.
//
// Three serializations, all deterministic (identical captures produce
// byte-identical output):
//   chrome_trace_json() — a chrome://tracing / Perfetto document: one track
//       per stream plus a PCIe track, every kernel/copy as a duration
//       event carrying transactions, useful bytes, achieved-bandwidth %,
//       and atomic-conflict depth in its args; phase annotations as a
//       separate track; the structured profile embedded under the
//       top-level "profile" key (trace viewers ignore unknown keys).
//   to_json()           — just the structured profile object.
//   to_table()          — ResultTable for the existing CSV path. Row order:
//       one `capture` row, `phase` rows in annotation order, `kernel` rows
//       in lexicographic name order, `pool` rows in a fixed order. Cells
//       that do not apply hold "-".
//
// See docs/PROFILING.md for the schema and a worked chrome://tracing
// example.
#pragma once

#include <string>
#include <vector>

#include "core/table.hpp"
#include "cusim/device.hpp"
#include "cusim/pool.hpp"

namespace cusfft::cusim {

/// One named phase of the capture (from Device::annotate_phase): spans
/// from its annotation's event time to the next annotation in the same
/// scope — device-wide, or the same stream for scoped annotations — or to
/// its explicit close event / the makespan. Scoped phases (pipelined
/// batches) render on one trace track per stream so overlapping signals
/// stay readable.
struct PhaseSpan {
  std::string name;
  StreamId stream = 0;
  unsigned device = 0;  // lane index for fleet captures (0 single-device)
  bool scoped = false;
  double start_ms = 0;
  double end_ms = 0;
  double span_ms() const { return end_ms - start_ms; }
};

/// One scheduled timeline item (kernel launch or PCIe copy) with its
/// schedule and the telemetry the trace export renders as event args.
struct TraceSpan {
  std::string name;
  StreamId stream = 0;
  unsigned device = 0;  // lane index for fleet captures (0 single-device)
  bool pcie = false;  // PCIe copy (its own track) vs device kernel
  /// Modeled NIC transfer (cluster captures only): renders on the
  /// destination node's "NIC" track with cat "nic"; never set for
  /// single-node captures, so their serialization is unchanged.
  bool nic = false;
  double start_ms = 0;
  double end_ms = 0;
  double mem_bytes = 0;        // bytes that crossed this item's resource
  double useful_bytes = 0;     // bytes the program asked for
  double transactions = 0;     // 128B segments (coalesced + random)
  double atomic_conflict = 0;  // deepest same-address atomic chain
  double achieved_bw_frac = 0;  // (mem_bytes/duration) / resource peak
};

/// Per-kernel-name aggregation with derived metrics.
struct KernelProfile {
  std::string name;
  std::size_t launches = 0;
  perfmodel::KernelCounters counters;  // summed over launches
  double solo_ms = 0;                  // summed isolated durations
  double coalesced_frac = 0;   // coalesced_tx / (coalesced_tx + random_tx)
  double achieved_bw_frac = 0;  // transaction bytes / solo time / peak BW
};

/// One device of a fleet capture (DeviceGroup::end_capture). Lane index
/// == chrome-trace pid == TraceSpan/PhaseSpan::device.
struct DeviceLane {
  std::string name;        // GpuSpec name
  double model_ms = 0;     // this device's finish on the shared clock
  double busy_ms = 0;      // summed kernel spans (merged schedule)
  double utilization = 0;  // model_ms / fleet makespan
  double occupancy_frac = 0;   // busy / model_ms / kernel window
  double pcie_stall_ms = 0;    // host-link contention dilation
  unsigned max_concurrent_kernels = 0;
};

/// One node of a cluster capture (Cluster::end_capture). Device lanes
/// flatten node-major, so a node owns the contiguous pid range
/// [first_lane, first_lane + lane_count).
struct NodeLane {
  std::string name;         // "n<m>"
  unsigned first_lane = 0;  // chrome-trace pid of the node's first device
  unsigned lane_count = 0;  // devices on this node
  double model_ms = 0;      // node finish on the cluster clock
  double offset_ms = 0;     // compute start (first ingress arrival)
  double nic_bytes = 0;     // bytes destined to this node over the NIC
  double nic_ms = 0;        // summed NIC transfer spans destined here
  double nic_stall_ms = 0;  // fabric-contention dilation
  double nic_queue_ms = 0;  // port-FIFO wait
};

/// Everything observable about one capture region.
struct CaptureProfile {
  std::string device;  // GpuSpec name
  double model_ms = 0;  // makespan
  double mem_bw_Bps = 0;   // spec peaks, for de-normalizing the fractions
  double pcie_bw_Bps = 0;
  unsigned max_concurrent_kernels = 0;
  /// Time-averaged number of in-flight device kernels over the makespan,
  /// divided by the concurrent-kernel window (32 on GK110) — the modeled
  /// occupancy of the Hyper-Q window.
  double occupancy_frac = 0;

  std::vector<TraceSpan> spans;       // submission order (grouped by device)
  std::vector<PhaseSpan> phases;      // annotation order (grouped by device)
  std::vector<KernelProfile> kernels; // lexicographic by name (fleet-summed)

  /// Fleet captures only: one lane per device, in device order. Empty for
  /// a single-Device capture — every serialization stays byte-identical
  /// to the pre-fleet format when this is empty. When non-empty the
  /// chrome trace renders one track group (pid) per lane on a shared
  /// time origin, and to_json() gains a "devices" array.
  std::vector<DeviceLane> lanes;

  /// Cluster captures only (M > 1): one lane per node, in node order.
  /// Empty for single-node and single-device captures — every
  /// serialization stays byte-identical to the fleet format when this is
  /// empty. When non-empty, to_json() gains "nic" + "nodes" entries and
  /// the chrome trace names its pids "cusim n<m> dev<local> <spec>" with
  /// a per-node NIC track.
  std::vector<NodeLane> nodes;
  double nic_bw_Bps = 0;    // cluster captures only
  double nic_latency_s = 0;  // cluster captures only

  /// PcieStaging policy name the merged schedule ran under (fleet
  /// captures only; empty — and never serialized — for a single-Device
  /// capture). Serialized next to "devices", and thereby visible in the
  /// chrome trace's embedded "profile" object.
  std::string staging;

  /// BufferPool::global() stats at begin_capture() and at collection;
  /// pool_delta() is what "no allocations after warm-up" asserts on.
  /// Serialization (to_json/to_table) carries only the delta — the
  /// absolute snapshots are process-lifetime counters and would break
  /// byte-identical output for identical captures.
  BufferPool::Stats pool_begin, pool_end;
  BufferPool::Stats pool_delta() const { return pool_end.since(pool_begin); }

  std::string to_json() const;
  std::string chrome_trace_json() const;
  ResultTable to_table() const;

  /// Writes chrome_trace_json() to `path`; returns success.
  bool write(const std::string& path) const;
};

/// Simulates the device's current capture region and assembles its profile
/// (also available as Device::end_capture()).
CaptureProfile collect_profile(Device& dev);

class DeviceGroup;  // device_group.hpp

/// Merged fleet profile: replays all device timelines on the shared clock
/// (DeviceGroup::simulate) and assembles one profile with a lane per
/// device (also available as DeviceGroup::end_capture()).
CaptureProfile collect_profile(DeviceGroup& group);

class Cluster;  // cluster.hpp

/// Merged cluster profile: the fleet profile's lane walk over every node
/// (device lanes flattened node-major, on the cluster clock), plus
/// per-node NodeLanes and NIC transfer spans when M > 1. At M == 1 the
/// walk is the fleet's and nothing is added, so the degenerate cluster's
/// artifacts are byte-identical to the fleet's (also available as
/// Cluster::end_capture()).
CaptureProfile collect_profile(Cluster& cluster);

}  // namespace cusfft::cusim
