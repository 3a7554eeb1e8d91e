// Fleet execution: one execute_many() batch sharded across a
// cusim::DeviceGroup. Each device owns a full GpuPlan (its own buffers,
// filter upload, stream pool) and runs its shard on a dedicated host
// thread whose signal lanes run on the device's private ThreadPool; the
// two-stream pipeline stays live inside
// every shard. The per-device timelines are then merged on one clock
// (shared t=0 at the group capture) with PCIe root-complex contention —
// see cusim/device_group.hpp.
//
// Shard assignment (ShardPolicy::kCostLpt, the default) prices every
// signal with an analytic per-signal cost derived from the perfmodel —
// bytes streamed by binning + the subsampled FFTs + voting/estimation
// traffic over the device's effective bandwidth, plus a FLOP floor, plus
// the H2D copy when transfers are modeled — and places signals in LPT
// order (longest first) onto the device with the smallest projected
// finish, ties to the lowest index. Homogeneous uniform batches degrade
// to round-robin; a half-rate device receives proportionally fewer
// signals; a skewed mixed-shape batch splits by cost instead of count.
// ShardPolicy::kUnitGreedy keeps the legacy uniform 1/mem_bandwidth
// weighting (every signal costs the same) for A/B comparison. Either
// assignment is a pure function of (signal shapes, specs, policy) —
// deterministic.
//
// Mixed-shape batches: execute_mixed() accepts per-signal sfft::Params.
// Each device shard groups its signals by shape and runs one
// GpuPlan per distinct shape (cached inside the MultiGpuPlan, built
// serially before the shard threads fan out) within a single device
// capture, so the merged fleet schedule still covers the whole shard.
//
// One path after the shards run: a fleet batch is the one-node cluster
// batch. ClusterPlan drives each node through the same private shard
// runner, and every GpuFleetStats — fleet, cluster or slab — comes out of
// one rollup of the replayed ClusterSchedule (a fleet lifts its
// FleetSchedule to one node) and one to_metrics() publication.
//
// Ordering contract: the returned spectra and GpuFleetStats::per_signal
// are ALWAYS in input order, whatever the shard assignment (tests pin
// bit-identical equality with the single-device path).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cusfft/plan.hpp"
#include "cusim/device_group.hpp"

namespace cusfft::gpu {

/// How MultiGpuPlan assigns signals to devices.
enum class ShardPolicy {
  kCostLpt,     ///< per-signal analytic cost model + LPT (default)
  kUnitGreedy,  ///< legacy: every signal costs the device's uniform
                ///< 1/mem_bandwidth weight, greedy in input order
};

/// One signal of a mixed-shape batch: the samples plus the shape-specific
/// parameters (x.size() must equal params.n).
struct MixedSignal {
  std::span<const cplx> x;
  sfft::Params params;
};

/// Analytic per-signal cost (seconds) of running `p` on a device with
/// `spec` under `opts` — the kCostLpt assignment currency. Counts the
/// bytes the kernel sequence streams through device memory (binning taps,
/// subsampled FFT passes, cutoff/vote/estimate traffic) over the device's
/// effective coalesced bandwidth, a FLOP floor against dp_peak_flops(),
/// and the H2D copy over the PCIe link when Options::include_transfer.
/// Kernel-launch overhead is deliberately excluded: it is identical on
/// every device, so it would only flatten the relative costs the
/// assignment depends on. This is an assignment heuristic — the merged
/// timeline stays the ground truth the stats report.
double modeled_signal_cost_s(const sfft::Params& p,
                             const perfmodel::GpuSpec& spec,
                             const Options& opts);

/// One device's share of a fleet batch.
struct GpuDeviceShardStats {
  std::string device;      // GpuSpec name
  std::size_t signals = 0;
  double model_ms = 0;     // device finish on the merged fleet clock
  double solo_ms = 0;      // the same shard free of PCIe contention
  double pcie_stall_ms = 0;  // host-link contention dilation
  double pcie_queue_ms = 0;  // staging-policy admission wait
  /// Fraction of the fleet makespan this device had >= 1 kernel resident
  /// (busy/makespan, in [0, 1]); a device idling on PCIe reports low
  /// utilization even when its last item finishes near the makespan.
  double utilization = 0;  // 0 for idle devices
};

/// One node's share of a cluster batch (ClusterPlan; see cluster_plan.hpp).
struct GpuNodeShardStats {
  std::size_t devices = 0;
  std::size_t signals = 0;
  double model_ms = 0;   // node finish on the merged cluster clock
  double offset_ms = 0;  // compute start (first NIC ingress arrival)
  double nic_bytes = 0;  // bytes staged to this node over the NIC
  double nic_stall_ms = 0;  // fabric-contention dilation
  double nic_queue_ms = 0;  // port-FIFO wait
  /// busy / cluster makespan over the node's devices, averaged.
  double utilization = 0;
};

/// GpuBatchStats analogue for a sharded batch: fleet makespan plus the
/// imbalance/contention story across devices.
struct GpuFleetStats {
  double model_ms = 0;  // merged fleet makespan (shared t=0)
  double host_ms = 0;   // wall time of the functional simulation
  std::size_t signals = 0;
  std::size_t candidates = 0;  // summed over the batch
  std::size_t devices = 0;
  bool pipelined = false;  // any shard ran the two-stream pipeline
  std::string staging;     // PcieStaging policy name the merge ran under
  /// max/mean finish over the devices that ran work (over the nodes when
  /// nodes > 1): 1.0 is a perfectly balanced batch, 2.0 means the slowest
  /// device ran twice as long as the average.
  double imbalance = 1.0;
  double pcie_stall_ms = 0;  // summed over devices
  double pcie_queue_ms = 0;  // summed staging admission wait
  std::vector<GpuDeviceShardStats> per_device;  // device order
  /// Input order (per_signal[i] describes xs[i]); each signal's window is
  /// on its own device's contention-free clock — cross-device spans are
  /// not directly comparable, use per_device/model_ms for fleet timing.
  std::vector<GpuSignalStats> per_signal;
  std::vector<std::size_t> device_of;  // input order: shard assignment

  /// Cluster fields (at nodes > 1 only; a one-node batch keeps the
  /// defaults). device_of stays the *global* device index (node-major
  /// flattened); node_of is the node split.
  std::size_t nodes = 1;
  double nic_stall_ms = 0;     // summed fabric-contention dilation
  double nic_queue_ms = 0;     // summed port-FIFO wait
  double nic_bytes = 0;        // total bytes crossing the fabric
  std::size_t nic_transfers = 0;
  double nic_transfer_ms = 0;  // summed NIC transfer spans
  std::vector<GpuNodeShardStats> per_node;  // node order; empty at 1 node
  std::vector<std::size_t> node_of;         // input order; empty at 1 node

  /// Folds this batch into the always-on registry: fleet counters and
  /// makespan/PCIe histograms, per-device utilization/finish gauges and
  /// signal counters under global device labels, every signal's latency +
  /// phase spans attributed to its assigned device, and — when per_node
  /// is non-empty — the cusfft_cluster_* / cusfft_node_* series. Every
  /// MultiGpuPlan and ClusterPlan batch publishes exactly once (the
  /// shard-level GpuBatchStats stay silent).
  void to_metrics(cusim::MetricsRegistry& reg) const;
};

class MultiGpuPlan {
 public:
  /// One GpuPlan per group device (plans build serially — the flat-filter
  /// cache and BufferPool warm up exactly once per shape).
  MultiGpuPlan(cusim::DeviceGroup& group, sfft::Params params, Options opts);
  ~MultiGpuPlan();
  MultiGpuPlan(MultiGpuPlan&&) noexcept;
  MultiGpuPlan& operator=(MultiGpuPlan&&) noexcept;
  MultiGpuPlan(const MultiGpuPlan&) = delete;
  MultiGpuPlan& operator=(const MultiGpuPlan&) = delete;

  std::size_t devices() const;
  const sfft::Params& params() const;
  cusim::DeviceGroup& group();

  void set_shard_policy(ShardPolicy p);
  ShardPolicy shard_policy() const;

  /// Shard assignment for a uniform batch of the plan's own shape:
  /// element i is the device index signal i would run on. Pure and
  /// deterministic (see file comment for the policy semantics).
  std::vector<std::size_t> shard_assignment(std::size_t batch) const;

  /// Mixed-shape assignment: one Params per signal. Under kCostLpt the
  /// LPT pass prices each signal on each device; under kUnitGreedy the
  /// shapes are ignored (every signal costs the legacy uniform weight).
  std::vector<std::size_t> shard_assignment(
      std::span<const sfft::Params> shapes) const;

  /// Shards the batch across the fleet and executes every shard
  /// concurrently (one host thread per non-empty shard), then merges the
  /// device timelines into one fleet schedule. Results and per-signal
  /// stats come back in input order, bit-identical to single-device
  /// execute_many. `mode` applies inside each shard.
  std::vector<SparseSpectrum> execute_many(
      std::span<const std::span<const cplx>> xs,
      GpuFleetStats* stats = nullptr, BatchMode mode = BatchMode::kAuto);

  /// Mixed-shape fleet execution: signals may carry different Params
  /// (n, k, filter, ...). Each device runs one cached GpuPlan per
  /// distinct shape inside a single capture; results per signal are
  /// bit-identical to running that signal's shape on a single device.
  std::vector<SparseSpectrum> execute_mixed(
      std::span<const MixedSignal> signals, GpuFleetStats* stats = nullptr,
      BatchMode mode = BatchMode::kAuto);

 private:
  friend class ClusterPlan;

  /// The shard runner every GPU batch takes (this plan's own batches and
  /// each node of a ClusterPlan batch): resolves each signal's backend,
  /// assigns the shards, builds their plans, opens the group capture and
  /// runs one host thread per non-empty shard. Fills rec's per_signal,
  /// device_of (this group's indices), pipelined and host_ms in the order
  /// of `signals`; the replay, rollup and publication are the caller's.
  std::vector<SparseSpectrum> run_shards(std::span<const MixedSignal> signals,
                                         BatchMode mode, GpuFleetStats& rec);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cusfft::gpu
