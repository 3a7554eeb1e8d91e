// Cluster execution: batches sharded across a cusim::Cluster of nodes
// (each node one DeviceGroup), and AccFFT-style slab decomposition of one
// signal whose working set exceeds a single device's modeled memory.
//
// ClusterPlan is the one GPU executor behind the C API and serve::Server
// at every topology: a single device is the 1 node x 1 device cluster,
// a fleet the 1 x N one.
//
// Two execution shapes:
//
//   execute_many / execute_mixed — node-level sharding. The PR 5 cost
//   model prices each signal per node (per-device analytic cost divided
//   by the node's device count) plus a NIC staging term for every node
//   except the head (node 0 is co-located with the data, so its shard
//   pays no NIC). The LPT pass then reuses the fleet discipline across
//   the node x device hierarchy: signals place onto the node with the
//   smallest projected finish, and each node's MultiGpuPlan shard runner
//   re-shards its slice across its own devices. Ingress staging is
//   recorded as modeled NIC transfers overlapped with compute (a node
//   starts after its *first* payload lands). The batch is then replayed
//   once on the cluster clock, rolled up once and published once, at
//   every M: at M = 1 that path is the fleet's, so stats, artifacts and
//   spectra equal MultiGpuPlan's bit for bit.
//
//   execute_slab — one oversized signal, input-slice decomposition. The
//   time-domain input splits into M contiguous slices; node m stages
//   only its slice (n/M samples over the NIC for m > 0), and its
//   binning kernel walks the full filter-tap sequence but accumulates
//   only taps whose permuted index lands in its slice. The per-node
//   partial bucket sums are exact per tap; the head node gathers them
//   (NIC exchange + barrier), reduces, and runs the estimation phase.
//   Summing partials regroups the floating-point accumulation, so the
//   slab spectrum is accuracy-tested against SerialPlan, not memcmp'd.
//   The slab is recorded and published like any batch of one signal on
//   the head node's first device.
//
// Ordering contract matches MultiGpuPlan: spectra and per_signal stats
// in input order; device_of carries *global* (node-major) device
// indices; node_of carries the node split.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "cusfft/multi_plan.hpp"
#include "cusim/cluster.hpp"

namespace cusfft::gpu {

class ClusterPlan {
 public:
  /// One MultiGpuPlan per node (built serially, same shape/options) at the
  /// first batch or prepare() — execute_slab never builds them.
  ClusterPlan(cusim::Cluster& cluster, sfft::Params params, Options opts);
  ~ClusterPlan();
  ClusterPlan(ClusterPlan&&) noexcept;
  ClusterPlan& operator=(ClusterPlan&&) noexcept;
  ClusterPlan(const ClusterPlan&) = delete;
  ClusterPlan& operator=(const ClusterPlan&) = delete;

  std::size_t nodes() const;
  std::size_t devices() const;  ///< total, across nodes
  cusim::Cluster& cluster();
  const sfft::Params& params() const;

  /// Builds the per-node batch plans now instead of at the first batch,
  /// for the backend params() resolves to (resolve_algorithm against
  /// node 0's first device), so a shape that cannot fit device memory
  /// fails here (cusim::OutOfDeviceMemory from GpuPlan or the picker's
  /// calibration) rather than mid-execute. Idempotent.
  void prepare();

  /// Forwards to every node's MultiGpuPlan (intra-node assignment).
  void set_shard_policy(ShardPolicy p);
  ShardPolicy shard_policy() const;

  /// Node each signal runs on: per-node cost = per-device analytic cost
  /// / node device count + NIC staging term (0 on the head node), LPT
  /// placement, strict ties to the lowest node. Pure and deterministic.
  std::vector<std::size_t> node_assignment(
      std::span<const sfft::Params> shapes) const;

  /// Shards the batch across nodes, records the NIC ingress, runs each
  /// node's shard through its MultiGpuPlan's shard runner, and rolls the
  /// batch up once on the cluster clock. Results in input order; at
  /// M = 1 bit-identical to MultiGpuPlan::execute_many.
  std::vector<SparseSpectrum> execute_many(
      std::span<const std::span<const cplx>> xs,
      GpuFleetStats* stats = nullptr, BatchMode mode = BatchMode::kAuto);

  /// Mixed-shape cluster execution (see execute_many).
  std::vector<SparseSpectrum> execute_mixed(
      std::span<const MixedSignal> signals, GpuFleetStats* stats = nullptr,
      BatchMode mode = BatchMode::kAuto);

  /// Slab decomposition of one signal (see file comment). Requires
  /// params().comb == false (the Comb prefilter needs the whole signal
  /// resident). Throws cusim::OutOfDeviceMemory when the working set
  /// exceeds one device's memory and nodes() == 1 — the run that is
  /// impossible without the cluster.
  SparseSpectrum execute_slab(std::span<const cplx> x,
                              GpuFleetStats* stats = nullptr);

  /// Modeled single-device working set of shape `p` (signal + score +
  /// filter taps + per-loop buckets), the execute_slab oversize test.
  static std::size_t slab_working_set_bytes(const sfft::Params& p);

  /// One slab's per-device residency when `p` is decomposed across
  /// `nodes` nodes (input slice + filter taps + partial bins + gather
  /// scratch). execute_slab refuses when this still exceeds the node's
  /// device memory; benches/tests use it to size oversized-signal demos
  /// (the modeled memory must sit between this and the full working set).
  static std::size_t slab_node_working_set_bytes(const sfft::Params& p,
                                                 std::size_t nodes);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cusfft::gpu
