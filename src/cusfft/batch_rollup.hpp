// The path every MultiGpuPlan and ClusterPlan batch takes after its
// replay, and the per-signal publication it shares with GpuPlan's own
// batches (internal to the gpu layer; defined in multi_plan.cpp).
#pragma once

#include <span>

#include "cusfft/multi_plan.hpp"
#include "cusim/cluster.hpp"

namespace cusfft::gpu::detail {

/// Publishes one signal's window into the always-on registry: its
/// end-to-end latency into `cusfft_signal_latency_ms{device="<device>"}`
/// and each phase span into `cusfft_phase_ms{phase="..."}`. Shared by
/// GpuBatchStats::to_metrics and GpuFleetStats::to_metrics so the two can
/// never drift apart.
void observe_signal_metrics(cusim::MetricsRegistry& reg,
                            const GpuSignalStats& sig, std::size_t device);

/// The one rollup behind every GpuFleetStats — fleet, cluster and slab:
/// rolls the batch up, publishes it once with to_metrics() and hands it to
/// `stats`. `st` arrives with the run's per_signal, global device_of,
/// pipelined and host_ms; everything else is read off the replayed
/// schedule `cs` of `nodes` (one DeviceGroup per node; a fleet passes its
/// FleetSchedule lifted to one node). A device's solo time is its own
/// contention-free replay when it ran a signal. With more than one node
/// the record gains node_of, the per_node rows and the NIC split.
void roll_up_batch(GpuFleetStats st,
                   std::span<cusim::DeviceGroup* const> nodes,
                   const cusim::ClusterSchedule& cs, GpuFleetStats* stats);

}  // namespace cusfft::gpu::detail
