// A cluster of simulated hosts. Each node wraps one DeviceGroup (its own
// devices behind its own PCIe root complex); the nodes are joined by a
// modeled NIC fabric with bandwidth, per-message latency, and contention
// that are distinct from PCIe — a copy crossing the cluster pays the NIC
// first and the destination node's PCIe second.
//
// The NIC model is deliberately simple and fully deterministic:
//   - every node owns one full-duplex NIC port; transfers destined to a
//     node drain through that port in record (FIFO) order, one at a time —
//     time a ready transfer spends parked behind the port is "queue";
//   - transfers active on different ports at the same instant split the
//     shared fabric bandwidth equally — the dilation versus an uncontended
//     transfer (latency_s + bytes/bandwidth_Bps) is "stall";
//   - per-message latency is paid serially at the head of each transfer
//     and does not contend.
//
// Cluster::simulate() composes the per-node merged schedules
// (DeviceGroup::simulate) with the NIC schedule on one cluster clock:
// a node's compute is offset by the arrival of its *first* ingress
// transfer (later ingress overlaps compute — the staging pipeline is
// assumed deep enough), and an exchange barrier (slab gathers) can hold a
// node's tail items until every exchange destined to it has landed. At
// M = 1 there are no NIC transfers and the cluster schedule is
// bit-identical to DeviceGroup::simulate(), so single-node numbers — and
// every serialized artifact — degrade exactly to the fleet ones.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "cusim/device_group.hpp"

namespace cusfft::cusim {

struct CaptureProfile;  // profiler.hpp

/// Modeled NIC fabric parameters. Defaults are a ~100 Gbit/s link with a
/// few microseconds of per-message overhead — an order of magnitude below
/// the K20x's PCIe gen2 link in latency cost, above it in bandwidth, so
/// node sharding pays a visible but not absurd staging tax.
struct NicModel {
  double bandwidth_Bps = 12.5e9;  // ~100 Gbit/s Ethernet/IB
  double latency_s = 5e-6;        // per-message, paid serially per transfer

  static NicModel FromGbps(double gbps) {
    NicModel m;
    m.bandwidth_Bps = gbps * 1e9 / 8.0;
    return m;
  }
};

/// One modeled NIC transfer on the cluster clock.
struct NicSpan {
  std::string name;
  unsigned node = 0;   ///< destination node (owns the port FIFO)
  int src_node = -1;   ///< source node; -1 = host/frontend ingress
  double bytes = 0;
  double ready_s = 0;  ///< when the payload exists (0 for ingress)
  double start_s = 0;  ///< admission through the destination port
  double finish_s = 0;
  double solo_s = 0;   ///< latency_s + bytes/bandwidth, uncontended
};

/// Everything simulate() derives, on one shared cluster clock (t = 0 at
/// begin_capture). Index-aligned with the cluster's nodes.
struct ClusterSchedule {
  double makespan_s = 0;  ///< cluster finish: max node finish / NIC finish

  /// Per node: that node's merged device schedule *shifted onto the
  /// cluster clock* (ingress offset + any exchange-barrier hold applied).
  /// Item vectors stay index-aligned with each device's timeline items,
  /// so event lookups against them still work. At M = 1 this is exactly
  /// the node's FleetSchedule.
  std::vector<FleetSchedule> node_fleet;
  std::vector<double> node_offset_s;  ///< compute start (first ingress)
  std::vector<double> node_finish_s;  ///< last device finish, cluster clock

  std::vector<NicSpan> nic;           ///< record order
  std::vector<double> nic_stall_s;    ///< per node: fabric-contention dilation
  std::vector<double> nic_queue_s;    ///< per node: port-FIFO wait
  double nic_bytes = 0;               ///< total bytes crossing the fabric
};

class Cluster {
 public:
  /// M homogeneous nodes of `devices_per_node` devices each.
  Cluster(std::size_t nodes, std::size_t devices_per_node,
          perfmodel::GpuSpec spec = perfmodel::GpuSpec::k20x());
  /// Heterogeneous: one DeviceGroup per spec list.
  explicit Cluster(std::vector<std::vector<perfmodel::GpuSpec>> specs);

  std::size_t nodes() const { return groups_.size(); }
  /// Total devices across all nodes.
  std::size_t devices() const;
  DeviceGroup& node(std::size_t m) { return *groups_[m]; }
  const DeviceGroup& node(std::size_t m) const { return *groups_[m]; }

  const NicModel& nic() const { return nic_; }
  void set_nic(NicModel m) { nic_ = m; }

  /// Forwards the PCIe admission policy to every node's root complex.
  void set_staging(PcieStaging s);
  const PcieStaging& staging() const { return groups_.front()->staging(); }

  /// Fresh measured region on every node (shared t = 0); clears recorded
  /// NIC transfers and barriers.
  void begin_capture();

  /// Records a host -> `node` ingress transfer (batch staging). Ready at
  /// t = 0; the node's compute offset is its *first* ingress's arrival.
  void add_ingress(unsigned node, std::string name, double bytes);

  /// Records a `src_node` -> `dst_node` exchange (slab gather). Ready when
  /// the source node's compute finishes on the cluster clock.
  void add_exchange(unsigned src_node, unsigned dst_node, std::string name,
                    double bytes);

  /// Marks the exchange barrier on `node`: device items submitted after
  /// this call may not start before every exchange destined to `node` has
  /// arrived. Call between the producer submissions and the consumer
  /// submissions (with a device sync_point in between on that node).
  void mark_exchange_barrier(unsigned node);

  /// Merged cluster schedule (see file comment). Node schedules come from
  /// each DeviceGroup's cached simulate(), so a call recomputes only the
  /// NIC composition; rethrows DeviceGroup::simulate's deadlock error.
  ClusterSchedule simulate();

  /// Merged observability record. At nodes() == 1 this is byte-identical
  /// to DeviceGroup::end_capture() — same lanes, same serializations. For
  /// M > 1 lanes flatten node-major (lane == chrome-trace pid) and the
  /// profile gains node track groups plus NIC spans.
  CaptureProfile end_capture();

  /// BufferPool::global() stats at the last begin_capture().
  const BufferPool::Stats& pool_stats_at_capture() const {
    return groups_.front()->pool_stats_at_capture();
  }

 private:
  struct Transfer {
    std::string name;
    unsigned dst = 0;
    int src = -1;  // -1 = host ingress
    double bytes = 0;
  };
  struct Barrier {
    unsigned node = 0;
    // Per device of `node`: timeline item count when the barrier was
    // marked — items at index >= count are held for the exchanges.
    std::vector<std::size_t> item_count;
  };

  std::vector<std::unique_ptr<DeviceGroup>> groups_;
  NicModel nic_;
  std::vector<Transfer> transfers_;
  std::vector<Barrier> barriers_;
};

}  // namespace cusfft::cusim
