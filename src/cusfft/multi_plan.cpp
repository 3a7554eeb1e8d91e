#include "cusfft/multi_plan.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/timer.hpp"
#include "cusfft/autopick.hpp"
#include "cusfft/batch_rollup.hpp"
#include "cusim/metrics.hpp"
#include "sfft/ffast.hpp"
#include "signal/filter.hpp"

namespace cusfft::gpu {

double modeled_signal_cost_s(const sfft::Params& p,
                             const perfmodel::GpuSpec& spec,
                             const Options& opts) {
  const double cx = static_cast<double>(sizeof(cplx));
  const double n = static_cast<double>(p.n);

  if (p.algo == sfft::Algorithm::kAuto) {
    // Unresolved shapes are priced at the cheaper backend — what the
    // per-signal resolution inside execute_mixed will (modeled-mode) pick.
    sfft::Params q = p;
    q.algo = sfft::Algorithm::kCusfft;
    const double cus = modeled_signal_cost_s(q, spec, opts);
    q.algo = sfft::Algorithm::kFfast;
    return std::min(cus, modeled_signal_cost_s(q, spec, opts));
  }

  if (p.algo == sfft::Algorithm::kFfast) {
    // FFAST: per stage, the subsample gather reads + writes 6*F_s points
    // and the batched stage FFT streams them once per pass; the peeling
    // decode is host-side and costs no device time.
    const double eff_bw =
        spec.mem_bandwidth_Bps * spec.coalesced_bw_efficiency;
    const double peak = spec.dp_peak_flops();
    double bytes = 0.0, flops = 0.0;
    for (const auto& st :
         sfft::ffast_stage_chain(p.n, p.ffast_bins(), p.ffast_stages)) {
      const double planes =
          static_cast<double>(sfft::kFfastShifts * st.bins);
      const double passes =
          std::log2(std::max(2.0, static_cast<double>(st.bins)));
      bytes += 2.0 * planes * cx;            // gather read + plane write
      bytes += 2.0 * planes * cx * passes;   // stage FFT read+write / pass
      bytes += planes * cx;                  // D2H'd planes re-read
      flops += 5.0 * planes * passes;
    }
    double cost = bytes / (eff_bw > 0 ? eff_bw : 1.0);
    cost += flops / (peak > 0 ? peak : 1.0);
    if (opts.include_transfer)
      cost += n * cx /
                  (spec.pcie_bandwidth_Bps > 0 ? spec.pcie_bandwidth_Bps
                                               : 1.0) +
              spec.pcie_latency_s;
    return cost;
  }
  const double B = static_cast<double>(p.buckets());
  const double L = static_cast<double>(p.total_loops());
  const double taps = static_cast<double>(
      signal::flat_filter_sizes(p.n, p.buckets(), p.filter).second);
  const double fft_passes = std::log2(std::max(2.0, B));

  // Binning streams the permuted signal and the filter taps once per loop
  // and writes B buckets; the batched subsampled FFT reads + writes L*B
  // points per pass.
  double bytes = L * (2.0 * taps * cx + B * cx);
  bytes += 2.0 * L * B * cx * fft_passes;
  // Cutoff scans the buckets once per location loop; voting walks
  // cutoff() residue chains of n/B score updates; estimation re-reads L
  // buckets and filter responses per candidate.
  const double cut = static_cast<double>(p.cutoff());
  const double lloc = static_cast<double>(p.loops_loc);
  bytes += lloc * (B * cx + cut * (n / std::max(1.0, B)) * 4.0);
  bytes += lloc * cut * L * 2.0 * cx;

  const double eff_bw =
      spec.mem_bandwidth_Bps * spec.coalesced_bw_efficiency;
  double cost = bytes / (eff_bw > 0 ? eff_bw : 1.0);

  // FLOP floor so compute-limited devices price in (~10 flops per binning
  // tap, ~5 per FFT butterfly point).
  const double flops = L * taps * 10.0 + 5.0 * L * B * fft_passes;
  const double peak = spec.dp_peak_flops();
  cost += flops / (peak > 0 ? peak : 1.0);

  if (opts.include_transfer)
    cost += n * cx /
                (spec.pcie_bandwidth_Bps > 0 ? spec.pcie_bandwidth_Bps
                                             : 1.0) +
            spec.pcie_latency_s;
  // Kernel-launch overhead deliberately excluded: identical on every
  // device, it would only flatten the relative costs (see header).
  return cost;
}

struct MultiGpuPlan::Impl {
  cusim::DeviceGroup* group = nullptr;
  sfft::Params params;      // as submitted (params() contract; may be kAuto)
  sfft::Params plan_shape;  // the eager plans' shape: params with kAuto
                            // defaulted to kCusfft — per-signal resolution
                            // in execute_mixed decides the real backend
  Options opts;
  ShardPolicy policy = ShardPolicy::kCostLpt;
  std::vector<std::unique_ptr<GpuPlan>> plans;  // one per device, ctor shape
  std::vector<double> weight;  // legacy kUnitGreedy per-device cost
  /// Mixed-shape plan cache: per device, one GpuPlan per distinct
  /// RESOLVED shape seen by execute_mixed (the ctor shape reuses
  /// `plans`). Keyed on every Params field: two same-shape submissions
  /// that differ only in backend must not alias to one plan
  /// (regression-pinned in test_multigpu.cpp). Built serially before
  /// shard threads fan out; shard threads only read.
  std::vector<std::map<sfft::Params, std::unique_ptr<GpuPlan>>> cache;

  GpuPlan& plan_for(std::size_t d, const sfft::Params& p) {
    if (p == plan_shape) return *plans[d];
    auto& slot = cache[d][p];
    if (!slot)
      slot = std::make_unique<GpuPlan>(group->device(d), p, opts);
    return *slot;
  }
};

MultiGpuPlan::MultiGpuPlan(cusim::DeviceGroup& group, sfft::Params params,
                           Options opts)
    : impl_(std::make_unique<Impl>()) {
  impl_->group = &group;
  impl_->params = params;
  // GpuPlan refuses unresolved kAuto; the eager per-device plans take the
  // default backend and the picker's per-signal choices go through the
  // shape cache (a kFfast pick never aliases back onto these plans — the
  // algorithm is part of the cache key).
  impl_->plan_shape = params;
  if (impl_->plan_shape.algo == sfft::Algorithm::kAuto)
    impl_->plan_shape.algo = sfft::Algorithm::kCusfft;
  impl_->opts = opts;
  impl_->cache.resize(group.size());
  for (std::size_t d = 0; d < group.size(); ++d) {
    impl_->plans.push_back(
        std::make_unique<GpuPlan>(group.device(d), impl_->plan_shape, opts));
    // Legacy kUnitGreedy weight: per-signal time scales with
    // 1/mem_bandwidth, every signal costs the same.
    const double bw = group.device(d).spec().mem_bandwidth_Bps;
    impl_->weight.push_back(bw > 0 ? 1.0 / bw : 1.0);
  }
}

MultiGpuPlan::~MultiGpuPlan() = default;
MultiGpuPlan::MultiGpuPlan(MultiGpuPlan&&) noexcept = default;
MultiGpuPlan& MultiGpuPlan::operator=(MultiGpuPlan&&) noexcept = default;

std::size_t MultiGpuPlan::devices() const { return impl_->plans.size(); }
const sfft::Params& MultiGpuPlan::params() const { return impl_->params; }
cusim::DeviceGroup& MultiGpuPlan::group() { return *impl_->group; }

void MultiGpuPlan::set_shard_policy(ShardPolicy p) { impl_->policy = p; }
ShardPolicy MultiGpuPlan::shard_policy() const { return impl_->policy; }

std::vector<std::size_t> MultiGpuPlan::shard_assignment(
    std::size_t batch) const {
  const std::vector<sfft::Params> shapes(batch, impl_->params);
  return shard_assignment(shapes);
}

std::vector<std::size_t> MultiGpuPlan::shard_assignment(
    std::span<const sfft::Params> shapes) const {
  const std::size_t ndev = impl_->plans.size();
  const std::size_t batch = shapes.size();
  std::vector<std::size_t> out(batch, 0);
  std::vector<double> load(ndev, 0.0);

  if (impl_->policy == ShardPolicy::kUnitGreedy) {
    // Legacy: input order, every signal costs the device's uniform
    // weight whatever its shape.
    for (std::size_t i = 0; i < batch; ++i) {
      std::size_t best = 0;
      for (std::size_t d = 1; d < ndev; ++d)
        if (load[d] + impl_->weight[d] <
            load[best] + impl_->weight[best])  // strict: ties -> lowest
          best = d;
      out[i] = best;
      load[best] += impl_->weight[best];
    }
    return out;
  }

  // kCostLpt: price each signal on each device, then place in LPT order
  // (most expensive first, by the device-0 reference cost; stable, so a
  // uniform batch keeps input order and degrades to round-robin) onto
  // the device with the smallest projected finish.
  std::vector<std::vector<double>> cost(batch, std::vector<double>(ndev));
  for (std::size_t i = 0; i < batch; ++i)
    for (std::size_t d = 0; d < ndev; ++d)
      cost[i][d] = modeled_signal_cost_s(
          shapes[i], impl_->group->device(d).spec(), impl_->opts);
  std::vector<std::size_t> order(batch);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost[a][0] > cost[b][0];
                   });
  for (const std::size_t i : order) {
    std::size_t best = 0;
    for (std::size_t d = 1; d < ndev; ++d)
      if (load[d] + cost[i][d] <
          load[best] + cost[i][best])  // strict: ties -> lowest index
        best = d;
    out[i] = best;
    load[best] += cost[i][best];
  }
  return out;
}

std::vector<SparseSpectrum> MultiGpuPlan::execute_many(
    std::span<const std::span<const cplx>> xs, GpuFleetStats* stats,
    BatchMode mode) {
  // Uniform batches are the degenerate mixed case: one shape group per
  // shard, same assignment, same merged schedule.
  std::vector<MixedSignal> signals;
  signals.reserve(xs.size());
  for (const auto& x : xs) signals.push_back({x, impl_->params});
  return execute_mixed(signals, stats, mode);
}

std::vector<SparseSpectrum> MultiGpuPlan::execute_mixed(
    std::span<const MixedSignal> signals, GpuFleetStats* stats,
    BatchMode mode) {
  GpuFleetStats st;
  std::vector<SparseSpectrum> out = run_shards(signals, mode, st);
  // The fleet is the one-node cluster: its merged schedule, lifted to a
  // one-node ClusterSchedule, takes the same rollup and publication as
  // every cluster batch.
  cusim::ClusterSchedule cs;
  cs.node_fleet.push_back(impl_->group->simulate());
  cs.makespan_s = cs.node_fleet[0].makespan_s;
  cusim::DeviceGroup* const node = impl_->group;
  detail::roll_up_batch(std::move(st), {&node, 1}, cs, stats);
  return out;
}

std::vector<SparseSpectrum> MultiGpuPlan::run_shards(
    std::span<const MixedSignal> signals, BatchMode mode,
    GpuFleetStats& rec) {
  const std::size_t ndev = impl_->plans.size();
  const std::size_t batch = signals.size();
  cusim::DeviceGroup& group = *impl_->group;

  std::vector<sfft::Params> shapes;
  shapes.reserve(batch);
  for (const auto& s : signals) shapes.push_back(s.params);
  // Per-signal backend resolution — THE kAuto resolution point of the
  // plan API (GpuPlan refuses unresolved kAuto). Applies the CUSFFT_ALGO
  // override and, for kAuto shapes, the CUSFFT_AUTOPICK crossover picker
  // against device 0's spec (resolution must precede shard assignment —
  // the cost model prices the resolved backend, and heterogeneous fleets
  // still need one consistent backend per signal for input-order
  // determinism).
  for (auto& sh : shapes)
    sh.algo = resolve_algorithm(sh, group.device(0).spec(), impl_->opts);
  rec.device_of = shard_assignment(shapes);

  // Each device's shard, grouped by shape in first-appearance order: one
  // GpuPlan per distinct shape runs one (pipelined) batch per group.
  struct Group {
    sfft::Params p;
    std::vector<std::size_t> idx;  // input indices, input order
  };
  std::vector<std::vector<Group>> groups(ndev);
  for (std::size_t i = 0; i < batch; ++i) {
    const std::size_t d = rec.device_of[i];
    // Group by the RESOLVED shape: two kAuto signals picked onto
    // different backends land in different groups (and different cached
    // plans) even though their submitted Params were identical.
    auto it = std::find_if(
        groups[d].begin(), groups[d].end(),
        [&](const Group& g) { return g.p == shapes[i]; });
    if (it == groups[d].end()) {
      groups[d].push_back(Group{shapes[i], {i}});
    } else {
      it->idx.push_back(i);
    }
  }

  // Build every shape's plan serially before fanning out: plan
  // construction touches shared caches (flat filter, BufferPool) that
  // the concurrent shard threads must not race on.
  for (std::size_t d = 0; d < ndev; ++d)
    for (const Group& g : groups[d]) impl_->plan_for(d, g.p);

  // Shared t=0 for every device + the fleet-level pool snapshot. Shard
  // batches append to this capture (run_batch without a fresh capture) so
  // one device timeline covers all of its shape groups.
  group.begin_capture();

  std::vector<SparseSpectrum> out(batch);
  rec.per_signal.assign(batch, {});
  std::vector<char> shard_pipelined(ndev, 0);
  std::vector<std::exception_ptr> errors(ndev);
  WallTimer wall;
  auto run_shard = [&](std::size_t d) {
    try {
      bool first = true;
      for (const Group& g : groups[d]) {
        // Serialize shape groups on the device timeline: a real device
        // would drain one plan's work before the next plan's bulk
        // upload anyway, and overlapping unrelated plans would
        // under-report the shard makespan.
        if (!first) group.device(d).sync_point();
        first = false;
        std::vector<std::span<const cplx>> views;
        views.reserve(g.idx.size());
        for (const std::size_t i : g.idx) views.push_back(signals[i].x);
        GpuBatchStats bs;
        auto outs = impl_->plan_for(d, g.p).run_batch(
            std::span<const std::span<const cplx>>(views), &bs, mode,
            /*fresh_capture=*/false);
        for (std::size_t j = 0; j < g.idx.size(); ++j) {
          out[g.idx[j]] = std::move(outs[j]);
          rec.per_signal[g.idx[j]] = std::move(bs.per_signal[j]);
        }
        shard_pipelined[d] |= bs.pipelined ? 1 : 0;
      }
    } catch (...) {
      errors[d] = std::current_exception();
    }
  };
  std::vector<std::size_t> active;
  for (std::size_t d = 0; d < ndev; ++d)
    if (!groups[d].empty()) active.push_back(d);
  if (active.size() <= 1) {
    for (const std::size_t d : active) run_shard(d);
  } else {
    // One host thread per non-empty shard; each device's signal lanes
    // run on its private ThreadPool (DeviceGroup wiring).
    std::vector<std::thread> threads;
    threads.reserve(active.size());
    for (const std::size_t d : active)
      threads.emplace_back([&run_shard, d] { run_shard(d); });
    for (auto& t : threads) t.join();
  }
  rec.host_ms = wall.ms();
  for (const std::size_t d : active)
    if (errors[d]) std::rethrow_exception(errors[d]);
  for (const std::size_t d : active)
    rec.pipelined = rec.pipelined || shard_pipelined[d] != 0;
  return out;
}

void detail::roll_up_batch(GpuFleetStats st,
                           std::span<cusim::DeviceGroup* const> nodes,
                           const cusim::ClusterSchedule& cs,
                           GpuFleetStats* stats) {
  const bool cluster = nodes.size() > 1;
  st.model_ms = cs.makespan_s * 1e3;
  st.signals = st.per_signal.size();
  for (const GpuSignalStats& sig : st.per_signal)
    st.candidates += sig.candidates;
  st.nodes = nodes.size();
  st.staging = nodes.front()->staging().name();
  st.nic_transfers = cs.nic.size();
  st.nic_bytes = cs.nic_bytes;
  for (const cusim::NicSpan& s : cs.nic)
    st.nic_transfer_ms += (s.finish_s - s.start_s) * 1e3;

  std::vector<std::size_t> node_of_device;
  for (std::size_t m = 0; m < nodes.size(); ++m)
    node_of_device.resize(node_of_device.size() + nodes[m]->size(), m);
  st.devices = node_of_device.size();
  std::vector<std::size_t> device_signals(st.devices, 0);
  for (const std::size_t g : st.device_of) ++device_signals[g];

  // Imbalance is max/mean finish over the units that ran work: devices
  // on one node, nodes on a cluster (the device split inside a node is
  // its own fleet's story).
  double finish_sum = 0, finish_max = 0;
  std::size_t ran = 0;
  auto count_finish = [&](double ms) {
    if (ms <= 0) return;
    finish_sum += ms;
    finish_max = std::max(finish_max, ms);
    ++ran;
  };
  std::size_t g = 0;
  for (std::size_t m = 0; m < nodes.size(); ++m) {
    cusim::DeviceGroup& grp = *nodes[m];
    const cusim::FleetSchedule& f = cs.node_fleet[m];
    GpuNodeShardStats ns;
    ns.devices = grp.size();
    double busy_sum = 0;
    for (std::size_t d = 0; d < grp.size(); ++d, ++g) {
      GpuDeviceShardStats ds;
      ds.device = grp.device(d).spec().name;
      ds.signals = device_signals[g];
      ds.model_ms = f.finish_s[d] * 1e3;
      ds.solo_ms = ds.signals > 0 ? grp.device(d).elapsed_model_ms() : 0.0;
      ds.pcie_stall_ms = f.pcie_stall_s[d] * 1e3;
      ds.pcie_queue_ms = f.pcie_queue_s[d] * 1e3;
      // Busy fraction of the batch makespan (time >= 1 kernel resident):
      // a device that finishes last but spent the window idling on PCIe
      // reports low utilization, not ~1.0.
      if (st.model_ms > 0) ds.utilization = f.busy_s[d] * 1e3 / st.model_ms;
      busy_sum += ds.utilization;
      ns.signals += ds.signals;
      st.pcie_stall_ms += ds.pcie_stall_ms;
      st.pcie_queue_ms += ds.pcie_queue_ms;
      if (!cluster) count_finish(ds.model_ms);
      st.per_device.push_back(std::move(ds));
    }
    if (!cluster) continue;
    ns.model_ms = cs.node_finish_s[m] * 1e3;
    ns.offset_ms = cs.node_offset_s[m] * 1e3;
    ns.nic_stall_ms = cs.nic_stall_s[m] * 1e3;
    ns.nic_queue_ms = cs.nic_queue_s[m] * 1e3;
    for (const cusim::NicSpan& s : cs.nic)
      if (s.node == m) ns.nic_bytes += s.bytes;
    ns.utilization = busy_sum / static_cast<double>(grp.size());
    st.nic_stall_ms += ns.nic_stall_ms;
    st.nic_queue_ms += ns.nic_queue_ms;
    count_finish(ns.model_ms);
    st.per_node.push_back(std::move(ns));
  }
  if (cluster)
    for (const std::size_t dev : st.device_of)
      st.node_of.push_back(node_of_device[dev]);
  if (ran > 0) st.imbalance = finish_max / (finish_sum / ran);

  st.to_metrics(cusim::MetricsRegistry::global());
  if (stats != nullptr) *stats = std::move(st);
}

void detail::observe_signal_metrics(cusim::MetricsRegistry& reg,
                                    const GpuSignalStats& sig,
                                    std::size_t device) {
  using cusim::MetricsRegistry;
  reg.histogram(MetricsRegistry::label("cusfft_signal_latency_ms", "device",
                                       std::to_string(device)))
      .observe(sig.end_ms - sig.start_ms);
  for (const auto& [phase, span_ms] : sig.phase_span_ms)
    reg.histogram(MetricsRegistry::label("cusfft_phase_ms", "phase", phase))
        .observe(span_ms);
}

void GpuFleetStats::to_metrics(cusim::MetricsRegistry& reg) const {
  using cusim::MetricsRegistry;
  reg.counter("cusfft_fleet_batches_total").inc();
  reg.counter("cusfft_signals_total").add(signals);
  reg.counter("cusfft_candidates_total").add(candidates);
  {
    // Per-backend signal counts from the per-signal records — under
    // execute_mixed a single fleet batch can mix backends.
    std::map<sfft::Algorithm, std::size_t> by_algo;
    for (const GpuSignalStats& sig : per_signal) ++by_algo[sig.algo];
    for (const auto& [algo, count] : by_algo)
      reg.counter(MetricsRegistry::label("cusfft_algo_signals_total", "algo",
                                         sfft::to_string(algo)))
          .add(count);
  }
  if (pipelined) reg.counter("cusfft_batches_pipelined_total").inc();
  reg.histogram("cusfft_fleet_model_ms").observe(model_ms);
  reg.histogram("cusfft_fleet_host_ms").observe(host_ms);
  reg.histogram("cusfft_fleet_pcie_stall_ms").observe(pcie_stall_ms);
  reg.histogram("cusfft_fleet_pcie_queue_ms").observe(pcie_queue_ms);
  reg.gauge("cusfft_fleet_imbalance").set(imbalance);
  for (std::size_t d = 0; d < per_device.size(); ++d) {
    const GpuDeviceShardStats& ds = per_device[d];
    const std::string dev = std::to_string(d);
    reg.counter(MetricsRegistry::label("cusfft_device_signals_total",
                                       "device", dev))
        .add(ds.signals);
    reg.gauge(
           MetricsRegistry::label("cusfft_device_utilization", "device", dev))
        .set(ds.utilization);
    reg.gauge(MetricsRegistry::label("cusfft_device_finish_ms", "device", dev))
        .set(ds.model_ms);
  }
  // Per-signal windows land on the device that actually ran the signal —
  // this is where the per-device p50/p99 execute-latency story comes from.
  for (std::size_t i = 0; i < per_signal.size(); ++i)
    detail::observe_signal_metrics(reg, per_signal[i],
                                   i < device_of.size() ? device_of[i] : 0);

  if (per_node.empty()) return;
  reg.counter("cusfft_cluster_batches_total").inc();
  reg.counter("cusfft_cluster_signals_total").add(signals);
  reg.counter("cusfft_cluster_nic_transfers_total").add(nic_transfers);
  reg.counter("cusfft_cluster_nic_bytes_total")
      .add(static_cast<u64>(nic_bytes));
  reg.histogram("cusfft_cluster_model_ms").observe(model_ms);
  reg.histogram("cusfft_cluster_nic_ms").observe(nic_transfer_ms);
  reg.histogram("cusfft_cluster_nic_stall_ms").observe(nic_stall_ms);
  reg.histogram("cusfft_cluster_nic_queue_ms").observe(nic_queue_ms);
  reg.gauge("cusfft_cluster_nodes").set(static_cast<double>(nodes));
  for (std::size_t m = 0; m < per_node.size(); ++m) {
    const GpuNodeShardStats& ns = per_node[m];
    const std::string node = std::to_string(m);
    reg.counter(
           MetricsRegistry::label("cusfft_node_signals_total", "node", node))
        .add(ns.signals);
    reg.gauge(MetricsRegistry::label("cusfft_node_finish_ms", "node", node))
        .set(ns.model_ms);
    reg.gauge(MetricsRegistry::label("cusfft_node_utilization", "node", node))
        .set(ns.utilization);
    reg.counter(
           MetricsRegistry::label("cusfft_node_nic_bytes_total", "node", node))
        .add(static_cast<u64>(ns.nic_bytes));
  }
}

}  // namespace cusfft::gpu
