#include "cusfft/cluster_plan.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/rng.hpp"
#include "core/timer.hpp"
#include "cusfft/autopick.hpp"
#include "cusfft/batch_rollup.hpp"
#include "fft/fft.hpp"
#include "sfft/steps.hpp"
#include "signal/filter.hpp"

namespace cusfft::gpu {

namespace {

/// NIC staging cost of moving one length-n signal onto a non-head node.
double nic_stage_cost_s(std::size_t n, const cusim::NicModel& nic) {
  const double bw = nic.bandwidth_Bps > 0 ? nic.bandwidth_Bps : 1.0;
  return nic.latency_s + static_cast<double>(n * sizeof(cplx)) / bw;
}

/// Node-level per-signal cost. modeled_signal_cost_s deliberately
/// excludes kernel-launch overhead — it is identical on every device of
/// a group, so it would only flatten *relative* costs there. Here the
/// compute estimate is weighed against wall-clock NIC seconds, so the
/// absolute scale matters: without the launch floor the staging term
/// dominates the estimate and LPT starves the non-head nodes. The launch
/// count approximates the plan's kernel chain (per-loop binning + FFT
/// passes, the selection/vote kernels per location loop, estimation).
double node_signal_cost_s(const sfft::Params& p,
                          const perfmodel::GpuSpec& spec,
                          const Options& opts) {
  const double L = static_cast<double>(p.total_loops());
  const double passes =
      std::log2(std::max(2.0, static_cast<double>(p.buckets())));
  const double launches =
      L * (1.0 + passes) + 3.0 * static_cast<double>(p.loops_loc) + 4.0;
  return modeled_signal_cost_s(p, spec, opts) +
         launches * spec.kernel_launch_overhead_s;
}

}  // namespace

struct ClusterPlan::Impl {
  cusim::Cluster* cluster = nullptr;
  sfft::Params params;
  Options opts;
  ShardPolicy policy = ShardPolicy::kCostLpt;
  // One MultiGpuPlan per node, built on the first batch execution — the
  // slab path drives the devices directly and must stay usable when the
  // full batch plan would not fit device memory (the oversized demo).
  std::vector<std::unique_ptr<MultiGpuPlan>> node_plans;
  std::vector<cusim::DeviceGroup*> groups;  // node order
  std::vector<std::size_t> base;  // node -> first global device index

  void ensure_node_plans() {
    if (!node_plans.empty()) return;
    // The eager plans take the backend the plan's own shape resolves to
    // (CUSFFT_ALGO, then the kAuto picker — one pick per build, whatever
    // the topology), so they are the plans its batches run and a backend
    // that cannot fit fails here. Batches still resolve every signal.
    sfft::Params shape = params;
    shape.algo =
        resolve_algorithm(params, cluster->node(0).device(0).spec(), opts);
    // Built aside and committed whole, so a node whose plans throw (the
    // shape does not fit its devices) leaves no partial set behind.
    std::vector<std::unique_ptr<MultiGpuPlan>> built;
    for (std::size_t m = 0; m < cluster->nodes(); ++m) {
      built.push_back(
          std::make_unique<MultiGpuPlan>(cluster->node(m), shape, opts));
      built.back()->set_shard_policy(policy);
    }
    node_plans = std::move(built);
  }
};

ClusterPlan::ClusterPlan(cusim::Cluster& cluster, sfft::Params params,
                         Options opts)
    : impl_(std::make_unique<Impl>()) {
  impl_->cluster = &cluster;
  impl_->params = params;
  impl_->opts = opts;
  std::size_t base = 0;
  for (std::size_t m = 0; m < cluster.nodes(); ++m) {
    impl_->groups.push_back(&cluster.node(m));
    impl_->base.push_back(base);
    base += cluster.node(m).size();
  }
}

ClusterPlan::~ClusterPlan() = default;
ClusterPlan::ClusterPlan(ClusterPlan&&) noexcept = default;
ClusterPlan& ClusterPlan::operator=(ClusterPlan&&) noexcept = default;

std::size_t ClusterPlan::nodes() const { return impl_->cluster->nodes(); }
std::size_t ClusterPlan::devices() const { return impl_->cluster->devices(); }
cusim::Cluster& ClusterPlan::cluster() { return *impl_->cluster; }
const sfft::Params& ClusterPlan::params() const { return impl_->params; }

void ClusterPlan::prepare() { impl_->ensure_node_plans(); }

void ClusterPlan::set_shard_policy(ShardPolicy p) {
  impl_->policy = p;
  for (auto& np : impl_->node_plans) np->set_shard_policy(p);
}
ShardPolicy ClusterPlan::shard_policy() const { return impl_->policy; }

std::vector<std::size_t> ClusterPlan::node_assignment(
    std::span<const sfft::Params> shapes) const {
  const std::size_t M = impl_->cluster->nodes();
  const std::size_t batch = shapes.size();
  std::vector<std::size_t> out(batch, 0);
  if (M <= 1) return out;

  // Per-node signal cost: the PR 5 per-device analytic cost divided by
  // the node's device count (its MultiGpuPlan spreads the shard). The
  // NIC staging term applies everywhere but the head node (node 0 is
  // co-located with the data) — and only to a node's *first* signal:
  // the simulation starts a node's compute at its first ingress's
  // arrival, every later ingress overlaps compute.
  std::vector<std::vector<double>> cost(batch, std::vector<double>(M));
  for (std::size_t i = 0; i < batch; ++i)
    for (std::size_t m = 0; m < M; ++m) {
      const cusim::DeviceGroup& g = impl_->cluster->node(m);
      cost[i][m] = node_signal_cost_s(
                       shapes[i], g.device(0).spec(), impl_->opts) /
                   static_cast<double>(g.size());
    }
  // LPT, same discipline as the device-level pass: most expensive first
  // by the head-node reference cost (stable, so uniform batches keep
  // input order), placed onto the node with the smallest projected
  // finish, strict ties to the lowest node.
  std::vector<std::size_t> order(batch);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost[a][0] > cost[b][0];
                   });
  std::vector<double> load(M, 0.0);
  std::vector<bool> opened(M, false);
  for (const std::size_t i : order) {
    auto projected = [&](std::size_t m) {
      double c = load[m] + cost[i][m];
      if (m > 0 && !opened[m])
        c += nic_stage_cost_s(shapes[i].n, impl_->cluster->nic());
      return c;
    };
    std::size_t best = 0;
    for (std::size_t m = 1; m < M; ++m)
      if (projected(m) < projected(best)) best = m;
    out[i] = best;
    load[best] = projected(best);
    opened[best] = true;
  }
  return out;
}

std::vector<SparseSpectrum> ClusterPlan::execute_many(
    std::span<const std::span<const cplx>> xs, GpuFleetStats* stats,
    BatchMode mode) {
  std::vector<MixedSignal> signals;
  signals.reserve(xs.size());
  for (const auto& x : xs) signals.push_back({x, impl_->params});
  return execute_mixed(signals, stats, mode);
}

std::vector<SparseSpectrum> ClusterPlan::execute_mixed(
    std::span<const MixedSignal> signals, GpuFleetStats* stats,
    BatchMode mode) {
  const std::size_t M = impl_->cluster->nodes();
  impl_->ensure_node_plans();

  cusim::Cluster& cluster = *impl_->cluster;
  const std::size_t batch = signals.size();
  std::vector<sfft::Params> shapes;
  shapes.reserve(batch);
  for (const auto& s : signals) shapes.push_back(s.params);
  const std::vector<std::size_t> assign = node_assignment(shapes);

  std::vector<std::vector<std::size_t>> node_sigs(M);  // input order
  for (std::size_t i = 0; i < batch; ++i) node_sigs[assign[i]].push_back(i);

  // Shared t = 0 on every node; then the NIC ingress in input order
  // (node 0's shard is host-co-located and pays nothing).
  cluster.begin_capture();
  for (std::size_t i = 0; i < batch; ++i)
    if (assign[i] > 0)
      cluster.add_ingress(static_cast<unsigned>(assign[i]), "nic_stage",
                          static_cast<double>(shapes[i].n * sizeof(cplx)));

  // Run each node's shard through its MultiGpuPlan's shard runner —
  // sequentially on the host: the flat-filter cache and BufferPool are
  // process-global, and the node plans must not race on them. Nothing is
  // replayed or published per node: the batch is rolled up and published
  // once, on the cluster clock.
  std::vector<SparseSpectrum> out(batch);
  GpuFleetStats st;
  st.per_signal.resize(batch);
  st.device_of.resize(batch);
  for (std::size_t m = 0; m < M; ++m) {
    if (node_sigs[m].empty()) continue;
    std::vector<MixedSignal> shard;
    shard.reserve(node_sigs[m].size());
    for (const std::size_t i : node_sigs[m]) shard.push_back(signals[i]);
    GpuFleetStats rec;
    auto outs = impl_->node_plans[m]->run_shards(shard, mode, rec);
    for (std::size_t j = 0; j < node_sigs[m].size(); ++j) {
      const std::size_t i = node_sigs[m][j];
      out[i] = std::move(outs[j]);
      st.per_signal[i] = std::move(rec.per_signal[j]);
      st.device_of[i] = impl_->base[m] + rec.device_of[j];
    }
    st.pipelined = st.pipelined || rec.pipelined;
    st.host_ms += rec.host_ms;
  }
  detail::roll_up_batch(std::move(st), impl_->groups, cluster.simulate(),
                        stats);
  return out;
}

std::size_t ClusterPlan::slab_working_set_bytes(const sfft::Params& p) {
  const std::size_t B = p.buckets();
  const std::size_t L = p.total_loops();
  const std::size_t w_pad = signal::flat_filter_sizes(p.n, B, p.filter).second;
  // Mirrors GpuPlan's resident buffers: signal + vote scores + filter
  // taps + per-loop buckets + one bucket scratch.
  return p.n * sizeof(cplx) + p.n * sizeof(u32) + w_pad * sizeof(cplx) +
         L * B * sizeof(cplx) + B * sizeof(cplx);
}

std::size_t ClusterPlan::slab_node_working_set_bytes(const sfft::Params& p,
                                                     std::size_t nodes) {
  const std::size_t B = p.buckets();
  const std::size_t L = p.total_loops();
  const std::size_t w_pad = signal::flat_filter_sizes(p.n, B, p.filter).second;
  const std::size_t M = nodes > 0 ? nodes : 1;
  // One slab's residency: its input slice, the filter taps, its own
  // partial bins plus the gather scratch on the head node.
  return (p.n / M) * sizeof(cplx) + w_pad * sizeof(cplx) +
         2 * L * B * sizeof(cplx);
}

SparseSpectrum ClusterPlan::execute_slab(std::span<const cplx> x,
                                         GpuFleetStats* stats) {
  using cusim::DeviceBuffer;
  using cusim::LaunchCfg;
  const sfft::Params& p = impl_->params;
  p.validate();
  if (p.comb)
    throw std::invalid_argument(
        "cusfft: slab decomposition requires comb == false (the Comb "
        "prefilter needs the whole signal resident)");
  if (x.size() != p.n)
    throw std::invalid_argument("cusfft: slab signal length != params.n");

  cusim::Cluster& cluster = *impl_->cluster;
  const std::size_t M = cluster.nodes();
  const std::size_t n = p.n;
  const std::size_t B = p.buckets();
  const std::size_t L = p.total_loops();
  const u64 mask = n - 1;
  const auto filter = signal::get_flat_filter(n, B, p.filter);
  const std::size_t w_pad = filter->time.size();
  const std::size_t rounds = w_pad / B;
  const double cx = static_cast<double>(sizeof(cplx));

  const std::size_t mem =
      cluster.node(0).device(0).spec().global_mem_bytes;
  if (M == 1 && slab_working_set_bytes(p) > mem)
    throw cusim::OutOfDeviceMemory(
        "cusfft: slab working set (" +
        std::to_string(slab_working_set_bytes(p)) +
        " bytes) exceeds device memory at nodes == 1; run on a cluster");
  const std::size_t per_node_bytes = slab_node_working_set_bytes(p, M);
  if (per_node_bytes > mem)
    throw cusim::OutOfDeviceMemory(
        "cusfft: slab slice still exceeds device memory; add nodes");

  // Same draw order as SerialPlan (comb is off, so the perm stream is
  // the whole of it) — the slab candidates reverse the same hashes.
  Rng rng(p.seed);
  const std::vector<sfft::LoopPerm> perms = sfft::draw_loop_perms(n, L, rng);

  cluster.begin_capture();
  WallTimer wall;

  // --- comb/bin phase, one slab per node -------------------------------
  // Node m owns the input slice [lo, hi). Its binning kernel walks the
  // full tap sequence of every loop (the index mapping is global) but
  // loads and accumulates only taps whose permuted index lands in its
  // slice, so the per-node partial is the exact sum of its taps and
  // sum-over-nodes covers each tap exactly once (regrouped FP order).
  std::vector<DeviceBuffer<cplx>> slices, partials;
  std::vector<std::vector<cplx>> gathered(M);  // host copies for exchange
  slices.reserve(M);
  partials.reserve(M);
  for (std::size_t m = 0; m < M; ++m) {
    const std::size_t lo = m * n / M;
    const std::size_t hi = (m + 1) * n / M;
    if (m > 0)
      cluster.add_ingress(static_cast<unsigned>(m), "slab_slice",
                          static_cast<double>(hi - lo) * cx);
    cusim::Device& dev = cluster.node(m).device(0);
    dev.annotate_phase("slab bin");
    slices.emplace_back(hi - lo);
    partials.emplace_back(L * B);
    DeviceBuffer<cplx>& slice = slices.back();
    DeviceBuffer<cplx>& partial = partials.back();
    dev.upload(slice, x.subspan(lo, hi - lo));
    DeviceBuffer<cplx> filt(w_pad);
    dev.upload(filt, std::span<const cplx>(filter->time));
    for (std::size_t r = 0; r < L; ++r) {
      const u64 ai = perms[r].ai, tau = perms[r].tau;
      const u64 step = (B * ai) & mask;
      dev.launch(
          LaunchCfg::for_elements("slab_partition", B, 256).cache(r),
          [&, ai, tau, step, r, lo, hi](cusim::ThreadCtx& t) {
            const u64 tid = t.global_id();
            if (tid >= B) return;
            double mr = 0.0, mi = 0.0;
            u64 index = (tau + tid * ai) & mask;
            for (std::size_t j = 0; j < rounds; ++j) {
              if (index >= lo && index < hi) {
                const cplx xv = slice.load(t, index - lo);
                const cplx fv = filt.load(t, tid + B * j);
                mr += xv.real() * fv.real() - xv.imag() * fv.imag();
                mi += xv.real() * fv.imag() + xv.imag() * fv.real();
                t.add_flops(10);
              }
              index = (index + step) & mask;
            }
            partial.store(t, r * B + tid, cplx{mr, mi});
          });
    }
    if (m > 0) {
      gathered[m].resize(L * B);
      dev.download(std::span<cplx>(gathered[m]), partial);
      cluster.add_exchange(static_cast<unsigned>(m), 0, "slab_exchange",
                           static_cast<double>(L * B) * cx);
    }
  }

  // --- exchange + reduce on the head node ------------------------------
  cluster.mark_exchange_barrier(0);
  cusim::Device& head = cluster.node(0).device(0);
  head.sync_point();
  head.annotate_phase("slab reduce");
  DeviceBuffer<cplx>& acc = partials[0];
  {
    DeviceBuffer<cplx> remote(L * B);
    for (std::size_t m = 1; m < M; ++m) {
      head.upload(remote, std::span<const cplx>(gathered[m]));
      head.launch(LaunchCfg::for_elements("slab_reduce", L * B, 256).cache(m),
                  [&](cusim::ThreadCtx& t) {
                    const u64 i = t.global_id();
                    if (i >= L * B) return;
                    const cplx a = acc.load(t, i);
                    const cplx b = remote.load(t, i);
                    t.add_flops(2);
                    acc.store(t, i, a + b);
                  });
    }
  }

  // --- estimation phase on the head node -------------------------------
  // The sub-FFT / cutoff / vote / estimate steps run functionally through
  // the sfft primitives on the host (the score array is host-side in
  // this path) with representative modeled kernels on the head device,
  // so the trace and the cluster clock still carry the phase.
  head.annotate_phase("slab estimate");
  const double fft_flops = 5.0 * std::log2(std::max<double>(2.0, B));
  head.launch(LaunchCfg::for_elements("slab_subfft", L * B, 256),
              [&](cusim::ThreadCtx& t) {
                const u64 i = t.global_id();
                if (i >= L * B) return;
                acc.store(t, i, acc.load(t, i));
                t.add_flops(fft_flops);
              });
  head.launch(LaunchCfg::for_elements("slab_cutoff", p.loops_loc * B, 256),
              [&](cusim::ThreadCtx& t) {
                const u64 i = t.global_id();
                if (i >= p.loops_loc * B) return;
                acc.load(t, i % (L * B));
                t.add_flops(3);
              });

  std::vector<cplx> reduced(L * B);
  head.download(std::span<cplx>(reduced), acc);

  std::vector<cvec> bucket_sets(L);
  const auto bfft = fft::get_plan(B, fft::Direction::kForward);
  for (std::size_t r = 0; r < L; ++r) {
    bucket_sets[r].assign(reduced.begin() + r * B,
                          reduced.begin() + (r + 1) * B);
    bfft->execute(bucket_sets[r]);
  }
  std::vector<std::uint8_t> score(n, 0);
  std::vector<u64> hits;
  const auto threshold = static_cast<std::uint8_t>(p.threshold());
  for (std::size_t r = 0; r < p.loops_loc; ++r) {
    const std::vector<u32> selected =
        sfft::top_buckets(bucket_sets[r], p.cutoff());
    sfft::vote_locations(selected, perms[r], n, B, threshold, score, hits);
  }
  SparseSpectrum out;
  out.reserve(hits.size());
  for (u64 f : hits)
    out.push_back({f, sfft::estimate_coef(f, perms, bucket_sets,
                                          filter->freq, n, B)});
  std::sort(out.begin(), out.end(),
            [](const SparseCoef& a, const SparseCoef& b) {
              return a.loc < b.loc;
            });

  const double vote_flops = 4.0 * static_cast<double>(n) / B;
  head.launch(LaunchCfg::for_elements("slab_vote", p.loops_loc * p.cutoff(),
                                      256),
              [&](cusim::ThreadCtx& t) {
                const u64 i = t.global_id();
                if (i >= p.loops_loc * p.cutoff()) return;
                acc.load(t, i % (L * B));
                t.add_flops(vote_flops);
              });
  if (!hits.empty())
    head.launch(LaunchCfg::for_elements("slab_estimate", hits.size(), 256),
                [&](cusim::ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i >= hits.size()) return;
                  acc.load(t, i % (L * B));
                  t.add_flops(40.0 + 8.0 * L);
                });
  // Every node bins its slab, but the spectrum materializes on the head
  // node's first device. The signal's window spans the whole capture.
  GpuFleetStats st;
  st.host_ms = wall.ms();
  const cusim::ClusterSchedule cs = cluster.simulate();
  st.device_of = {impl_->base[0]};
  st.per_signal.resize(1);
  st.per_signal[0].end_ms = cs.makespan_s * 1e3;
  st.per_signal[0].candidates = out.size();
  detail::roll_up_batch(std::move(st), impl_->groups, cs, stats);
  return out;
}

}  // namespace cusfft::gpu
