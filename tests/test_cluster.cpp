// Cluster tier: cusim::Cluster joins M DeviceGroup nodes over a modeled
// NIC fabric and gpu::ClusterPlan shards batches (and slab-decomposes
// oversized signals) across them. The contract under test:
//   1. the M = 1 cluster is the fleet: spectra, GpuFleetStats, and every
//      serialized artifact (chrome trace, structured profile) are
//      byte-identical to the DeviceGroup/MultiGpuPlan path;
//   2. spectra stay bit-identical to the single-device batch path at any
//      node count — node sharding only moves modeled time around;
//   3. a 2-node cluster beats the 1-node fleet makespan by >= 1.5x at the
//      bench shape while the NIC accounting (bytes/queue/stall, head node
//      free) holds together;
//   4. the merged cluster trace passes the CI artifact checks, the
//      cluster metrics pass the metrics_check --cluster coverage gate,
//      and a batch publishes once, under global device labels;
//   5. execute_slab refuses an oversized signal at M = 1, recovers the
//      SerialPlan support on a cluster whose per-slab footprint fits, and
//      is recorded and published like any batch;
//   6. prepare() builds the node plans of the backend the plan's shape
//      resolves to, so only that backend has to fit device memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "cusfft/autopick.hpp"
#include "cusfft/cluster_plan.hpp"
#include "cusfft/multi_plan.hpp"
#include "cusfft/plan.hpp"
#include "cusim/cluster.hpp"
#include "cusim/device.hpp"
#include "cusim/device_group.hpp"
#include "cusim/metrics.hpp"
#include "cusim/profiler.hpp"
#include "metrics_check_lib.hpp"
#include "profile_check_lib.hpp"
#include "sfft/serial.hpp"
#include "signal/generate.hpp"

namespace cusfft {
namespace {

using cusim::Cluster;
using cusim::DeviceGroup;

cvec test_signal(std::size_t n, std::size_t k, u64 seed) {
  Rng rng(seed);
  return signal::make_sparse_signal(n, k, rng).x;
}

struct Batch {
  std::vector<cvec> signals;
  std::vector<std::span<const cplx>> views;

  Batch(std::size_t count, std::size_t n, std::size_t k, u64 seed0) {
    for (std::size_t i = 0; i < count; ++i)
      signals.push_back(test_signal(n, k, seed0 + i));
    for (const cvec& s : signals) views.emplace_back(s);
  }
};

void expect_identical(const std::vector<SparseSpectrum>& a,
                      const std::vector<SparseSpectrum>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << what << " signal " << i;
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i][j].loc, b[i][j].loc) << what << " signal " << i;
      EXPECT_EQ(a[i][j].val, b[i][j].val) << what << " signal " << i;
    }
  }
}

sfft::Params make_params(std::size_t n, std::size_t k, u64 seed) {
  sfft::Params p;
  p.n = n;
  p.k = k;
  p.seed = seed;
  return p;
}

TEST(Cluster, SingleNodeByteIdenticalToFleet) {
  // The degenerate cluster must not merely agree with the fleet — its
  // artifacts must be the fleet's, byte for byte, so every downstream
  // consumer (profile_check, profile_diff baselines, dashboards) sees no
  // seam when --nodes 1 routes through the cluster path.
  const std::size_t n = 1 << 11, k = 8, batch_n = 6;
  Batch batch(batch_n, n, k, 1101);
  const sfft::Params params = make_params(n, k, 1101);
  gpu::Options opts = gpu::Options::optimized();
  opts.include_transfer = true;

  DeviceGroup group(2);
  gpu::MultiGpuPlan mplan(group, params, opts);
  Cluster cluster(1, 2);
  gpu::ClusterPlan cplan(cluster, params, opts);

  // Warm the process-global buffer pool and filter cache on both paths so
  // the captures below see identical pool deltas (the profile serializes
  // the delta).
  mplan.execute_many(batch.views);
  cplan.execute_many(batch.views);

  gpu::GpuFleetStats fleet_fs;
  const auto expected = mplan.execute_many(batch.views, &fleet_fs);
  const cusim::CaptureProfile fleet_profile = group.end_capture();

  gpu::GpuFleetStats cluster_fs;
  const auto got = cplan.execute_many(batch.views, &cluster_fs);
  const cusim::CaptureProfile cluster_profile = cluster.end_capture();

  expect_identical(expected, got, "M=1 cluster vs fleet");

  // Stats: the delegation is wholesale, so every field matches and the
  // cluster-only extensions stay at their fleet defaults.
  EXPECT_EQ(cluster_fs.devices, fleet_fs.devices);
  EXPECT_EQ(cluster_fs.signals, fleet_fs.signals);
  EXPECT_DOUBLE_EQ(cluster_fs.model_ms, fleet_fs.model_ms);
  EXPECT_DOUBLE_EQ(cluster_fs.pcie_stall_ms, fleet_fs.pcie_stall_ms);
  EXPECT_DOUBLE_EQ(cluster_fs.imbalance, fleet_fs.imbalance);
  EXPECT_EQ(cluster_fs.device_of, fleet_fs.device_of);
  EXPECT_EQ(cluster_fs.nodes, 1u);
  EXPECT_EQ(cluster_fs.nic_transfers, 0u);
  EXPECT_EQ(cluster_fs.nic_bytes, 0);
  EXPECT_TRUE(cluster_fs.per_node.empty());
  EXPECT_TRUE(cluster_fs.node_of.empty());
  ASSERT_EQ(cluster_fs.per_device.size(), fleet_fs.per_device.size());
  for (std::size_t d = 0; d < fleet_fs.per_device.size(); ++d) {
    EXPECT_EQ(cluster_fs.per_device[d].signals,
              fleet_fs.per_device[d].signals);
    EXPECT_DOUBLE_EQ(cluster_fs.per_device[d].model_ms,
                     fleet_fs.per_device[d].model_ms);
  }

  // Artifacts: the degenerate capture has no node lanes, so both
  // serializations stay in the fleet format — byte-identical documents.
  EXPECT_TRUE(cluster_profile.nodes.empty());
  EXPECT_EQ(cluster_profile.to_json(), fleet_profile.to_json());
  EXPECT_EQ(cluster_profile.chrome_trace_json(),
            fleet_profile.chrome_trace_json());
}

TEST(Cluster, ShardedBitIdenticalAcrossNodeCounts) {
  const std::size_t n = 1 << 11, k = 8, batch_n = 8;
  Batch batch(batch_n, n, k, 2202);
  const sfft::Params params = make_params(n, k, 2202);
  const gpu::Options opts = gpu::Options::optimized();

  cusim::Device solo;
  gpu::GpuPlan plan(solo, params, opts);
  const auto expected = plan.execute_many(batch.views);

  for (std::size_t nodes : {1u, 2u, 4u}) {
    Cluster cluster(nodes, 2);
    gpu::ClusterPlan cplan(cluster, params, opts);
    gpu::GpuFleetStats fs;
    const auto got = cplan.execute_many(batch.views, &fs);
    expect_identical(expected, got, "cluster vs single-device");
    EXPECT_EQ(fs.signals, batch_n);
    EXPECT_EQ(fs.devices, nodes * 2);
    EXPECT_EQ(fs.nodes, nodes);
    EXPECT_GT(fs.model_ms, 0);
    if (nodes > 1) {
      // Results and stats stay in input order; the node split conserves
      // the batch.
      ASSERT_EQ(fs.node_of.size(), batch_n);
      ASSERT_EQ(fs.per_node.size(), nodes);
      std::size_t summed = 0;
      for (const auto& ns : fs.per_node) summed += ns.signals;
      EXPECT_EQ(summed, batch_n);
      for (std::size_t i = 0; i < batch_n; ++i) {
        EXPECT_LT(fs.node_of[i], nodes) << "signal " << i;
        EXPECT_EQ(fs.per_signal[i].candidates, got[i].size())
            << "signal " << i;
      }
    }
  }
}

TEST(Cluster, NodeAssignmentBalancesUniformBatch) {
  Cluster cluster(2, 2);
  gpu::ClusterPlan cplan(cluster, make_params(1 << 12, 8, 3303),
                         gpu::Options::optimized());
  const std::vector<sfft::Params> shapes(8, make_params(1 << 12, 8, 3303));
  const auto assign = cplan.node_assignment(shapes);
  ASSERT_EQ(assign.size(), shapes.size());
  // The head node is free (no NIC), so it opens first; after the one-time
  // staging charge the remote node fills to an even 4/4 split.
  EXPECT_EQ(assign[0], 0u);
  EXPECT_EQ(std::count(assign.begin(), assign.end(), 0u), 4);
  EXPECT_EQ(std::count(assign.begin(), assign.end(), 1u), 4);
}

TEST(Cluster, TwoNodesBeatOneNodeWithNicAccounting) {
  // The ROADMAP acceptance shape (n = 2^13, batch 8, transfers on):
  // doubling the node count at equal devices per node must buy >= 1.5x
  // modeled throughput even though every remote signal is staged over the
  // NIC, and the staging must be visible in the accounting — bytes only
  // on remote nodes, the head node free.
  const std::size_t n = 1 << 13, k = 8, batch_n = 8;
  Batch batch(batch_n, n, k, 4404);
  const sfft::Params params = make_params(n, k, 4404);
  gpu::Options opts = gpu::Options::optimized();
  opts.include_transfer = true;

  Cluster one(1, 2);
  gpu::ClusterPlan cplan1(one, params, opts);
  gpu::GpuFleetStats fs1;
  const auto out1 =
      cplan1.execute_many(batch.views, &fs1, gpu::BatchMode::kPipelined);

  Cluster two(2, 2);
  gpu::ClusterPlan cplan2(two, params, opts);
  gpu::GpuFleetStats fs2;
  const auto out2 =
      cplan2.execute_many(batch.views, &fs2, gpu::BatchMode::kPipelined);

  expect_identical(out1, out2, "2-node vs 1-node");
  ASSERT_GT(fs2.model_ms, 0);
  EXPECT_GE(fs1.model_ms / fs2.model_ms, 1.5)
      << "2-node makespan " << fs2.model_ms << " ms vs 1-node "
      << fs1.model_ms << " ms";

  EXPECT_EQ(fs2.nodes, 2u);
  ASSERT_EQ(fs2.per_node.size(), 2u);
  // One ingress per remote signal, n complex samples each.
  EXPECT_EQ(fs2.nic_transfers, fs2.per_node[1].signals);
  EXPECT_DOUBLE_EQ(fs2.nic_bytes,
                   static_cast<double>(fs2.per_node[1].signals) * n *
                       sizeof(cplx));
  EXPECT_EQ(fs2.per_node[0].nic_bytes, 0);
  EXPECT_GT(fs2.per_node[1].nic_bytes, 0);
  EXPECT_GT(fs2.nic_transfer_ms, 0);
  // Consecutive ingress to the same port queues behind the head transfer.
  EXPECT_GT(fs2.nic_queue_ms, 0);
  // The remote node starts after its first payload lands.
  EXPECT_GT(fs2.per_node[1].offset_ms, 0);
  EXPECT_EQ(fs2.per_node[0].offset_ms, 0);
}

TEST(Cluster, MergedTracePassesArtifactChecks) {
  const std::size_t n = 1 << 11, k = 8, batch_n = 6;
  Batch batch(batch_n, n, k, 5505);
  const sfft::Params params = make_params(n, k, 5505);
  gpu::Options opts = gpu::Options::optimized();
  opts.include_transfer = true;

  Cluster cluster(2, 2);
  gpu::ClusterPlan cplan(cluster, params, opts);
  cplan.execute_many(batch.views);
  const cusim::CaptureProfile p = cluster.end_capture();

  ASSERT_EQ(p.nodes.size(), 2u);
  ASSERT_EQ(p.lanes.size(), 4u);
  EXPECT_EQ(p.nodes[0].first_lane, 0u);
  EXPECT_EQ(p.nodes[1].first_lane, 2u);
  EXPECT_GT(p.nic_bw_Bps, 0);
  // The NIC staging renders as dedicated spans on the remote node.
  const auto nic_spans = std::count_if(
      p.spans.begin(), p.spans.end(),
      [](const cusim::TraceSpan& s) { return s.nic; });
  EXPECT_GT(nic_spans, 0);
  EXPECT_NE(p.chrome_trace_json().find("\"cat\":\"nic\""),
            std::string::npos);

  const auto r = tools::check_profile_json(p.chrome_trace_json());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.device_groups, 4u);
  EXPECT_GT(r.kernel_events, 0u);
}

TEST(Cluster, MetricsPassClusterCoverageCheck) {
  const std::size_t n = 1 << 11, k = 8, batch_n = 6;
  Batch batch(batch_n, n, k, 6606);
  Cluster cluster(2, 2);
  gpu::ClusterPlan cplan(cluster, make_params(n, k, 6606),
                         gpu::Options::optimized());
  gpu::GpuFleetStats fs;
  cplan.execute_many(batch.views, &fs);

  // Publish into a private registry: the exposition must pass the same
  // cross-node conservation sweep CI runs via metrics_check --cluster.
  cusim::MetricsRegistry reg;
  fs.to_metrics(reg);
  const auto r = tools::check_cluster_metrics(reg.expose_json(), 2);
  EXPECT_TRUE(r.ok);
  for (const auto& e : r.errors) ADD_FAILURE() << e;

  // The sweep itself must catch a broken split: claim more nodes than
  // were published.
  EXPECT_FALSE(tools::check_cluster_metrics(reg.expose_json(), 3).ok);
}

TEST(Cluster, PublishesEachBatchOnceUnderGlobalDeviceLabels) {
  // A cluster batch is one publication: one fleet batch, one cluster
  // batch, and every device's series under its global (node-major) index,
  // equal to the batch record — not one fleet publication per node under
  // node-local labels on the node's own clock.
  using cusim::MetricsRegistry;
  const std::size_t n = 1 << 11, k = 8, batch_n = 8;
  Batch batch(batch_n, n, k, 4404);
  Cluster cluster(2, 2);
  gpu::ClusterPlan cplan(cluster, make_params(n, k, 4404),
                         gpu::Options::optimized());
  cplan.prepare();

  MetricsRegistry& reg = MetricsRegistry::global();
  const MetricsRegistry::Snapshot before = reg.snapshot();
  gpu::GpuFleetStats fs;
  cplan.execute_many(batch.views, &fs);
  const MetricsRegistry::Snapshot after = reg.snapshot();

  auto counter_delta = [&](const std::string& name) {
    const auto b = before.counters.find(name);
    const auto a = after.counters.find(name);
    return (a == after.counters.end() ? u64{0} : a->second) -
           (b == before.counters.end() ? u64{0} : b->second);
  };
  auto count_delta = [&](const std::string& name) {
    const auto b = before.histograms.find(name);
    const auto a = after.histograms.find(name);
    return (a == after.histograms.end() ? u64{0} : a->second.count) -
           (b == before.histograms.end() ? u64{0} : b->second.count);
  };
  EXPECT_EQ(counter_delta("cusfft_fleet_batches_total"), 1u);
  EXPECT_EQ(counter_delta("cusfft_cluster_batches_total"), 1u);
  EXPECT_EQ(counter_delta("cusfft_signals_total"), batch_n);

  ASSERT_EQ(fs.per_device.size(), 4u);
  std::size_t signals = 0;
  for (std::size_t g = 0; g < fs.per_device.size(); ++g) {
    const std::string dev = std::to_string(g);
    const gpu::GpuDeviceShardStats& ds = fs.per_device[g];
    signals += ds.signals;
    EXPECT_EQ(counter_delta(MetricsRegistry::label(
                  "cusfft_device_signals_total", "device", dev)),
              ds.signals)
        << "device " << g;
    EXPECT_EQ(count_delta(MetricsRegistry::label("cusfft_signal_latency_ms",
                                                 "device", dev)),
              ds.signals)
        << "device " << g;
    const std::string util =
        MetricsRegistry::label("cusfft_device_utilization", "device", dev);
    ASSERT_TRUE(after.gauges.count(util)) << util;
    EXPECT_DOUBLE_EQ(after.gauges.at(util), ds.utilization) << util;
  }
  EXPECT_EQ(signals, batch_n);
}

TEST(Cluster, SlabRefusesAtOneNodeAndMatchesSerial) {
  // Pick a shape whose full working set exceeds the (shrunken) modeled
  // device memory while one slab of it fits — the run that is impossible
  // at M = 1 and possible on the cluster.
  std::size_t n = 1 << 14;
  const std::size_t k = 8;
  sfft::Params p = make_params(n, k, 7707);
  while (n < (1ULL << 18) &&
         gpu::ClusterPlan::slab_node_working_set_bytes(p, 2) >=
             gpu::ClusterPlan::slab_working_set_bytes(p)) {
    n <<= 1;
    p = make_params(n, k, 7707);
  }
  const std::size_t ws = gpu::ClusterPlan::slab_working_set_bytes(p);
  ASSERT_LT(gpu::ClusterPlan::slab_node_working_set_bytes(p, 2), ws);

  perfmodel::GpuSpec tiny = perfmodel::GpuSpec::k20x();
  tiny.global_mem_bytes = ws - 1;
  const cvec x = test_signal(n, k, 7707);

  Cluster one(1, 1, tiny);
  gpu::ClusterPlan cp1(one, p, gpu::Options::optimized());
  EXPECT_THROW(cp1.execute_slab(x), cusim::OutOfDeviceMemory);

  Cluster two(2, 1, tiny);
  gpu::ClusterPlan cp2(two, p, gpu::Options::optimized());
  gpu::GpuFleetStats fs;
  const SparseSpectrum got = cp2.execute_slab(x, &fs);

  // Summing per-node partials regroups the FP accumulation, so the slab
  // spectrum is compared by recovered support, not bit-identical values.
  const SparseSpectrum ref = sfft::SerialPlan(p).execute(x);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(got[i].loc, ref[i].loc) << "coefficient " << i;

  // One slice ingress + one partial-bin exchange crossed the NIC.
  EXPECT_EQ(fs.nodes, 2u);
  EXPECT_EQ(fs.signals, 1u);
  EXPECT_EQ(fs.nic_transfers, 2u);
  EXPECT_GT(fs.nic_bytes, 0);
  ASSERT_EQ(fs.per_node.size(), 2u);
  EXPECT_GT(fs.per_node[0].nic_bytes, 0);  // the gathered partials
  EXPECT_GT(fs.per_node[1].nic_bytes, 0);  // the staged slice

  // The slab publication also satisfies the cluster metrics sweep.
  cusim::MetricsRegistry reg;
  fs.to_metrics(reg);
  const auto r = tools::check_cluster_metrics(reg.expose_json(), 2);
  EXPECT_TRUE(r.ok);
  for (const auto& e : r.errors) ADD_FAILURE() << e;
}

TEST(Cluster, OneNodeSlabIsRecordedLikeABatch) {
  // A slab takes the same rollup and publication as every batch: at
  // M = 1 it is a one-node batch of one signal on the head device — no
  // per-node rows, no cluster series — and the head device reports its
  // own contention-free time like any device that ran a signal.
  using cusim::MetricsRegistry;
  const std::size_t n = 1 << 12, k = 8;
  const cvec x = test_signal(n, k, 9909);
  Cluster one(1, 2);
  gpu::ClusterPlan plan(one, make_params(n, k, 9909),
                        gpu::Options::optimized());

  MetricsRegistry& reg = MetricsRegistry::global();
  auto counter = [&](const char* name) {
    const auto s = reg.snapshot();
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? u64{0} : it->second;
  };
  const u64 fleet0 = counter("cusfft_fleet_batches_total");
  const u64 cluster0 = counter("cusfft_cluster_batches_total");
  gpu::GpuFleetStats fs;
  plan.execute_slab(x, &fs);
  EXPECT_EQ(counter("cusfft_fleet_batches_total"), fleet0 + 1);
  EXPECT_EQ(counter("cusfft_cluster_batches_total"), cluster0);

  EXPECT_EQ(fs.nodes, 1u);
  EXPECT_TRUE(fs.per_node.empty());
  EXPECT_TRUE(fs.node_of.empty());
  EXPECT_EQ(fs.device_of, std::vector<std::size_t>{0});
  ASSERT_EQ(fs.per_device.size(), 2u);
  EXPECT_EQ(fs.per_device[0].signals, 1u);
  EXPECT_DOUBLE_EQ(fs.per_device[0].solo_ms,
                   one.node(0).device(0).elapsed_model_ms());
  EXPECT_GT(fs.per_device[0].solo_ms, 0);
  EXPECT_EQ(fs.per_device[1].solo_ms, 0);
  EXPECT_DOUBLE_EQ(fs.imbalance, 1.0);
}

TEST(Cluster, PreparedPlansAreTheBackendThatRuns) {
  // prepare() builds the node plans for the backend the shape resolves to
  // (the CUSFFT_ALGO override and the kAuto picker included), so a backend
  // that cannot fit fails prepare() and one that is never run is never
  // built. At n = 2^12, k = 8 FFAST needs ~106 KiB of device memory and
  // cuSFFT ~448 KiB.
  using sfft::Algorithm;
  ::unsetenv("CUSFFT_ALGO");
  ::unsetenv("CUSFFT_AUTOPICK");
  const std::size_t n = 1 << 12, k = 8;
  const Batch batch(2, n, k, 6606);
  const gpu::Options opts = gpu::Options::optimized();
  auto shape = [&](Algorithm a) {
    sfft::Params p = make_params(n, k, 6606);
    p.algo = a;
    return p;
  };
  auto spec_with = [](std::size_t bytes) {
    perfmodel::GpuSpec s = perfmodel::GpuSpec::k20x();
    s.global_mem_bytes = bytes;
    return s;
  };
  const perfmodel::GpuSpec ffast_only = spec_with(256 << 10);
  const perfmodel::GpuSpec neither = spec_with(64 << 10);
  {
    cusim::Device dev(ffast_only), small(neither);
    ASSERT_THROW(gpu::GpuPlan(dev, shape(Algorithm::kCusfft), opts),
                 cusim::OutOfDeviceMemory);
    ASSERT_NO_THROW(gpu::GpuPlan(dev, shape(Algorithm::kFfast), opts));
    ASSERT_THROW(gpu::GpuPlan(small, shape(Algorithm::kFfast), opts),
                 cusim::OutOfDeviceMemory);
  }

  auto prepare_on = [&](Algorithm a, const perfmodel::GpuSpec& spec) {
    Cluster cluster(1, 1, spec);
    gpu::ClusterPlan(cluster, shape(a), opts).prepare();
  };
  // Prepares, then runs a batch: a lazily built cuSFFT plan would throw.
  auto run_on = [&](Algorithm a, const perfmodel::GpuSpec& spec) {
    Cluster cluster(1, 1, spec);
    gpu::ClusterPlan plan(cluster, shape(a), opts);
    plan.prepare();
    gpu::GpuFleetStats fs;
    plan.execute_many(batch.views, &fs);
    for (const auto& s : fs.per_signal) EXPECT_EQ(s.algo, Algorithm::kFfast);
  };

  EXPECT_THROW(prepare_on(Algorithm::kCusfft, ffast_only),
               cusim::OutOfDeviceMemory);
  run_on(Algorithm::kFfast, ffast_only);
  EXPECT_THROW(prepare_on(Algorithm::kFfast, neither),
               cusim::OutOfDeviceMemory);

  ::setenv("CUSFFT_ALGO", "ffast", 1);
  run_on(Algorithm::kCusfft, ffast_only);  // the override picks the plans
  ::unsetenv("CUSFFT_ALGO");

  ::setenv("CUSFFT_AUTOPICK", "modeled", 1);
  ASSERT_EQ(gpu::resolve_algorithm(shape(Algorithm::kAuto), ffast_only, opts),
            Algorithm::kFfast);
  run_on(Algorithm::kAuto, ffast_only);
  EXPECT_THROW(prepare_on(Algorithm::kAuto, neither),
               cusim::OutOfDeviceMemory);
  ::unsetenv("CUSFFT_AUTOPICK");
}

TEST(Cluster, DeterministicAcrossHostLaunchPaths) {
  // Running every device's lanes on one worker or on three, on every
  // node, must not change outputs or the modeled cluster makespan.
  const std::size_t n = 1 << 11, k = 8, batch_n = 5;
  Batch batch(batch_n, n, k, 8808);
  const sfft::Params params = make_params(n, k, 8808);
  const gpu::Options opts = gpu::Options::optimized();

  auto run = [&](std::size_t workers) {
    Cluster cluster(2, 2);
    std::vector<std::unique_ptr<ThreadPool>> pools;
    for (std::size_t m = 0; m < cluster.nodes(); ++m)
      for (std::size_t d = 0; d < cluster.node(m).size(); ++d) {
        pools.push_back(std::make_unique<ThreadPool>(workers));
        cluster.node(m).device(d).set_pool(pools.back().get());
      }
    gpu::ClusterPlan cplan(cluster, params, opts);
    gpu::GpuFleetStats fs;
    auto out = cplan.execute_many(batch.views, &fs);
    return std::pair{std::move(out), fs.model_ms};
  };
  const auto [out_par, ms_par] = run(3);
  const auto [out_seq, ms_seq] = run(1);
  expect_identical(out_par, out_seq, "three lanes vs one");
  EXPECT_DOUBLE_EQ(ms_par, ms_seq);
}

}  // namespace
}  // namespace cusfft
