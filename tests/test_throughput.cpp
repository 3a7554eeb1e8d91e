// Tests for the host execution/throughput layer: BufferPool recycling, the
// flat-filter cache, determinism across signal-lane counts, and the
// execute_many batch path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "cusfft/cluster_plan.hpp"
#include "cusfft/multi_plan.hpp"
#include "cusfft/plan.hpp"
#include "cusim/cluster.hpp"
#include "cusim/device.hpp"
#include "cusim/device_group.hpp"
#include "cusim/pool.hpp"
#include "signal/filter.hpp"
#include "signal/generate.hpp"

namespace cusfft {
namespace {

// Pin the pool width before anything touches ThreadPool::global() so
// batches run on several lanes even on single-core CI runners. Runs at
// static-init time, before gtest_main.
const int kEnvGuard = [] {
  setenv("CUSFFT_THREADS", "4", /*overwrite=*/0);
  return 0;
}();

using cusim::BufferPool;

TEST(BufferPool, ReuseKeepsDeviceAddressAndZeroes) {
  BufferPool pool;
  BufferPool::Block a = pool.acquire(1000);
  ASSERT_GE(a.cap, 1000u);
  EXPECT_EQ(a.cap % 256, 0u);
  const u64 base = a.base;
  a.bytes[5] = std::byte{0xAB};
  pool.release(std::move(a));

  BufferPool::Block b = pool.acquire(900);  // fits in the parked 1024-cap
  EXPECT_EQ(b.base, base);
  EXPECT_EQ(b.bytes[5], std::byte{0});  // reused blocks come back zeroed

  const auto s = pool.stats();
  EXPECT_EQ(s.allocations, 1u);
  EXPECT_EQ(s.reuses, 1u);
  EXPECT_EQ(s.bytes_pooled, 0u);
  pool.release(std::move(b));
  EXPECT_GT(pool.stats().bytes_pooled, 0u);
}

TEST(BufferPool, OversizedBlocksAreNotReused) {
  BufferPool pool;
  BufferPool::Block big = pool.acquire(1 << 20);
  pool.release(std::move(big));
  // A tiny request must not be served from a 1 MiB block (2x fit rule).
  BufferPool::Block small = pool.acquire(64);
  EXPECT_LT(small.cap, 1u << 20);
  EXPECT_EQ(pool.stats().reuses, 0u);
  EXPECT_EQ(pool.stats().allocations, 2u);
}

TEST(BufferPool, TrimAndDisable) {
  BufferPool pool;
  pool.release(pool.acquire(4096));
  EXPECT_GT(pool.stats().bytes_pooled, 0u);
  pool.trim();
  EXPECT_EQ(pool.stats().bytes_pooled, 0u);

  pool.set_enabled(false);
  pool.release(pool.acquire(4096));
  EXPECT_EQ(pool.stats().bytes_pooled, 0u);  // freed, not parked
}

TEST(BufferPool, BudgetBoundsParkedBytes) {
  BufferPool pool;
  pool.set_max_pooled_bytes(1 << 10);
  pool.release(pool.acquire(1 << 10));  // fits the budget exactly
  const u64 pooled = pool.stats().bytes_pooled;
  EXPECT_GT(pooled, 0u);
  pool.release(pool.acquire(1 << 12));  // would exceed: freed instead
  EXPECT_EQ(pool.stats().bytes_pooled, pooled);
}

TEST(BufferPool, WarmShardedBatchesLeaveTheGlobalPoolUntouched) {
  // Fleet and cluster shards run concurrently, one host thread per device,
  // yet never share the global pool's free list: every shape's plan is
  // built before the fan-out, and a signal's buffers come from its lane
  // (BufferPool::lanes()). So a warm sharded batch neither acquires from
  // nor parks on global(), and its capture's pool delta cannot depend on
  // how the shard threads interleave.
  Rng rng(77);
  std::vector<sfft::Params> params(8);
  std::vector<cvec> xs;
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i].n = i % 2 ? 1 << 12 : 1 << 11;
    params[i].k = i % 2 ? 8 : 4;
    params[i].seed = 5;
    xs.push_back(signal::make_sparse_signal(params[i].n, params[i].k, rng).x);
  }
  std::vector<gpu::MixedSignal> mix;
  for (std::size_t i = 0; i < xs.size(); ++i) mix.push_back({xs[i], params[i]});
  const auto expect_untouched = [](const BufferPool::Stats& before,
                                   const char* what) {
    const BufferPool::Stats after = BufferPool::global().stats();
    EXPECT_EQ(after.allocations, before.allocations) << what;
    EXPECT_EQ(after.reuses, before.reuses) << what;
    EXPECT_EQ(after.bytes_allocated, before.bytes_allocated) << what;
    EXPECT_EQ(after.bytes_reused, before.bytes_reused) << what;
    EXPECT_EQ(after.bytes_pooled, before.bytes_pooled) << what;
  };

  cusim::DeviceGroup group(2);
  gpu::MultiGpuPlan fleet(group, mix.front().params,
                          gpu::Options::optimized());
  fleet.execute_mixed(mix);  // warm: plans, lanes, streams
  BufferPool::Stats before = BufferPool::global().stats();
  fleet.execute_mixed(mix);
  expect_untouched(before, "2-device mixed batch");

  cusim::Cluster cluster(2, 2);
  gpu::ClusterPlan plan(cluster, mix.front().params,
                        gpu::Options::optimized());
  plan.execute_mixed(mix);
  before = BufferPool::global().stats();
  plan.execute_mixed(mix);
  expect_untouched(before, "2x2 cluster batch");
}

TEST(FilterCache, RepeatedPlansShareOneFilter) {
  signal::flat_filter_cache_clear();
  const auto before = signal::flat_filter_cache_stats();
  auto f1 = signal::get_flat_filter(1 << 12, 64);
  auto f2 = signal::get_flat_filter(1 << 12, 64);
  EXPECT_EQ(f1.get(), f2.get());  // same immutable filter object
  const auto after = signal::flat_filter_cache_stats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits + 1);

  // A different shape is a different entry.
  auto f3 = signal::get_flat_filter(1 << 12, 32);
  EXPECT_NE(f1.get(), f3.get());
}

TEST(ThreadPoolEnv, GlobalRespectsCusfftThreads) {
  // kEnvGuard set CUSFFT_THREADS=4 before any global() call (unless the
  // environment already pinned it — honor that value then). global() is
  // sized by the strict parse: an invalid value would have thrown.
  const char* v = std::getenv("CUSFFT_THREADS");
  ASSERT_NE(v, nullptr);
  const std::size_t want = parse_thread_count(v);
  if (want > 0) {
    EXPECT_EQ(ThreadPool::global().size(), want);
  } else {
    EXPECT_GE(ThreadPool::global().size(), 1u);
  }
}

TEST(ThreadPoolEnv, ParseIsStrict) {
  EXPECT_EQ(parse_thread_count(nullptr), 0u);  // unset: hardware width
  EXPECT_EQ(parse_thread_count(""), 0u);
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count("4"), 4u);
  EXPECT_EQ(parse_thread_count("512"), 512u);
  for (const char* bad : {"4x", "abc", "0", "-2", "900", " 4", "+4", "513",
                          "99999999999999999999"}) {
    try {
      parse_thread_count(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("CUSFFT_THREADS"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
          << what;
    }
  }
}

sfft::Params small_params() {
  sfft::Params p;
  p.n = 1 << 12;
  p.k = 8;
  p.seed = 7;
  return p;
}

cvec test_signal(std::size_t n, std::size_t k, u64 seed) {
  Rng rng(seed);
  return signal::make_sparse_signal(n, k, rng).x;
}

TEST(GpuPlanPool, WarmRebuildAllocatesNothing) {
  const sfft::Params p = small_params();
  const auto opts = gpu::Options::optimized();
  const cvec x = test_signal(p.n, p.k, 11);

  cusim::Device dev;
  {  // warm-up: populates the pool and the filter cache
    gpu::GpuPlan plan(dev, p, opts);
    plan.execute(x);
  }
  const auto s0 = BufferPool::global().stats();
  {
    gpu::GpuPlan plan(dev, p, opts);
    plan.execute(x);
  }
  const auto s1 = BufferPool::global().stats();
  EXPECT_EQ(s1.allocations, s0.allocations)
      << "an identical plan rebuild must be served from the pool";
  EXPECT_GT(s1.reuses, s0.reuses);
}

TEST(GpuPlanBatch, ExecuteManyMatchesRepeatedExecute) {
  const sfft::Params p = small_params();
  const auto opts = gpu::Options::optimized();
  constexpr std::size_t kBatch = 3;

  std::vector<cvec> signals;
  std::vector<std::span<const cplx>> views;
  for (std::size_t i = 0; i < kBatch; ++i)
    signals.push_back(test_signal(p.n, p.k, 100 + i));
  for (const cvec& s : signals) views.emplace_back(s);

  cusim::Device dev;
  gpu::GpuPlan plan(dev, p, opts);
  std::vector<SparseSpectrum> one_by_one;
  double model_sum = 0;
  for (std::size_t i = 0; i < kBatch; ++i) {
    gpu::GpuBatchStats st;
    one_by_one.push_back(plan.execute(views[i], &st));
    model_sum += st.model_ms;
  }

  gpu::GpuBatchStats bst;
  const auto batched =
      plan.execute_many(views, &bst, gpu::BatchMode::kSerialized);

  ASSERT_EQ(batched.size(), kBatch);
  EXPECT_EQ(bst.signals, kBatch);
  EXPECT_FALSE(bst.pipelined);
  for (std::size_t i = 0; i < kBatch; ++i) {
    ASSERT_EQ(batched[i].size(), one_by_one[i].size()) << "signal " << i;
    for (std::size_t j = 0; j < batched[i].size(); ++j) {
      EXPECT_EQ(batched[i][j].loc, one_by_one[i][j].loc);
      EXPECT_EQ(batched[i][j].val, one_by_one[i][j].val);
    }
  }
  // Per-signal device timelines are serialized, so the batch makespan is
  // the sum of the individual ones.
  EXPECT_NEAR(bst.model_ms, model_sum, 1e-6 * model_sum);
  EXPECT_GT(bst.candidates, 0u);
}

TEST(GpuPlanBatch, RejectsWrongLength) {
  const sfft::Params p = small_params();
  cusim::Device dev;
  gpu::GpuPlan plan(dev, p, gpu::Options::optimized());
  const cvec bad(p.n / 2);
  const std::span<const cplx> view(bad);
  EXPECT_THROW(plan.execute_many({&view, 1}), std::invalid_argument);
}

TEST(Determinism, ParallelAndSequentialLaunchesAreBitIdentical) {
  // The same batch on four lanes and on one: spectra, modeled time and
  // every traced counter are bit-identical (logs apply in signal order).
  const sfft::Params p = small_params();
  const auto opts = gpu::Options::optimized();
  std::vector<cvec> xs;
  for (u64 seed = 42; seed < 47; ++seed)
    xs.push_back(test_signal(p.n, p.k, seed));
  const std::vector<std::span<const cplx>> views(xs.begin(), xs.end());

  ThreadPool par_pool(4), seq_pool(1);
  cusim::Device par_dev;
  par_dev.set_pool(&par_pool);
  gpu::GpuPlan par_plan(par_dev, p, opts);
  gpu::GpuBatchStats par_st;
  const auto par = par_plan.execute_many(views, &par_st);

  cusim::Device seq_dev;
  seq_dev.set_pool(&seq_pool);
  gpu::GpuPlan seq_plan(seq_dev, p, opts);
  gpu::GpuBatchStats seq_st;
  const auto seq = seq_plan.execute_many(views, &seq_st);

  // Spectra: bit-identical.
  ASSERT_EQ(par.size(), seq.size());
  for (std::size_t s = 0; s < par.size(); ++s) {
    ASSERT_EQ(par[s].size(), seq[s].size());
    for (std::size_t i = 0; i < par[s].size(); ++i) {
      EXPECT_EQ(par[s][i].loc, seq[s][i].loc);
      EXPECT_EQ(par[s][i].val, seq[s][i].val);
    }
  }

  // Modeled time and every traced counter: bit-identical.
  EXPECT_EQ(par_st.model_ms, seq_st.model_ms);
  const auto& pr = par_dev.report();
  const auto& sr = seq_dev.report();
  ASSERT_EQ(pr.size(), sr.size());
  for (const auto& [name, rep] : pr) {
    ASSERT_TRUE(sr.count(name)) << name;
    const auto& other = sr.at(name);
    EXPECT_EQ(rep.launches, other.launches) << name;
    EXPECT_EQ(rep.solo_s, other.solo_s) << name;
    const auto& a = rep.counters;
    const auto& b = other.counters;
    EXPECT_EQ(a.blocks, b.blocks) << name;
    EXPECT_EQ(a.threads, b.threads) << name;
    EXPECT_EQ(a.warps, b.warps) << name;
    EXPECT_EQ(a.coalesced_transactions, b.coalesced_transactions) << name;
    EXPECT_EQ(a.random_transactions, b.random_transactions) << name;
    EXPECT_EQ(a.bytes_useful, b.bytes_useful) << name;
    EXPECT_EQ(a.flops, b.flops) << name;
    EXPECT_EQ(a.atomic_ops, b.atomic_ops) << name;
    EXPECT_EQ(a.max_atomic_conflict, b.max_atomic_conflict) << name;
    EXPECT_EQ(a.shared_accesses, b.shared_accesses) << name;
  }
}

TEST(Determinism, AtomicAddIsAtomicUnderParallelBlocks) {
  // Four lanes each launch a contended atomic increment on their own
  // counter while the others run: every count is exact, and the applied
  // report equals the one-lane run's.
  auto run = [](std::size_t workers) {
    ThreadPool pool(workers);
    cusim::Device dev;
    dev.begin_capture();
    constexpr std::size_t kLanes = 4, kThreads = 64 * 256;
    std::vector<cusim::Lane> lanes(kLanes);
    std::vector<cusim::DeviceLog> logs(kLanes);
    std::vector<cusim::DeviceBuffer<u32>> counters;
    for (std::size_t l = 0; l < kLanes; ++l) counters.emplace_back(1);
    pool.parallel_for_indexed(
        kLanes, [&](std::size_t, std::size_t b, std::size_t e) {
          for (std::size_t l = b; l < e; ++l) {
            const cusim::Device::LaneScope scope(dev, lanes[l], logs[l]);
            dev.launch(
                cusim::LaunchCfg::for_elements("contended_inc", kThreads),
                [&](cusim::ThreadCtx& t) {
                  counters[l].atomic_add(t, 0, u32{1});
                });
          }
        });
    for (std::size_t l = 0; l < kLanes; ++l) {
      dev.apply(logs[l]);
      EXPECT_EQ(counters[l].host()[0], kThreads) << "lane " << l;
    }
    const auto& rep = dev.report().at("contended_inc");
    return std::pair{rep.launches, rep.counters.max_atomic_conflict};
  };
  const auto one = run(1);
  EXPECT_EQ(one.first, 4u);
  EXPECT_EQ(run(4), one);
}

}  // namespace
}  // namespace cusfft
