// Multi-device sharding: MultiGpuPlan splits one execute_many batch
// across a cusim::DeviceGroup and merges the per-device timelines on one
// clock. The contract under test:
//   1. outputs are bit-identical to the single-device batch path for any
//      shape, seed, and fleet size (including N > batch);
//   2. results and GpuFleetStats::per_signal stay in input order whatever
//      the shard assignment;
//   3. cost-weighted assignment sends proportionally fewer signals to a
//      slower device in a heterogeneous fleet;
//   4. a 2-device fleet beats the 1-device pipelined makespan by >= 1.6x
//      at the bench shape (n = 2^13, batch 8, transfers on) while paying
//      nonzero PCIe root-complex contention;
//   5. the merged chrome trace passes the CI artifact checks (per-stream
//      FIFO and the concurrency window per device) and carries one track
//      group per device.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "cusfft/multi_plan.hpp"
#include "cusfft/plan.hpp"
#include "cusim/device.hpp"
#include "cusim/device_group.hpp"
#include "cusim/profiler.hpp"
#include "profile_check_lib.hpp"
#include "signal/generate.hpp"

namespace cusfft {
namespace {

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

perfmodel::GpuSpec half_rate_k20x() {
  perfmodel::GpuSpec slow = perfmodel::GpuSpec::k20x();
  slow.name = "K20x/2";
  slow.mem_bandwidth_Bps /= 2;
  return slow;
}

TEST(MultiGpu, ShardedBitIdenticalToSingleDevice) {
  struct Shape {
    std::size_t n, k, batch;
    u64 seed;
  };
  const Shape shapes[] = {
      {1 << 10, 4, 5, 101}, {1 << 11, 8, 8, 202}, {1 << 12, 16, 6, 303}};
  for (const Shape& sh : shapes) {
    Batch batch(sh.batch, sh.n, sh.k, sh.seed);
    const sfft::Params params = [&] {
      sfft::Params p;
      p.n = sh.n;
      p.k = sh.k;
      p.seed = sh.seed;
      return p;
    }();
    const gpu::Options opts = gpu::Options::optimized();

    cusim::Device solo;
    gpu::GpuPlan plan(solo, params, opts);
    const auto expected = plan.execute_many(batch.views);

    for (std::size_t ndev : {1u, 2u, 4u}) {
      DeviceGroup group(ndev);
      gpu::MultiGpuPlan mplan(group, params, opts);
      gpu::GpuFleetStats fs;
      const auto got = mplan.execute_many(batch.views, &fs);
      expect_identical(expected, got, "sharded vs single-device");
      EXPECT_EQ(fs.devices, ndev);
      EXPECT_EQ(fs.signals, sh.batch);
      EXPECT_GT(fs.model_ms, 0);
    }
  }
}

TEST(MultiGpu, HomogeneousAssignmentIsRoundRobin) {
  DeviceGroup group(3);
  sfft::Params params;
  params.n = 1 << 10;
  params.k = 4;
  gpu::MultiGpuPlan mplan(group, params, gpu::Options::optimized());
  const auto assign = mplan.shard_assignment(7);
  const std::vector<std::size_t> expected = {0, 1, 2, 0, 1, 2, 0};
  EXPECT_EQ(assign, expected);
}

TEST(MultiGpu, HeterogeneousFleetWeightsShards) {
  // Full-rate + half-rate device: greedy cost weighting should hand the
  // slow device half as many signals (batch 6 -> 4/2), and the outputs
  // stay bit-identical to the single-device path regardless.
  DeviceGroup group({perfmodel::GpuSpec::k20x(), half_rate_k20x()});
  const std::size_t n = 1 << 11, k = 8, batch_n = 6;
  Batch batch(batch_n, n, k, 404);
  sfft::Params params;
  params.n = n;
  params.k = k;
  params.seed = 404;
  const gpu::Options opts = gpu::Options::optimized();

  gpu::MultiGpuPlan mplan(group, params, opts);
  const auto assign = mplan.shard_assignment(batch_n);
  EXPECT_EQ(std::count(assign.begin(), assign.end(), 0u), 4);
  EXPECT_EQ(std::count(assign.begin(), assign.end(), 1u), 2);

  cusim::Device solo;
  gpu::GpuPlan plan(solo, params, opts);
  const auto expected = plan.execute_many(batch.views);
  gpu::GpuFleetStats fs;
  const auto got = mplan.execute_many(batch.views, &fs);
  expect_identical(expected, got, "heterogeneous fleet");
  ASSERT_EQ(fs.per_device.size(), 2u);
  EXPECT_EQ(fs.per_device[0].signals, 4u);
  EXPECT_EQ(fs.per_device[1].signals, 2u);
  EXPECT_EQ(fs.per_device[1].device, "K20x/2");
  // Both devices busy: nobody straggles to 2x the mean.
  EXPECT_GE(fs.imbalance, 1.0);
  EXPECT_LT(fs.imbalance, 1.5);
}

TEST(MultiGpu, MoreDevicesThanSignals) {
  DeviceGroup group(4);
  const std::size_t n = 1 << 10, k = 4, batch_n = 2;
  Batch batch(batch_n, n, k, 505);
  sfft::Params params;
  params.n = n;
  params.k = k;
  params.seed = 505;
  const gpu::Options opts = gpu::Options::optimized();

  cusim::Device solo;
  gpu::GpuPlan plan(solo, params, opts);
  const auto expected = plan.execute_many(batch.views);

  gpu::MultiGpuPlan mplan(group, params, opts);
  gpu::GpuFleetStats fs;
  const auto got = mplan.execute_many(batch.views, &fs);
  expect_identical(expected, got, "N > batch");
  ASSERT_EQ(fs.per_device.size(), 4u);
  EXPECT_EQ(fs.per_device[0].signals, 1u);
  EXPECT_EQ(fs.per_device[1].signals, 1u);
  EXPECT_EQ(fs.per_device[2].signals, 0u);
  EXPECT_EQ(fs.per_device[3].signals, 0u);
  // Idle devices report zero utilization and don't poison the imbalance
  // (computed over busy devices only).
  EXPECT_EQ(fs.per_device[2].utilization, 0);
  EXPECT_EQ(fs.per_device[3].utilization, 0);
  EXPECT_GE(fs.imbalance, 1.0);
  EXPECT_LT(fs.imbalance, 1.1);
}

TEST(MultiGpu, ResultsAndPerSignalStayInInputOrder) {
  DeviceGroup group(2);
  const std::size_t n = 1 << 11, k = 8, batch_n = 6;
  Batch batch(batch_n, n, k, 606);
  sfft::Params params;
  params.n = n;
  params.k = k;
  params.seed = 606;
  gpu::MultiGpuPlan mplan(group, params, gpu::Options::optimized());

  gpu::GpuFleetStats fs;
  const auto out = mplan.execute_many(batch.views, &fs);
  ASSERT_EQ(out.size(), batch_n);
  ASSERT_EQ(fs.per_signal.size(), batch_n);
  ASSERT_EQ(fs.device_of.size(), batch_n);
  // Round-robin on a homogeneous pair: input order interleaves devices, so
  // any shard-order leak would misalign these.
  for (std::size_t i = 0; i < batch_n; ++i)
    EXPECT_EQ(fs.device_of[i], i % 2) << "signal " << i;
  for (std::size_t i = 0; i < batch_n; ++i) {
    EXPECT_EQ(fs.per_signal[i].candidates, out[i].size()) << "signal " << i;
    EXPECT_GT(fs.per_signal[i].end_ms, fs.per_signal[i].start_ms)
        << "signal " << i;
  }
  const std::size_t summed_candidates = [&] {
    std::size_t c = 0;
    for (const auto& s : fs.per_signal) c += s.candidates;
    return c;
  }();
  EXPECT_EQ(fs.candidates, summed_candidates);
}

TEST(MultiGpu, TwoDeviceFleetBeatsPipelinedWithContention) {
  // The bench shape (ROADMAP acceptance): n = 2^13, batch 8, transfers
  // included so the H2D copies exercise the shared host link. Explicit
  // kPipelined on both sides — the fleet win must come from sharding, not
  // from a difference in batch schedule.
  const std::size_t n = 1 << 13, k = 8, batch_n = 8;
  Batch batch(batch_n, n, k, 9000);
  sfft::Params params;
  params.n = n;
  params.k = k;
  params.seed = 9000;
  gpu::Options opts = gpu::Options::optimized();
  opts.include_transfer = true;

  cusim::Device solo;
  gpu::GpuPlan plan(solo, params, opts);
  gpu::GpuBatchStats bst;
  const auto expected =
      plan.execute_many(batch.views, &bst, gpu::BatchMode::kPipelined);

  DeviceGroup group(2);
  gpu::MultiGpuPlan mplan(group, params, opts);
  gpu::GpuFleetStats fs;
  const auto got =
      mplan.execute_many(batch.views, &fs, gpu::BatchMode::kPipelined);

  expect_identical(expected, got, "fleet vs pipelined");
  EXPECT_TRUE(fs.pipelined);
  ASSERT_GT(fs.model_ms, 0);
  EXPECT_GE(bst.model_ms / fs.model_ms, 1.6)
      << "2-device makespan " << fs.model_ms << " ms vs 1-device pipelined "
      << bst.model_ms << " ms";
  // Transfers to the two devices overlap in wall time, so the shared root
  // complex must have split bandwidth somewhere.
  EXPECT_GT(fs.pcie_stall_ms, 0);
  ASSERT_EQ(fs.per_device.size(), 2u);
  for (const auto& d : fs.per_device) {
    EXPECT_EQ(d.signals, 4u);
    EXPECT_GT(d.utilization, 0.8);
    // busy/makespan semantics: with transfers modeled the device idles
    // during H2D, so utilization is strictly inside (0, 1) — the old
    // finish/makespan ratio pinned the straggler at exactly 1.0.
    EXPECT_LT(d.utilization, 1.0);
    EXPECT_GE(d.model_ms, d.solo_ms);  // contention only ever delays
  }
}

TEST(MultiGpu, SingleDeviceGroupHasNoContention) {
  // N = 1 merged schedule must be bit-identical to Timeline::simulate():
  // zero stalls, fleet makespan == the device's own makespan.
  const std::size_t n = 1 << 11, k = 8, batch_n = 4;
  Batch batch(batch_n, n, k, 707);
  sfft::Params params;
  params.n = n;
  params.k = k;
  params.seed = 707;
  gpu::Options opts = gpu::Options::optimized();
  opts.include_transfer = true;

  DeviceGroup group(1);
  gpu::MultiGpuPlan mplan(group, params, opts);
  gpu::GpuFleetStats fs;
  mplan.execute_many(batch.views, &fs);
  EXPECT_EQ(fs.pcie_stall_ms, 0);
  EXPECT_EQ(fs.imbalance, 1.0);
  EXPECT_DOUBLE_EQ(fs.model_ms, group.device(0).elapsed_model_ms());
}

TEST(MultiGpu, SingleDeviceReplayIsTheFullMerge) {
  // A 1-device group under unlimited staging takes the device's own
  // (cached) timeline replay instead of the merged loop. A max-inflight
  // limit no copy can reach forces the merged loop over the same items;
  // every start, finish and rollup must agree to the bit.
  const std::size_t n = 1 << 11, k = 8, batch_n = 4;
  Batch batch(batch_n, n, k, 717);
  sfft::Params params;
  params.n = n;
  params.k = k;
  params.seed = 717;
  gpu::Options opts = gpu::Options::optimized();
  opts.include_transfer = true;

  DeviceGroup group(1);
  gpu::MultiGpuPlan mplan(group, params, opts);
  mplan.execute_many(batch.views);
  const cusim::FleetSchedule replay = group.simulate();
  group.set_staging(cusim::PcieStaging::MaxInflight(1u << 30));
  const cusim::FleetSchedule merged = group.simulate();

  ASSERT_GT(replay.items[0].size(), 0u);
  ASSERT_EQ(replay.items[0].size(), merged.items[0].size());
  for (std::size_t i = 0; i < replay.items[0].size(); ++i) {
    EXPECT_EQ(replay.items[0][i].start_s, merged.items[0][i].start_s) << i;
    EXPECT_EQ(replay.items[0][i].finish_s, merged.items[0][i].finish_s) << i;
  }
  EXPECT_EQ(replay.makespan_s, merged.makespan_s);
  EXPECT_EQ(replay.finish_s, merged.finish_s);
  EXPECT_EQ(replay.busy_s, merged.busy_s);
  EXPECT_EQ(replay.pcie_stall_s, merged.pcie_stall_s);
  EXPECT_EQ(replay.pcie_queue_s, merged.pcie_queue_s);
}

TEST(MultiGpu, MergedTracePassesArtifactChecks) {
  const std::size_t n = 1 << 11, k = 8, batch_n = 6;
  Batch batch(batch_n, n, k, 808);
  sfft::Params params;
  params.n = n;
  params.k = k;
  params.seed = 808;
  gpu::Options opts = gpu::Options::optimized();
  opts.include_transfer = true;

  DeviceGroup group(2);
  gpu::MultiGpuPlan mplan(group, params, opts);
  mplan.execute_many(batch.views);
  const cusim::CaptureProfile p = group.end_capture();
  ASSERT_EQ(p.lanes.size(), 2u);
  EXPECT_GT(p.lanes[0].model_ms, 0);
  EXPECT_GT(p.lanes[1].model_ms, 0);
  // Fleet profiles carry the staging policy (embedded in the chrome
  // trace's "profile" object too).
  EXPECT_EQ(p.staging, "unlimited");
  EXPECT_NE(p.to_json().find("\"staging\":\"unlimited\""),
            std::string::npos);

  const auto r = tools::check_profile_json(p.chrome_trace_json());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.device_groups, 2u);
  EXPECT_GT(r.kernel_events, 0u);
  EXPECT_GT(r.copy_events, 0u);
}

TEST(MultiGpu, PlanCacheKeysOnAlgorithm) {
  // Regression: ShapeKey once omitted the algorithm, so two same-shape
  // submissions differing only in backend aliased to one cached plan and
  // the second silently ran the first one's algorithm. The per-signal
  // stats expose which backend actually executed.
  const std::size_t n = 1 << 11, k = 8;
  sfft::Params pc;
  pc.n = n;
  pc.k = k;
  pc.seed = 31;
  sfft::Params pf = pc;
  pf.algo = sfft::Algorithm::kFfast;
  const cvec x = test_signal(n, k, 41);
  const std::vector<gpu::MixedSignal> batch = {
      {x, pc}, {x, pf}, {x, pc}, {x, pf}};

  DeviceGroup group(2);
  gpu::MultiGpuPlan mplan(group, pc, gpu::Options::optimized());
  gpu::GpuFleetStats fs;
  const auto got = mplan.execute_mixed(batch, &fs);
  ASSERT_EQ(got.size(), 4u);
  ASSERT_EQ(fs.per_signal.size(), 4u);
  EXPECT_EQ(fs.per_signal[0].algo, sfft::Algorithm::kCusfft);
  EXPECT_EQ(fs.per_signal[1].algo, sfft::Algorithm::kFfast);
  EXPECT_EQ(fs.per_signal[2].algo, sfft::Algorithm::kCusfft);
  EXPECT_EQ(fs.per_signal[3].algo, sfft::Algorithm::kFfast);

  // Same algorithm -> bit-identical spectra (same input, same plan);
  // different algorithms -> identical support on the exactly-k-sparse
  // input (values agree only to estimation tolerance, not bitwise).
  expect_identical({got[0]}, {got[2]}, "cusfft repeat");
  expect_identical({got[1]}, {got[3]}, "ffast repeat");
  ASSERT_EQ(got[0].size(), got[1].size());
  for (std::size_t j = 0; j < got[0].size(); ++j)
    EXPECT_EQ(got[0][j].loc, got[1][j].loc) << "support mismatch at " << j;
}

TEST(MultiGpu, DeterministicAcrossHostLaunchPaths) {
  // Running every device's lanes on one worker or on three must not
  // change outputs or the modeled fleet makespan — the host thread count
  // is an execution detail, never a model input.
  const std::size_t n = 1 << 11, k = 8, batch_n = 5;
  Batch batch(batch_n, n, k, 909);
  sfft::Params params;
  params.n = n;
  params.k = k;
  params.seed = 909;
  const gpu::Options opts = gpu::Options::optimized();

  auto run = [&](std::size_t workers) {
    DeviceGroup group(2);
    std::vector<std::unique_ptr<ThreadPool>> pools;
    for (std::size_t d = 0; d < group.size(); ++d) {
      pools.push_back(std::make_unique<ThreadPool>(workers));
      group.device(d).set_pool(pools.back().get());
    }
    gpu::MultiGpuPlan mplan(group, params, opts);
    gpu::GpuFleetStats fs;
    auto out = mplan.execute_many(batch.views, &fs);
    return std::pair{std::move(out), fs.model_ms};
  };
  const auto [out_par, ms_par] = run(3);
  const auto [out_seq, ms_seq] = run(1);
  expect_identical(out_par, out_seq, "three lanes vs one");
  EXPECT_DOUBLE_EQ(ms_par, ms_seq);
}

}  // namespace
}  // namespace cusfft
