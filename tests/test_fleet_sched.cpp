// Fleet scheduler regression sweep: per-device dependency scoping,
// deadlock detection, the replay cache, merged-vs-solo schedules, PCIe
// staging admission policies, interval-union busy accounting, the
// per-signal cost model, and mixed-shape fleet execution. The raw-timeline
// tests inject TimelineItems directly (Device::timeline() mutable access)
// to reach schedules the kernel API cannot produce — dangling deps,
// cycles, bare concurrent copies.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "cusfft/multi_plan.hpp"
#include "cusfft/plan.hpp"
#include "cusim/device.hpp"
#include "cusim/device_group.hpp"
#include "cusim/timeline.hpp"
#include "signal/generate.hpp"

namespace cusfft {
namespace {

using cusim::DeviceGroup;
using cusim::PcieStaging;
using cusim::Resource;
using cusim::TimelineItem;

TimelineItem kernel_item(const char* name, cusim::StreamId s,
                         double compute_s,
                         std::vector<std::size_t> deps = {}) {
  // TimelineItem::deps is a non-owning view; park the list in static
  // storage so it outlives the returned temporary long enough for submit()
  // to copy it onto the timeline's arena. Each call recycles the previous
  // list, which is fine here: every item is submitted before the next one
  // is built.
  static thread_local std::vector<std::size_t> storage;
  storage = std::move(deps);
  TimelineItem it;
  it.name = name;
  it.stream = s;
  it.resource = Resource::kDeviceMemory;
  it.compute_s = compute_s;
  it.deps = {storage.data(), storage.size()};
  return it;
}

TimelineItem copy_item(const char* name, cusim::StreamId s, double mem_s) {
  TimelineItem it;
  it.name = name;
  it.stream = s;
  it.resource = Resource::kPcie;
  it.mem_s = mem_s;
  return it;
}

cvec test_signal(std::size_t n, std::size_t k, u64 seed) {
  Rng rng(seed);
  return signal::make_sparse_signal(n, k, rng).x;
}

sfft::Params make_params(std::size_t n, std::size_t k, u64 seed) {
  sfft::Params p;
  p.n = n;
  p.k = k;
  p.seed = seed;
  return p;
}

perfmodel::GpuSpec half_rate_k20x() {
  perfmodel::GpuSpec slow = perfmodel::GpuSpec::k20x();
  slow.name = "K20x/2";
  slow.mem_bandwidth_Bps /= 2;
  return slow;
}

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

// ---- bugfix: deps must stay scoped to the owning device --------------

TEST(FleetSched, DepsStayScopedToTheOwningDevice) {
  // Device 0 owns three items; item 2 carries a dangling dep (5). In the
  // merged node array index 5 lands inside device 1's range, and the old
  // `base + dep < total` guard made the item wait for a foreign device's
  // work. Deps are local to their timeline: out-of-range for the OWNING
  // device means ignored, exactly as Timeline::simulate treats them.
  DeviceGroup group(2);
  auto& t0 = group.device(0).timeline();
  t0.submit(kernel_item("a", 0, 1e-3));
  t0.submit(kernel_item("b", 1, 1e-3, {0}));  // in range: still honored
  t0.submit(kernel_item("c", 2, 1e-3, {5}));  // dangling: ignored
  auto& t1 = group.device(1).timeline();
  for (int i = 0; i < 8; ++i) t1.submit(kernel_item("w", 0, 1e-3));

  const auto fs = group.simulate();
  EXPECT_DOUBLE_EQ(fs.items[0][0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(fs.items[0][1].start_s, 1e-3);  // waited for item 0
  // Aliased into device 1, the dangling dep would hold "c" until 3 ms
  // (device 1's third item); scoped correctly it starts immediately.
  EXPECT_DOUBLE_EQ(fs.items[0][2].start_s, 0.0);
  EXPECT_DOUBLE_EQ(fs.makespan_s, 8e-3);
  // Busy time is the union of kernel intervals: "a" and "c" overlap on
  // [0, 1ms], "b" covers [1ms, 2ms] — 2 ms total, not 3 ms of summed
  // spans.
  EXPECT_DOUBLE_EQ(fs.busy_s[0], 2e-3);
}

// ---- bugfix: busy_s is interval coverage, not last-finish ------------

TEST(FleetSched, BusyTimeExcludesPcieIdleGaps) {
  // kernel -> copy -> kernel on one stream: the device idles during the
  // copy, so busy is 2 ms of a 3 ms makespan. The old finish/makespan
  // utilization reported 1.0 for exactly this schedule.
  DeviceGroup group(1);
  auto& tl = group.device(0).timeline();
  tl.submit(kernel_item("k1", 0, 1e-3));
  tl.submit(copy_item("h2d", 0, 1e-3));
  tl.submit(kernel_item("k2", 0, 1e-3));

  const auto fs = group.simulate();
  EXPECT_DOUBLE_EQ(fs.makespan_s, 3e-3);
  EXPECT_DOUBLE_EQ(fs.finish_s[0], 3e-3);
  EXPECT_DOUBLE_EQ(fs.busy_s[0], 2e-3);
}

// ---- bugfix: deadlock throws instead of under-reporting --------------

TEST(FleetSched, DeadlockedTimelineThrows) {
  // An item depending on itself can never start. The old loop broke out
  // silently, reporting a makespan that ignored the stuck item.
  DeviceGroup group(2);
  group.device(0).timeline().submit(kernel_item("ok", 0, 1e-3));
  group.device(1).timeline().submit(kernel_item("self", 0, 1e-3, {0}));
  try {
    group.simulate();
    FAIL() << "expected DeviceGroup::simulate to throw";
  } catch (const std::runtime_error& e) {
    // The error names the item that can never start and its device.
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("'self'"), std::string::npos) << what;
    EXPECT_NE(what.find("device 1"), std::string::npos) << what;
  }
}

TEST(FleetSched, DependencyCycleThrows) {
  DeviceGroup group(1);
  auto& tl = group.device(0).timeline();
  tl.submit(kernel_item("x", 0, 1e-3, {1}));
  tl.submit(kernel_item("y", 1, 1e-3, {0}));
  EXPECT_THROW(group.simulate(), std::runtime_error);
}

// ---- one replay loop: cache and per-timeline scoping -----------------

TEST(FleetSched, ReplayCacheFollowsTimelinesAndStaging) {
  // simulate() serves its cached schedule until a device timeline or the
  // staging policy changes; each such change must show in the next result.
  DeviceGroup group(2);
  group.device(0).timeline().submit(copy_item("h2d0", 1, 1e-3));
  group.device(1).timeline().submit(copy_item("h2d1", 1, 1e-3));
  EXPECT_DOUBLE_EQ(group.simulate().makespan_s, 2e-3);

  // A raw submission on one device: the kernel waits for its stream's copy.
  group.device(1).timeline().submit(kernel_item("k", 1, 1e-3));
  const auto grown = group.simulate();
  ASSERT_EQ(grown.items[1].size(), 2u);
  EXPECT_DOUBLE_EQ(grown.items[1][1].start_s, 2e-3);
  EXPECT_DOUBLE_EQ(grown.makespan_s, 3e-3);
  EXPECT_DOUBLE_EQ(grown.busy_s[1], 1e-3);

  // Round-robin staging serializes the copies: device 1 queues for 1 ms.
  group.set_staging(PcieStaging::RoundRobin());
  const auto staged = group.simulate();
  EXPECT_DOUBLE_EQ(staged.items[1][0].start_s, 1e-3);
  EXPECT_DOUBLE_EQ(staged.pcie_queue_s[1], 1e-3);

  // A fresh capture empties every timeline.
  group.begin_capture();
  const auto fresh = group.simulate();
  EXPECT_DOUBLE_EQ(fresh.makespan_s, 0.0);
  EXPECT_TRUE(fresh.items[0].empty());
  EXPECT_TRUE(fresh.items[1].empty());
}

TEST(FleetSched, KernelOnlyDevicesReplayAsTheirOwnTimelines) {
  // Devices share only the PCIe link, so with kernel-only timelines every
  // device's merged schedule is its own Timeline::simulate() schedule, up
  // to rounding: the shared clock steps through every device's events.
  // Random streams, barriers, deps and kernel windows pin that all four
  // stay scoped to their own timeline in the one replay loop.
  Rng rng(1617);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<perfmodel::GpuSpec> specs(2 + rng.next_below(2),
                                          perfmodel::GpuSpec::k20x());
    for (auto& spec : specs)
      spec.max_concurrent_kernels =
          1 + static_cast<unsigned>(rng.next_below(4));
    DeviceGroup group(specs);
    for (std::size_t d = 0; d < group.size(); ++d) {
      auto& tl = group.device(d).timeline();
      const std::size_t count = 1 + rng.next_below(40);
      for (std::size_t i = 0; i < count; ++i) {
        if (rng.next_below(8) == 0) tl.barrier();
        std::vector<std::size_t> deps;
        if (i > 0 && rng.next_below(3) == 0) deps.push_back(rng.next_below(i));
        TimelineItem it =
            kernel_item("k", static_cast<cusim::StreamId>(rng.next_below(4)),
                        1e-4 * static_cast<double>(1 + rng.next_below(10)),
                        std::move(deps));
        it.mem_s = 1e-4 * static_cast<double>(rng.next_below(10));
        tl.submit(it);
      }
    }
    const auto fs = group.simulate();
    for (std::size_t d = 0; d < group.size(); ++d) {
      cusim::Timeline& tl = group.device(d).timeline();
      tl.simulate();
      const auto& solo = tl.schedule();
      ASSERT_EQ(fs.items[d].size(), solo.size());
      for (std::size_t i = 0; i < solo.size(); ++i) {
        EXPECT_NEAR(fs.items[d][i].start_s, solo[i].start_s, 1e-12)
            << "trial " << trial << " device " << d << " item " << i;
        EXPECT_NEAR(fs.items[d][i].finish_s, solo[i].finish_s, 1e-12)
            << "trial " << trial << " device " << d << " item " << i;
      }
    }
  }
}

// ---- PCIe staging admission ------------------------------------------

TEST(FleetSched, UnlimitedStagingSharesTheLink) {
  DeviceGroup group(2);
  group.device(0).timeline().submit(copy_item("h2d0", 1, 1e-3));
  group.device(1).timeline().submit(copy_item("h2d1", 1, 1e-3));

  const auto fs = group.simulate();
  EXPECT_STREQ(group.staging().name(), "unlimited");
  // Both copies run at half bandwidth for the full window.
  EXPECT_DOUBLE_EQ(fs.makespan_s, 2e-3);
  EXPECT_NEAR(fs.pcie_stall_s[0], 1e-3, 1e-12);
  EXPECT_NEAR(fs.pcie_stall_s[1], 1e-3, 1e-12);
  EXPECT_DOUBLE_EQ(fs.pcie_queue_s[0], 0.0);
  EXPECT_DOUBLE_EQ(fs.pcie_queue_s[1], 0.0);
}

TEST(FleetSched, RoundRobinStagingConvertsStallIntoQueue) {
  DeviceGroup group(2);
  group.set_staging(PcieStaging::RoundRobin());
  group.device(0).timeline().submit(copy_item("h2d0", 1, 1e-3));
  group.device(1).timeline().submit(copy_item("h2d1", 1, 1e-3));

  const auto fs = group.simulate();
  EXPECT_STREQ(group.staging().name(), "round-robin");
  // Serialized copies move the same bytes in the same total time, but
  // each runs at full link rate: contention stall becomes admission
  // queueing on the second device.
  EXPECT_DOUBLE_EQ(fs.makespan_s, 2e-3);
  EXPECT_DOUBLE_EQ(fs.items[0][0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(fs.items[1][0].start_s, 1e-3);
  EXPECT_DOUBLE_EQ(fs.pcie_stall_s[0], 0.0);
  EXPECT_DOUBLE_EQ(fs.pcie_stall_s[1], 0.0);
  EXPECT_DOUBLE_EQ(fs.pcie_queue_s[0], 0.0);
  EXPECT_DOUBLE_EQ(fs.pcie_queue_s[1], 1e-3);
}

TEST(FleetSched, RoundRobinRotatesAcrossDevices) {
  // Device 0 has two ready copies, device 1 one. Strict per-copy rotation
  // would starve nobody: dev0, dev1, dev0 — not dev0 twice first.
  DeviceGroup group(2);
  group.set_staging(PcieStaging::RoundRobin());
  auto& t0 = group.device(0).timeline();
  t0.submit(copy_item("a", 1, 1e-3));
  t0.submit(copy_item("b", 2, 1e-3));
  group.device(1).timeline().submit(copy_item("c", 1, 1e-3));

  const auto fs = group.simulate();
  EXPECT_DOUBLE_EQ(fs.items[0][0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(fs.items[1][0].start_s, 1e-3);
  EXPECT_DOUBLE_EQ(fs.items[0][1].start_s, 2e-3);
  EXPECT_DOUBLE_EQ(fs.makespan_s, 3e-3);
}

TEST(FleetSched, MaxInflightBoundsConcurrentCopies) {
  auto run = [](unsigned limit) {
    DeviceGroup group(2);
    group.set_staging(PcieStaging::MaxInflight(limit));
    group.device(0).timeline().submit(copy_item("h2d0", 1, 1e-3));
    group.device(1).timeline().submit(copy_item("h2d1", 1, 1e-3));
    return group.simulate();
  };
  const auto capped = run(1);
  // One at a time: second copy queues, nobody shares bandwidth.
  EXPECT_DOUBLE_EQ(capped.items[0][0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(capped.items[1][0].start_s, 1e-3);
  EXPECT_DOUBLE_EQ(capped.pcie_queue_s[1], 1e-3);
  EXPECT_DOUBLE_EQ(capped.pcie_stall_s[0] + capped.pcie_stall_s[1], 0.0);

  // A limit covering every copy reproduces kUnlimited exactly.
  const auto open = run(2);
  EXPECT_DOUBLE_EQ(open.items[1][0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(open.pcie_queue_s[0] + open.pcie_queue_s[1], 0.0);
  EXPECT_NEAR(open.pcie_stall_s[0], 1e-3, 1e-12);

  DeviceGroup named(1);
  named.set_staging(PcieStaging::MaxInflight(3));
  EXPECT_STREQ(named.staging().name(), "max-inflight");
}

// ---- per-signal cost model -------------------------------------------

TEST(FleetSched, CostModelTracksShapeAndDeviceSpeed) {
  const gpu::Options opts = gpu::Options::optimized();
  const sfft::Params small = make_params(1 << 12, 8, 1);
  const sfft::Params big = make_params(1 << 14, 8, 1);
  const auto spec = perfmodel::GpuSpec::k20x();

  EXPECT_GT(gpu::modeled_signal_cost_s(small, spec, opts), 0.0);
  // Bigger transforms cost more.
  EXPECT_GT(gpu::modeled_signal_cost_s(big, spec, opts),
            gpu::modeled_signal_cost_s(small, spec, opts));
  // A half-bandwidth device prices the same signal higher.
  EXPECT_GT(gpu::modeled_signal_cost_s(small, half_rate_k20x(), opts),
            gpu::modeled_signal_cost_s(small, spec, opts));
  // Modeled transfers add the H2D term.
  gpu::Options xfer = opts;
  xfer.include_transfer = true;
  EXPECT_GT(gpu::modeled_signal_cost_s(small, spec, xfer),
            gpu::modeled_signal_cost_s(small, spec, opts));
}

// ---- mixed-shape fleet execution -------------------------------------

TEST(FleetSched, MixedShapeBitIdenticalToPerSignalSingleDevice) {
  struct Shape {
    std::size_t n, k;
    u64 seed;
  };
  const Shape shapes[] = {{1 << 10, 4, 11}, {1 << 11, 8, 22},
                          {1 << 12, 16, 33}};
  // Two deterministic shuffles of the shape set — order must not matter.
  const std::size_t mixes[][8] = {{0, 1, 2, 2, 0, 1, 0, 2},
                                  {2, 2, 1, 0, 1, 2, 0, 0}};
  const gpu::Options opts = gpu::Options::optimized();

  for (const auto& mix : mixes) {
    std::vector<cvec> sigs;
    for (std::size_t i = 0; i < 8; ++i)
      sigs.push_back(
          test_signal(shapes[mix[i]].n, shapes[mix[i]].k, 1000 + i));
    std::vector<gpu::MixedSignal> batch;
    for (std::size_t i = 0; i < 8; ++i)
      batch.push_back({sigs[i], make_params(shapes[mix[i]].n,
                                            shapes[mix[i]].k,
                                            shapes[mix[i]].seed)});

    // Reference: every signal through a single-device plan of its shape.
    cusim::Device solo;
    std::map<std::size_t, std::unique_ptr<gpu::GpuPlan>> ref;
    std::vector<SparseSpectrum> expected;
    for (std::size_t i = 0; i < 8; ++i) {
      auto& plan = ref[mix[i]];
      if (!plan)
        plan = std::make_unique<gpu::GpuPlan>(solo, batch[i].params, opts);
      expected.push_back(plan->execute(sigs[i]));
    }

    auto check_fleet = [&](DeviceGroup& group, const char* what) {
      gpu::MultiGpuPlan mplan(group, batch[0].params, opts);
      gpu::GpuFleetStats fs;
      const auto got = mplan.execute_mixed(batch, &fs);
      expect_identical(expected, got, what);
      EXPECT_EQ(fs.signals, 8u);
      ASSERT_EQ(fs.per_signal.size(), 8u);
      ASSERT_EQ(fs.device_of.size(), 8u);
      for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(fs.per_signal[i].candidates, got[i].size())
            << what << " signal " << i;
    };
    DeviceGroup pair(2);
    check_fleet(pair, "homogeneous pair");
    DeviceGroup skewed({perfmodel::GpuSpec::k20x(), half_rate_k20x()});
    check_fleet(skewed, "heterogeneous fleet");
  }
}

TEST(FleetSched, LptSplitsSkewedBatchBetterThanUnitGreedy) {
  // [big, small, big, small x5]: counting signals balances 4/4 but piles
  // both expensive transforms onto device 0 (greedy ties go low). LPT
  // prices the bigs and separates them.
  const sfft::Params big = make_params(1 << 13, 16, 77);
  const sfft::Params small = make_params(1 << 10, 4, 78);
  std::vector<sfft::Params> shapes = {big,   small, big,   small,
                                      small, small, small, small};
  gpu::Options opts = gpu::Options::optimized();
  opts.include_transfer = true;

  std::vector<cvec> sigs;
  for (std::size_t i = 0; i < shapes.size(); ++i)
    sigs.push_back(test_signal(shapes[i].n, shapes[i].k, 3000 + i));
  std::vector<gpu::MixedSignal> batch;
  for (std::size_t i = 0; i < shapes.size(); ++i)
    batch.push_back({sigs[i], shapes[i]});

  DeviceGroup g_lpt(2);
  gpu::MultiGpuPlan lpt(g_lpt, big, opts);
  ASSERT_EQ(lpt.shard_policy(), gpu::ShardPolicy::kCostLpt);
  const auto a_lpt = lpt.shard_assignment(std::span<const sfft::Params>(shapes));
  EXPECT_NE(a_lpt[0], a_lpt[2]) << "LPT must separate the two bigs";

  DeviceGroup g_greedy(2);
  gpu::MultiGpuPlan greedy(g_greedy, big, opts);
  greedy.set_shard_policy(gpu::ShardPolicy::kUnitGreedy);
  const auto a_greedy =
      greedy.shard_assignment(std::span<const sfft::Params>(shapes));
  EXPECT_EQ(a_greedy[0], a_greedy[2]) << "unit weights pile the bigs up";

  gpu::GpuFleetStats fs_lpt, fs_greedy;
  const auto out_lpt =
      lpt.execute_mixed(batch, &fs_lpt, gpu::BatchMode::kPipelined);
  const auto out_greedy =
      greedy.execute_mixed(batch, &fs_greedy, gpu::BatchMode::kPipelined);
  expect_identical(out_lpt, out_greedy, "lpt vs unit-greedy");
  EXPECT_LT(fs_lpt.model_ms, fs_greedy.model_ms)
      << "LPT " << fs_lpt.model_ms << " ms vs unit-greedy "
      << fs_greedy.model_ms << " ms";
}

TEST(FleetSched, FleetStatsReportStagingPolicy) {
  const std::size_t n = 1 << 11, k = 8, batch_n = 6;
  const sfft::Params params = make_params(n, k, 550);
  gpu::Options opts = gpu::Options::optimized();
  opts.include_transfer = true;
  std::vector<cvec> sigs;
  for (std::size_t i = 0; i < batch_n; ++i)
    sigs.push_back(test_signal(n, k, 5000 + i));
  std::vector<std::span<const cplx>> views(sigs.begin(), sigs.end());

  auto run = [&](PcieStaging staging, gpu::GpuFleetStats& fs) {
    DeviceGroup group(2);
    group.set_staging(staging);
    gpu::MultiGpuPlan mplan(group, params, opts);
    return mplan.execute_many(views, &fs);
  };
  gpu::GpuFleetStats unlimited, staged;
  const auto out_u = run(PcieStaging::Unlimited(), unlimited);
  const auto out_s = run(PcieStaging::RoundRobin(), staged);
  expect_identical(out_u, out_s, "staging policies");

  EXPECT_EQ(unlimited.staging, "unlimited");
  EXPECT_EQ(unlimited.pcie_queue_ms, 0.0);
  EXPECT_GT(unlimited.pcie_stall_ms, 0.0);

  EXPECT_EQ(staged.staging, "round-robin");
  // One copy in flight at a time: admission waits replace bandwidth
  // sharing entirely.
  EXPECT_GT(staged.pcie_queue_ms, 0.0);
  EXPECT_NEAR(staged.pcie_stall_ms, 0.0, 1e-9);  // rounding residue only
}

}  // namespace
}  // namespace cusfft
