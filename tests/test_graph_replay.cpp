// Captured-graph replay (cusim::LaunchGraph): repeat launches of a
// cacheable (shape, graph_key) tuple skip warp tracing and reuse the
// recorded traffic counters. The contract under test:
//   1. replay produces bit-identical functional outputs AND bit-identical
//      modeled times to a fully traced run (CUSFFT_GRAPH=0 equivalent);
//   2. records are namespaced by the device's graph domain (one plan's
//      records never serve another's launches);
//   3. GraphMode::kVerify traces anyway, cross-checks against the record,
//      and throws when the traffic genuinely diverges;
//   4. the plan/batch/fleet paths (kSerialized, kPipelined, 1/2/4-device
//      DeviceGroup) all hold property 1 while actually replaying;
//   5. CUSFFT_GRAPH accepts only unset/empty/1, 0 and verify.
#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "cusfft/multi_plan.hpp"
#include "cusfft/plan.hpp"
#include "cusim/device.hpp"
#include "cusim/device_group.hpp"
#include "signal/generate.hpp"

namespace cusfft {
namespace {

using cusim::Device;
using cusim::DeviceBuffer;
using cusim::DeviceGroup;
using cusim::GraphMode;
using cusim::LaunchCfg;
using cusim::ThreadCtx;

TEST(GraphReplay, DeviceRecordsThenReplays) {
  Device dev;
  dev.set_graph_mode(GraphMode::kOn);
  dev.begin_capture();
  DeviceBuffer<double> buf(1 << 12);
  auto run = [&](double scale) {
    dev.launch(LaunchCfg::for_elements("gr_fill", buf.size()).cache(1),
               [&, scale](ThreadCtx& t) {
                 const u64 i = t.global_id();
                 if (i < buf.size())
                   buf.store(t, i, scale * static_cast<double>(i));
               });
  };
  run(1.0);
  EXPECT_EQ(dev.graph_stats().records, 1u);
  EXPECT_EQ(dev.graph_stats().replays, 0u);
  const double first_ms = dev.elapsed_model_ms();
  EXPECT_GT(first_ms, 0.0);

  // Same tuple, different captured value: the replay still executes the
  // body (functional effects are live), only the tracer is skipped.
  run(2.0);
  EXPECT_EQ(dev.graph_stats().records, 1u);
  EXPECT_EQ(dev.graph_stats().replays, 1u);
  // Identical modeled cost: the replayed item reuses the recorded traffic.
  EXPECT_DOUBLE_EQ(dev.elapsed_model_ms(), 2.0 * first_ms);
  for (std::size_t i = 0; i < buf.size(); ++i)
    EXPECT_EQ(buf.host()[i], 2.0 * static_cast<double>(i)) << i;
}

TEST(GraphReplay, UncacheableLaunchesNeverReplay) {
  Device dev;
  dev.set_graph_mode(GraphMode::kOn);
  dev.begin_capture();
  DeviceBuffer<double> buf(256);
  for (int rep = 0; rep < 3; ++rep)
    dev.launch(LaunchCfg::for_elements("gr_plain", buf.size()),
               [&](ThreadCtx& t) {
                 const u64 i = t.global_id();
                 if (i < buf.size()) buf.store(t, i, 1.0);
               });
  EXPECT_EQ(dev.graph_stats().records, 0u);
  EXPECT_EQ(dev.graph_stats().replays, 0u);
}

TEST(GraphReplay, DomainSaltNamespacesRecords) {
  Device dev;
  dev.set_graph_mode(GraphMode::kOn);
  dev.begin_capture();
  DeviceBuffer<double> buf(1 << 10);
  auto run = [&] {
    dev.launch(LaunchCfg::for_elements("gr_domain", buf.size()).cache(9),
               [&](ThreadCtx& t) {
                 const u64 i = t.global_id();
                 if (i < buf.size()) buf.store(t, i, 1.0);
               });
  };
  dev.set_graph_domain(111);
  run();
  dev.set_graph_domain(222);
  run();  // same (name, key, shape), different domain: must re-record
  EXPECT_EQ(dev.graph_stats().records, 2u);
  EXPECT_EQ(dev.graph_stats().replays, 0u);
  dev.set_graph_domain(111);
  run();  // back on the first domain: replays its record
  EXPECT_EQ(dev.graph_stats().replays, 1u);
}

TEST(GraphReplay, OffModeNeverRecords) {
  Device dev;
  dev.set_graph_mode(GraphMode::kOff);
  dev.begin_capture();
  DeviceBuffer<double> buf(256);
  for (int rep = 0; rep < 2; ++rep)
    dev.launch(LaunchCfg::for_elements("gr_off", buf.size()).cache(3),
               [&](ThreadCtx& t) {
                 const u64 i = t.global_id();
                 if (i < buf.size()) buf.store(t, i, 2.0);
               });
  EXPECT_EQ(dev.graph_stats().records, 0u);
  EXPECT_EQ(dev.graph_stats().replays, 0u);
}

TEST(GraphReplay, EnvAcceptsOnlyKnownModes) {
  // CUSFFT_GRAPH is strict: a mistyped "verify" (or any other unknown
  // value) must not silently run with replay on. The suite may itself run
  // under CUSFFT_GRAPH=verify, so the variable is restored afterwards.
  const char* prev = std::getenv("CUSFFT_GRAPH");
  const std::string saved = prev != nullptr ? prev : "";
  const auto mode_under = [](const char* v) {
    setenv("CUSFFT_GRAPH", v, /*overwrite=*/1);
    return Device().graph_mode();
  };
  EXPECT_EQ(mode_under(""), GraphMode::kOn);
  EXPECT_EQ(mode_under("1"), GraphMode::kOn);
  EXPECT_EQ(mode_under("0"), GraphMode::kOff);
  EXPECT_EQ(mode_under("verify"), GraphMode::kVerify);
  for (const char* bad : {"verfy", "off", "false"}) {
    setenv("CUSFFT_GRAPH", bad, /*overwrite=*/1);
    try {
      Device dev;
      ADD_FAILURE() << "CUSFFT_GRAPH=" << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("CUSFFT_GRAPH"), std::string::npos)
          << e.what();
    }
  }
  unsetenv("CUSFFT_GRAPH");
  EXPECT_EQ(Device().graph_mode(), GraphMode::kOn);
  if (prev != nullptr) setenv("CUSFFT_GRAPH", saved.c_str(), 1);
}

TEST(GraphReplay, ClearGraphCacheForcesReRecord) {
  Device dev;
  dev.set_graph_mode(GraphMode::kOn);
  dev.begin_capture();
  DeviceBuffer<double> buf(256);
  auto run = [&] {
    dev.launch(LaunchCfg::for_elements("gr_clear", buf.size()).cache(5),
               [&](ThreadCtx& t) {
                 const u64 i = t.global_id();
                 if (i < buf.size()) buf.store(t, i, 3.0);
               });
  };
  run();
  dev.clear_graph_cache();
  run();
  EXPECT_EQ(dev.graph_stats().records, 2u);
  EXPECT_EQ(dev.graph_stats().replays, 0u);
}

TEST(GraphReplay, VerifyModeCrossChecksAndThrowsOnDivergence) {
  Device dev;
  dev.set_graph_mode(GraphMode::kVerify);
  dev.begin_capture();
  DeviceBuffer<double> buf(1 << 13);
  std::size_t stride = 1;
  auto run = [&] {
    dev.launch(LaunchCfg::for_elements("gr_stride", 128).cache(7),
               [&](ThreadCtx& t) {
                 const u64 i = t.global_id();
                 if (i < 128) buf.store(t, i * stride, 1.0);
               });
  };
  run();  // records under full tracing
  run();  // same traffic: cross-check passes
  EXPECT_EQ(dev.graph_stats().records, 1u);
  EXPECT_EQ(dev.graph_stats().verified, 1u);
  EXPECT_EQ(dev.graph_stats().replays, 0u);  // verify never skips tracing

  // Scatter the stores without changing the key: the recorded counters no
  // longer match the traced traffic and the cross-check must throw.
  stride = 37;
  EXPECT_THROW(run(), std::runtime_error);
}

// ---- End-to-end: plan, batch modes, fleets --------------------------------

sfft::Params make_params(std::size_t n, std::size_t k, u64 seed) {
  sfft::Params p;
  p.n = n;
  p.k = k;
  p.seed = seed;
  return p;
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

struct Batch {
  std::vector<cvec> signals;
  std::vector<std::span<const cplx>> views;
  Batch(std::size_t count, std::size_t n, std::size_t k, u64 seed0) {
    for (std::size_t i = 0; i < count; ++i) {
      Rng rng(seed0 + i);
      signals.push_back(signal::make_sparse_signal(n, k, rng).x);
    }
    for (const cvec& s : signals) views.emplace_back(s);
  }
};

TEST(GraphReplay, PlanReplayBitIdenticalToUntraced) {
  const std::size_t n = 1 << 13, k = 8;
  Rng rng(99);
  const cvec x = signal::make_sparse_signal(n, k, rng).x;
  const sfft::Params params = make_params(n, k, 4242);
  const gpu::Options opts = gpu::Options::optimized();

  Device dev_off;
  dev_off.set_graph_mode(GraphMode::kOff);
  gpu::GpuPlan plan_off(dev_off, params, opts);
  gpu::GpuBatchStats st_off;
  const auto ref = plan_off.execute(x, &st_off);

  Device dev_on;
  dev_on.set_graph_mode(GraphMode::kOn);
  gpu::GpuPlan plan_on(dev_on, params, opts);
  const auto warm = plan_on.execute(x);  // records
  gpu::GpuBatchStats st_hot;
  const auto hot = plan_on.execute(x, &st_hot);  // replays
  EXPECT_GT(dev_on.graph_stats().replays, 0u);

  expect_identical({ref}, {warm}, "record vs untraced");
  expect_identical({ref}, {hot}, "replay vs untraced");
  // Replay reuses recorded counters, so the modeled time is bit-identical
  // to the fully traced run.
  EXPECT_DOUBLE_EQ(st_hot.model_ms, st_off.model_ms);
}

TEST(GraphReplay, BatchModesBitIdenticalToUntraced) {
  const std::size_t n = 1 << 11, k = 8, count = 5;
  const sfft::Params params = make_params(n, k, 777);
  const gpu::Options opts = gpu::Options::optimized();
  Batch batch(count, n, k, 555);

  for (const gpu::BatchMode mode :
       {gpu::BatchMode::kSerialized, gpu::BatchMode::kPipelined}) {
    Device dev_off;
    dev_off.set_graph_mode(GraphMode::kOff);
    gpu::GpuPlan plan_off(dev_off, params, opts);
    gpu::GpuBatchStats st_off;
    const auto ref = plan_off.execute_many(batch.views, &st_off, mode);

    Device dev_on;
    dev_on.set_graph_mode(GraphMode::kOn);
    gpu::GpuPlan plan_on(dev_on, params, opts);
    gpu::GpuBatchStats st_hot;
    const auto hot = plan_on.execute_many(batch.views, &st_hot, mode);
    EXPECT_GT(dev_on.graph_stats().replays, 0u);  // later signals replay

    expect_identical(ref, hot, "batch replay vs untraced");
    EXPECT_DOUBLE_EQ(st_hot.model_ms, st_off.model_ms);
  }
}

TEST(GraphReplay, FleetsBitIdenticalToUntracedAcrossSizes) {
  const std::size_t n = 1 << 11, k = 8, count = 6;
  const sfft::Params params = make_params(n, k, 888);
  const gpu::Options opts = gpu::Options::optimized();
  Batch batch(count, n, k, 666);

  Device dev_off;
  dev_off.set_graph_mode(GraphMode::kOff);
  gpu::GpuPlan plan_off(dev_off, params, opts);
  const auto ref = plan_off.execute_many(batch.views);

  for (const std::size_t ndev : {1u, 2u, 4u}) {
    DeviceGroup group(ndev);
    for (std::size_t d = 0; d < group.size(); ++d)
      group.device(d).set_graph_mode(GraphMode::kOn);
    gpu::MultiGpuPlan mplan(group, params, opts);
    const auto got = mplan.execute_many(batch.views);
    expect_identical(ref, got, "fleet replay vs untraced");

    u64 replays = 0;
    for (std::size_t d = 0; d < group.size(); ++d)
      replays += group.device(d).graph_stats().replays;
    EXPECT_GT(replays, 0u) << ndev << " devices";
  }
}

}  // namespace
}  // namespace cusfft
