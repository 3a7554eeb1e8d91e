// Tests for the C API façade: plan lifecycle, every backend, error paths,
// capacity truncation, and seed control — driven through the extern "C"
// surface, and cross-checked against the C++ executor it wraps.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "capi/cusfft.h"
#include "capi/status.hpp"
#include "core/json_lite.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "cusfft/cluster_plan.hpp"
#include "cusim/device.hpp"
#include "cusim/profiler.hpp"
#include "signal/generate.hpp"

namespace {

using cusfft::cplx;
using cusfft::cvec;

struct CWorkload {
  cvec x;
  cvec oracle;
  std::size_t n, k;
};

CWorkload make_workload(std::size_t n, std::size_t k, cusfft::u64 seed) {
  cusfft::Rng rng(seed);
  auto sig = cusfft::signal::make_sparse_signal(n, k, rng);
  return {sig.x, cusfft::densify(sig.truth, n), n, k};
}

/// A batch of workloads plus the back-to-back interleaved layout
/// cusfft_execute_many takes.
struct CBatch {
  std::vector<CWorkload> ws;
  std::vector<std::span<const cplx>> views;
  std::vector<double> interleaved;

  CBatch(std::size_t count, std::size_t n, std::size_t k, cusfft::u64 seed0) {
    for (std::size_t i = 0; i < count; ++i)
      ws.push_back(make_workload(n, k, seed0 + i));
    for (const CWorkload& w : ws) {
      views.emplace_back(w.x);
      const double* d = reinterpret_cast<const double*>(w.x.data());
      interleaved.insert(interleaved.end(), d, d + 2 * n);
    }
  }
};

std::vector<cusfft::SparseSpectrum> capi_execute_many(cusfft_handle h,
                                                      const CBatch& b,
                                                      std::size_t cap) {
  const std::size_t batch = b.ws.size();
  std::vector<uint64_t> locs(batch * cap);
  std::vector<double> vals(2 * batch * cap);
  std::vector<std::size_t> counts(batch);
  EXPECT_EQ(cusfft_execute_many(h, b.interleaved.data(), batch, cap,
                                locs.data(), vals.data(), counts.data()),
            CUSFFT_SUCCESS);
  std::vector<cusfft::SparseSpectrum> out(batch);
  for (std::size_t i = 0; i < batch; ++i)
    for (std::size_t j = 0; j < counts[i]; ++j)
      out[i].push_back({locs[i * cap + j], cplx{vals[2 * (i * cap + j)],
                                               vals[2 * (i * cap + j) + 1]}});
  return out;
}

void expect_same_spectra(const std::vector<cusfft::SparseSpectrum>& a,
                         const std::vector<cusfft::SparseSpectrum>& b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << what << " signal " << i;
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i][j].loc, b[i][j].loc) << what << " signal " << i;
      EXPECT_EQ(a[i][j].val, b[i][j].val) << what << " signal " << i;
    }
  }
}

std::string capi_profile_json(cusfft_handle h) {
  std::size_t len = 0;
  EXPECT_EQ(cusfft_profile_json(h, nullptr, 0, &len), CUSFFT_SUCCESS);
  std::vector<char> buf(len);
  EXPECT_EQ(cusfft_profile_json(h, buf.data(), buf.size(), &len),
            CUSFFT_SUCCESS);
  return std::string(buf.data());
}

/// Reads one counter (full series name, labels included) from the global
/// metrics snapshot; 0 when it was never registered.
double counter_value(const std::string& series) {
  size_t len = 0;
  EXPECT_EQ(cusfft_metrics_json(nullptr, 0, &len), CUSFFT_SUCCESS);
  std::string doc(len, '\0');
  EXPECT_EQ(cusfft_metrics_json(doc.data(), doc.size(), &len),
            CUSFFT_SUCCESS);
  cusfft::json::Value v;
  std::string err;
  EXPECT_TRUE(cusfft::json::parse(doc.c_str(), v, &err)) << err;
  const cusfft::json::Value* counters = v.find("counters");
  return counters != nullptr ? counters->number_or(series, 0.0) : 0.0;
}

// Reads cusfft_algo_signals_total{algo="<name>"} from the global metrics
// snapshot — the observable that proves which backend actually ran.
double algo_signals(const char* algo_name) {
  return counter_value(std::string("cusfft_algo_signals_total{algo=\"") +
                       algo_name + "\"}");
}

// Picker decisions so far, over both backends.
double algo_picks() {
  return counter_value("cusfft_algo_picks_total{algo=\"cusfft\"}") +
         counter_value("cusfft_algo_picks_total{algo=\"ffast\"}");
}

class CApiBackends : public ::testing::TestWithParam<cusfft_backend> {};

TEST_P(CApiBackends, PlanExecuteDestroyRecovers) {
  const auto w = make_workload(1 << 14, 12, 321);
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, w.n, w.k, GetParam()), CUSFFT_SUCCESS);
  ASSERT_NE(h, nullptr);

  std::size_t n = 0, k = 0;
  EXPECT_EQ(cusfft_get_size(h, &n, &k), CUSFFT_SUCCESS);
  EXPECT_EQ(n, w.n);
  EXPECT_EQ(k, w.k);

  std::vector<uint64_t> locs(4 * w.k);
  std::vector<double> vals(2 * 4 * w.k);
  std::size_t count = locs.size();
  ASSERT_EQ(cusfft_execute(h, reinterpret_cast<const double*>(w.x.data()),
                           locs.data(), vals.data(), &count),
            CUSFFT_SUCCESS);
  EXPECT_GE(count, w.k);

  cusfft::SparseSpectrum got;
  for (std::size_t i = 0; i < count; ++i)
    got.push_back({locs[i], cplx{vals[2 * i], vals[2 * i + 1]}});
  EXPECT_DOUBLE_EQ(cusfft::location_recall(got, w.oracle, w.k), 1.0);
  EXPECT_LT(cusfft::l1_error_per_coeff(got, w.oracle, w.k), 1e-2);

  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CApiBackends,
    ::testing::Values(CUSFFT_BACKEND_SERIAL, CUSFFT_BACKEND_PSFFT,
                      CUSFFT_BACKEND_GPU_BASELINE,
                      CUSFFT_BACKEND_GPU_OPTIMIZED),
    [](const auto& info) {
      switch (info.param) {
        case CUSFFT_BACKEND_SERIAL: return "serial";
        case CUSFFT_BACKEND_PSFFT: return "psfft";
        case CUSFFT_BACKEND_GPU_BASELINE: return "gpu_base";
        default: return "gpu_opt";
      }
    });

TEST(CApiDeathTest, InvalidThreadsEnvIsInvalidArgument) {
  // CUSFFT_THREADS sizes the pool every batch's lanes run on; a typo must
  // not silently change the program. A fresh process, so the pool is not
  // already created.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("CUSFFT_THREADS", "4x", 1);
        cusfft_handle h = nullptr;
        const cusfft_status st =
            cusfft_plan(&h, 1 << 10, 4, CUSFFT_BACKEND_GPU_OPTIMIZED);
        std::exit(st == CUSFFT_INVALID_ARGUMENT && h == nullptr ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(CApi, ExecuteManyMatchesExecutePerSignal) {
  constexpr std::size_t kBatch = 3;
  constexpr std::size_t kCap = 64;
  const std::size_t n = 1 << 13, k = 10;
  std::vector<double> inputs;  // back-to-back interleaved signals
  std::vector<CWorkload> ws;
  for (std::size_t i = 0; i < kBatch; ++i) {
    ws.push_back(make_workload(n, k, 900 + i));
    const double* d = reinterpret_cast<const double*>(ws[i].x.data());
    inputs.insert(inputs.end(), d, d + 2 * n);
  }

  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, n, k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);

  std::vector<uint64_t> locs(kBatch * kCap);
  std::vector<double> vals(2 * kBatch * kCap);
  std::size_t counts[kBatch] = {};
  ASSERT_EQ(cusfft_execute_many(h, inputs.data(), kBatch, kCap, locs.data(),
                                vals.data(), counts),
            CUSFFT_SUCCESS);

  for (std::size_t i = 0; i < kBatch; ++i) {
    std::vector<uint64_t> one_locs(kCap);
    std::vector<double> one_vals(2 * kCap);
    std::size_t count = kCap;
    ASSERT_EQ(cusfft_execute(h,
                             reinterpret_cast<const double*>(ws[i].x.data()),
                             one_locs.data(), one_vals.data(), &count),
              CUSFFT_SUCCESS);
    ASSERT_EQ(counts[i], count) << "signal " << i;
    for (std::size_t j = 0; j < count; ++j) {
      EXPECT_EQ(locs[i * kCap + j], one_locs[j]);
      EXPECT_EQ(vals[2 * (i * kCap + j)], one_vals[2 * j]);
      EXPECT_EQ(vals[2 * (i * kCap + j) + 1], one_vals[2 * j + 1]);
    }
  }
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);
}

TEST(CApi, BatchPipelineToggleKeepsResultsIdentical) {
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kCap = 64;
  const std::size_t n = 1 << 12, k = 8;
  std::vector<double> inputs;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const CWorkload w = make_workload(n, k, 700 + i);
    const double* d = reinterpret_cast<const double*>(w.x.data());
    inputs.insert(inputs.end(), d, d + 2 * n);
  }

  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, n, k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_set_batch_pipeline(nullptr, 1), CUSFFT_INVALID_ARGUMENT);

  auto run = [&](int pipeline, std::vector<uint64_t>& locs,
                 std::vector<double>& vals, std::size_t* counts) {
    ASSERT_EQ(cusfft_set_batch_pipeline(h, pipeline), CUSFFT_SUCCESS);
    ASSERT_EQ(cusfft_execute_many(h, inputs.data(), kBatch, kCap, locs.data(),
                                  vals.data(), counts),
              CUSFFT_SUCCESS);
  };

  std::vector<uint64_t> locs_on(kBatch * kCap), locs_off(kBatch * kCap);
  std::vector<double> vals_on(2 * kBatch * kCap), vals_off(2 * kBatch * kCap);
  std::size_t counts_on[kBatch] = {}, counts_off[kBatch] = {};
  run(1, locs_on, vals_on, counts_on);
  run(0, locs_off, vals_off, counts_off);

  // The toggle only changes the modeled batch schedule; recovered spectra
  // are bit-identical.
  for (std::size_t i = 0; i < kBatch; ++i) {
    ASSERT_EQ(counts_on[i], counts_off[i]) << "signal " << i;
    for (std::size_t j = 0; j < counts_on[i]; ++j) {
      EXPECT_EQ(locs_on[i * kCap + j], locs_off[i * kCap + j]);
      EXPECT_EQ(vals_on[2 * (i * kCap + j)], vals_off[2 * (i * kCap + j)]);
      EXPECT_EQ(vals_on[2 * (i * kCap + j) + 1],
                vals_off[2 * (i * kCap + j) + 1]);
    }
  }
  // CPU backends accept and ignore the call.
  cusfft_handle hs = nullptr;
  ASSERT_EQ(cusfft_plan(&hs, n, k, CUSFFT_BACKEND_SERIAL), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_set_batch_pipeline(hs, 0), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_destroy(hs), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);
}

TEST(CApi, GraphEnvMalformedIsInvalidArgument) {
  // Every simulated device reads CUSFFT_GRAPH when it is built; a
  // mistyped "verify" fails the GPU plan call instead of silently running
  // with replay on. The suite may itself run under CUSFFT_GRAPH=verify,
  // so the variable is restored afterwards.
  const char* prev = std::getenv("CUSFFT_GRAPH");
  const std::string saved = prev != nullptr ? prev : "";
  ::setenv("CUSFFT_GRAPH", "verfy", 1);
  cusfft_handle h = nullptr;
  EXPECT_EQ(cusfft_plan(&h, 1 << 12, 8, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(h, nullptr);
  if (prev != nullptr)
    ::setenv("CUSFFT_GRAPH", saved.c_str(), 1);
  else
    ::unsetenv("CUSFFT_GRAPH");
  // Re-read on every plan build, never latched.
  ASSERT_EQ(cusfft_plan(&h, 1 << 12, 8, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);
}

TEST(CApi, PcieStagingAndShardPolicyControls) {
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kCap = 64;
  const std::size_t n = 1 << 12, k = 8;
  std::vector<double> inputs;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const CWorkload w = make_workload(n, k, 850 + i);
    const double* d = reinterpret_cast<const double*>(w.x.data());
    inputs.insert(inputs.end(), d, d + 2 * n);
  }
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, n, k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);

  // Argument validation.
  EXPECT_EQ(cusfft_set_pcie_staging(nullptr, CUSFFT_STAGING_UNLIMITED, 0),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_set_pcie_staging(h, CUSFFT_STAGING_MAX_INFLIGHT, 0),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_set_pcie_staging(h, static_cast<cusfft_pcie_staging>(99),
                                    1),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_set_shard_policy(nullptr, CUSFFT_SHARD_COST_LPT),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_set_shard_policy(h, static_cast<cusfft_shard_policy>(99)),
            CUSFFT_INVALID_ARGUMENT);

  ASSERT_EQ(cusfft_set_device_count(h, 2), CUSFFT_SUCCESS);
  auto run = [&](std::vector<uint64_t>& locs, std::vector<double>& vals,
                 std::size_t* counts) {
    ASSERT_EQ(cusfft_execute_many(h, inputs.data(), kBatch, kCap,
                                  locs.data(), vals.data(), counts),
              CUSFFT_SUCCESS);
  };
  std::vector<uint64_t> locs1(kBatch * kCap), locs2(kBatch * kCap);
  std::vector<double> vals1(2 * kBatch * kCap), vals2(2 * kBatch * kCap);
  std::size_t counts1[kBatch] = {}, counts2[kBatch] = {};
  run(locs1, vals1, counts1);
  cusfft_fleet_stats fs;
  ASSERT_EQ(cusfft_get_fleet_stats(h, &fs), CUSFFT_SUCCESS);
  EXPECT_EQ(fs.pcie_queue_ms, 0.0);  // unlimited never queues

  // Staged + legacy sharding: scheduling knobs only, results identical.
  ASSERT_EQ(cusfft_set_pcie_staging(h, CUSFFT_STAGING_ROUND_ROBIN, 0),
            CUSFFT_SUCCESS);
  ASSERT_EQ(cusfft_set_shard_policy(h, CUSFFT_SHARD_UNIT_GREEDY),
            CUSFFT_SUCCESS);
  run(locs2, vals2, counts2);
  for (std::size_t i = 0; i < kBatch; ++i) {
    ASSERT_EQ(counts1[i], counts2[i]) << "signal " << i;
    for (std::size_t j = 0; j < counts1[i]; ++j) {
      EXPECT_EQ(locs1[i * kCap + j], locs2[i * kCap + j]);
      EXPECT_EQ(vals1[2 * (i * kCap + j)], vals2[2 * (i * kCap + j)]);
      EXPECT_EQ(vals1[2 * (i * kCap + j) + 1],
                vals2[2 * (i * kCap + j) + 1]);
    }
  }
  ASSERT_EQ(cusfft_get_fleet_stats(h, &fs), CUSFFT_SUCCESS);
  EXPECT_GE(fs.pcie_queue_ms, 0.0);
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);

  // CPU backends accept and ignore both knobs.
  cusfft_handle cpu = nullptr;
  ASSERT_EQ(cusfft_plan(&cpu, n, k, CUSFFT_BACKEND_SERIAL), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_set_pcie_staging(cpu, CUSFFT_STAGING_MAX_INFLIGHT, 2),
            CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_set_shard_policy(cpu, CUSFFT_SHARD_UNIT_GREEDY),
            CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_destroy(cpu), CUSFFT_SUCCESS);
}

TEST(CApi, MultiDeviceShardingMatchesSingleDevice) {
  constexpr std::size_t kBatch = 6;
  constexpr std::size_t kCap = 64;
  const std::size_t n = 1 << 12, k = 8;
  std::vector<double> inputs;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const CWorkload w = make_workload(n, k, 800 + i);
    const double* d = reinterpret_cast<const double*>(w.x.data());
    inputs.insert(inputs.end(), d, d + 2 * n);
  }

  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, n, k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_set_device_count(nullptr, 2), CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_set_device_count(h, 0), CUSFFT_INVALID_ARGUMENT);

  // No batch has run yet: no fleet stats.
  cusfft_fleet_stats fs;
  EXPECT_EQ(cusfft_get_fleet_stats(h, &fs), CUSFFT_INVALID_ARGUMENT);

  auto run = [&](std::vector<uint64_t>& locs, std::vector<double>& vals,
                 std::size_t* counts) {
    ASSERT_EQ(cusfft_execute_many(h, inputs.data(), kBatch, kCap,
                                  locs.data(), vals.data(), counts),
              CUSFFT_SUCCESS);
  };
  std::vector<uint64_t> locs1(kBatch * kCap), locs2(kBatch * kCap);
  std::vector<double> vals1(2 * kBatch * kCap), vals2(2 * kBatch * kCap);
  std::size_t counts1[kBatch] = {}, counts2[kBatch] = {};
  run(locs1, vals1, counts1);

  ASSERT_EQ(cusfft_set_device_count(h, 2), CUSFFT_SUCCESS);
  run(locs2, vals2, counts2);

  // Sharding only changes the modeled timeline: recovered spectra stay
  // bit-identical and in input order.
  for (std::size_t i = 0; i < kBatch; ++i) {
    ASSERT_EQ(counts1[i], counts2[i]) << "signal " << i;
    for (std::size_t j = 0; j < counts1[i]; ++j) {
      EXPECT_EQ(locs1[i * kCap + j], locs2[i * kCap + j]);
      EXPECT_EQ(vals1[2 * (i * kCap + j)], vals2[2 * (i * kCap + j)]);
      EXPECT_EQ(vals1[2 * (i * kCap + j) + 1],
                vals2[2 * (i * kCap + j) + 1]);
    }
  }

  ASSERT_EQ(cusfft_get_fleet_stats(h, &fs), CUSFFT_SUCCESS);
  EXPECT_EQ(fs.devices, 2u);
  EXPECT_EQ(fs.signals, kBatch);
  EXPECT_GT(fs.model_ms, 0);
  EXPECT_GE(fs.imbalance, 1.0);

  double util = -1;
  ASSERT_EQ(cusfft_get_device_utilization(h, 0, &util), CUSFFT_SUCCESS);
  EXPECT_GT(util, 0);
  EXPECT_LE(util, 1.0);
  EXPECT_EQ(cusfft_get_device_utilization(h, 2, &util),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_get_device_utilization(h, 0, nullptr),
            CUSFFT_INVALID_ARGUMENT);

  // The retained capture is the merged fleet profile.
  std::size_t len = 0;
  ASSERT_EQ(cusfft_profile_json(h, nullptr, 0, &len), CUSFFT_SUCCESS);
  std::vector<char> buf(len);
  ASSERT_EQ(cusfft_profile_json(h, buf.data(), buf.size(), &len),
            CUSFFT_SUCCESS);
  cusfft::json::Value doc;
  std::string err;
  ASSERT_TRUE(cusfft::json::parse(buf.data(), doc, &err)) << err;
  const cusfft::json::Value* profile = doc.find("profile");
  ASSERT_NE(profile, nullptr);
  const cusfft::json::Value* devices = profile->find("devices");
  ASSERT_NE(devices, nullptr);
  EXPECT_EQ(devices->array.size(), 2u);

  // Back to one device: fleet stats reset until the next run.
  ASSERT_EQ(cusfft_set_device_count(h, 1), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_get_fleet_stats(h, &fs), CUSFFT_INVALID_ARGUMENT);

  // CPU backends accept and ignore the setting.
  cusfft_handle cpu = nullptr;
  ASSERT_EQ(cusfft_plan(&cpu, n, k, CUSFFT_BACKEND_SERIAL), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_set_device_count(cpu, 4), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_destroy(cpu), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);
}

TEST(CApi, NodeCountRoutesThroughClusterBitIdentically) {
  constexpr std::size_t kBatch = 6;
  constexpr std::size_t kCap = 64;
  const std::size_t n = 1 << 12, k = 8;
  std::vector<double> inputs;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const CWorkload w = make_workload(n, k, 860 + i);
    const double* d = reinterpret_cast<const double*>(w.x.data());
    inputs.insert(inputs.end(), d, d + 2 * n);
  }

  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, n, k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_set_node_count(nullptr, 2), CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_set_node_count(h, 0), CUSFFT_INVALID_ARGUMENT);

  // No batch has run yet: no cluster stats.
  cusfft_cluster_stats cs;
  EXPECT_EQ(cusfft_get_cluster_stats(h, &cs), CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_get_cluster_stats(h, nullptr), CUSFFT_INVALID_ARGUMENT);

  auto run = [&](std::vector<uint64_t>& locs, std::vector<double>& vals,
                 std::size_t* counts) {
    ASSERT_EQ(cusfft_execute_many(h, inputs.data(), kBatch, kCap,
                                  locs.data(), vals.data(), counts),
              CUSFFT_SUCCESS);
  };
  std::vector<uint64_t> locs1(kBatch * kCap), locs2(kBatch * kCap);
  std::vector<double> vals1(2 * kBatch * kCap), vals2(2 * kBatch * kCap);
  std::size_t counts1[kBatch] = {}, counts2[kBatch] = {};
  run(locs1, vals1, counts1);

  // One node, one device: the cluster view degrades to the fleet's.
  ASSERT_EQ(cusfft_get_cluster_stats(h, &cs), CUSFFT_SUCCESS);
  EXPECT_EQ(cs.nodes, 1u);
  EXPECT_EQ(cs.nic_transfers, 0u);
  EXPECT_EQ(cs.nic_bytes, 0);

  ASSERT_EQ(cusfft_set_device_count(h, 2), CUSFFT_SUCCESS);
  ASSERT_EQ(cusfft_set_node_count(h, 2), CUSFFT_SUCCESS);
  run(locs2, vals2, counts2);

  // Node sharding only changes the modeled timeline: recovered spectra
  // stay bit-identical and in input order.
  for (std::size_t i = 0; i < kBatch; ++i) {
    ASSERT_EQ(counts1[i], counts2[i]) << "signal " << i;
    for (std::size_t j = 0; j < counts1[i]; ++j) {
      EXPECT_EQ(locs1[i * kCap + j], locs2[i * kCap + j]);
      EXPECT_EQ(vals1[2 * (i * kCap + j)], vals2[2 * (i * kCap + j)]);
      EXPECT_EQ(vals1[2 * (i * kCap + j) + 1],
                vals2[2 * (i * kCap + j) + 1]);
    }
  }

  ASSERT_EQ(cusfft_get_cluster_stats(h, &cs), CUSFFT_SUCCESS);
  EXPECT_EQ(cs.nodes, 2u);
  EXPECT_EQ(cs.devices, 4u);
  EXPECT_EQ(cs.signals, kBatch);
  EXPECT_GT(cs.model_ms, 0);
  EXPECT_GE(cs.imbalance, 1.0);
  // The remote node's shard staged over the NIC.
  EXPECT_GT(cs.nic_transfers, 0u);
  EXPECT_GT(cs.nic_bytes, 0);

  // The retained capture is the merged cluster profile: one track group
  // per device across both nodes, NIC spans present.
  std::size_t len = 0;
  ASSERT_EQ(cusfft_profile_json(h, nullptr, 0, &len), CUSFFT_SUCCESS);
  std::vector<char> buf(len);
  ASSERT_EQ(cusfft_profile_json(h, buf.data(), buf.size(), &len),
            CUSFFT_SUCCESS);
  const std::string trace(buf.data());
  EXPECT_NE(trace.find("\"nodes\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"nic\""), std::string::npos);

  // Back to one node: stats reset until the next run.
  ASSERT_EQ(cusfft_set_node_count(h, 1), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_get_cluster_stats(h, &cs), CUSFFT_INVALID_ARGUMENT);

  // CPU backends accept and ignore the setting; they never have cluster
  // stats.
  cusfft_handle cpu = nullptr;
  ASSERT_EQ(cusfft_plan(&cpu, n, k, CUSFFT_BACKEND_SERIAL), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_set_node_count(cpu, 4), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_get_cluster_stats(cpu, &cs), CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_destroy(cpu), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);
}

TEST(CApi, OneByOneHandleIsTheClusterExecutor) {
  // The default GPU handle is not a separate single-device path: it is
  // the 1 node x 1 device ClusterPlan, so its spectra, stats and capture
  // artifact are byte-identical to driving that executor directly.
  constexpr std::size_t kBatch = 4, kCap = 64;
  const std::size_t n = 1 << 12, k = 8;
  const CBatch b(kBatch, n, k, 880);

  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, n, k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  cusfft::sfft::Params p;
  p.n = n;
  p.k = k;
  cusfft::cusim::Cluster cluster(1, 1);
  cusfft::gpu::ClusterPlan plan(cluster, p,
                                cusfft::gpu::Options::optimized());
  // Warm both sides (process-global pool, pipeline buffers, captured
  // graphs) so the compared captures see identical pool deltas.
  capi_execute_many(h, b, kCap);
  plan.execute_many(b.views);

  const auto got = capi_execute_many(h, b, kCap);
  cusfft_fleet_stats fs;
  ASSERT_EQ(cusfft_get_fleet_stats(h, &fs), CUSFFT_SUCCESS);
  const std::string trace = capi_profile_json(h);

  cusfft::gpu::GpuFleetStats want_fs;
  const auto want = plan.execute_many(b.views, &want_fs);
  const std::string want_trace = cluster.end_capture().chrome_trace_json();

  for (const auto& s : want) ASSERT_LE(s.size(), kCap);  // none truncated
  expect_same_spectra(got, want, "C API 1x1 vs ClusterPlan");
  EXPECT_EQ(fs.devices, 1u);
  EXPECT_EQ(fs.signals, kBatch);
  EXPECT_EQ(fs.model_ms, want_fs.model_ms);
  EXPECT_EQ(fs.imbalance, want_fs.imbalance);
  EXPECT_EQ(trace, want_trace);

  // Utilization is the device's busy fraction of the merged schedule.
  double util = -1;
  ASSERT_EQ(cusfft_get_device_utilization(h, 0, &util), CUSFFT_SUCCESS);
  EXPECT_EQ(util, want_fs.per_device[0].utilization);
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);
}

TEST(CApi, AutoPicksAtRebuildAndPerSignalAtEveryTopology) {
  // AUTO follows one rule at every topology: a rebuild makes one pick and
  // builds the plans of the picked backend, and every signal of every
  // execute makes one more — landing on those plans. Spectra and pick
  // counts therefore cannot depend on the device or node count.
  ::unsetenv("CUSFFT_ALGO");
  ::unsetenv("CUSFFT_AUTOPICK");
  constexpr std::size_t kBatch = 4, kCap = 64;
  const std::size_t n = 1 << 12, k = 8;
  const CBatch b(kBatch, n, k, 940);
  const std::string ffast_picks = "cusfft_algo_picks_total{algo=\"ffast\"}";

  std::vector<cusfft::SparseSpectrum> first;
  const std::pair<std::size_t, std::size_t> topologies[] = {
      {1, 1}, {1, 2}, {2, 2}};
  for (const auto& [nodes, devices] : topologies) {
    const std::string topo =
        std::to_string(nodes) + "x" + std::to_string(devices);
    cusfft_handle h = nullptr;
    ASSERT_EQ(cusfft_plan(&h, n, k, CUSFFT_BACKEND_GPU_OPTIMIZED),
              CUSFFT_SUCCESS);
    ASSERT_EQ(cusfft_set_device_count(h, devices), CUSFFT_SUCCESS);
    ASSERT_EQ(cusfft_set_node_count(h, nodes), CUSFFT_SUCCESS);
    const double picks = algo_picks();
    const double ffast0 = counter_value(ffast_picks);
    ASSERT_EQ(cusfft_set_algorithm(h, CUSFFT_ALGO_AUTO), CUSFFT_SUCCESS);
    EXPECT_EQ(algo_picks(), picks + 1) << topo << ": one pick per rebuild";
    // The rebuild's pick names the backend its plans were built for.
    const bool plans_ffast = counter_value(ffast_picks) > ffast0;
    const char* planned = plans_ffast ? "ffast" : "cusfft";
    const double ran0 = algo_signals(planned);

    const auto got = capi_execute_many(h, b, kCap);
    EXPECT_EQ(algo_picks(), picks + 1 + kBatch)
        << topo << ": one pick per signal";
    EXPECT_EQ(algo_signals(planned), ran0 + kBatch)
        << topo << ": every signal ran on the " << planned
        << " plans the rebuild built";
    for (std::size_t i = 0; i < kBatch; ++i)
      EXPECT_DOUBLE_EQ(
          cusfft::location_recall(got[i], b.ws[i].oracle, k), 1.0)
          << topo << " signal " << i;
    if (first.empty()) first = got;
    expect_same_spectra(got, first, topo);
    EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);
  }
}

TEST(CApi, BackendThatCannotFitFailsThePlanCall) {
  // GPU handles build the plans of the algorithm that will run when they
  // are configured, so a shape that cannot fit device memory is an
  // ALLOC_FAILED from cusfft_plan — whether CUSFFT_ALGO or the picker
  // chose the backend. 2^30 points need 16 GiB for the signal alone
  // against the K20x's 6 GB; the check runs before anything that size is
  // allocated.
  const std::size_t n = std::size_t{1} << 30, k = 1000;
  cusfft_handle h = nullptr;
  ::setenv("CUSFFT_ALGO", "ffast", 1);
  EXPECT_EQ(cusfft_plan(&h, n, k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_ALLOC_FAILED);
  EXPECT_EQ(h, nullptr);
  // The modeled picker prices both backends without running them (the
  // measured one would calibrate on a synthetic signal of this size).
  ::setenv("CUSFFT_ALGO", "auto", 1);
  ::setenv("CUSFFT_AUTOPICK", "modeled", 1);
  const double picks = algo_picks();
  EXPECT_EQ(cusfft_plan(&h, n, k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_ALLOC_FAILED);
  EXPECT_EQ(algo_picks(), picks + 1) << "the picked backend's plan failed";
  EXPECT_EQ(h, nullptr);
  ::unsetenv("CUSFFT_ALGO");
  ::unsetenv("CUSFFT_AUTOPICK");
}

TEST(CApi, ExceptionStatusSplit) {
  // Only malformed input and API misuse (std::invalid_argument) is the
  // caller's fault; simulator invariants that throw another logic_error
  // are internal errors, and memory exhaustion is an allocation failure.
  auto status_of = [](auto e) {
    try {
      throw e;
    } catch (...) {
      return cusfft::capi::current_exception_status();
    }
  };
  EXPECT_EQ(status_of(std::invalid_argument("bad n")),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(status_of(std::out_of_range("unknown event")),
            CUSFFT_INTERNAL_ERROR);
  EXPECT_EQ(status_of(std::logic_error("metric kind conflict")),
            CUSFFT_INTERNAL_ERROR);
  EXPECT_EQ(status_of(std::runtime_error("deadlock")), CUSFFT_INTERNAL_ERROR);
  EXPECT_EQ(status_of(std::bad_alloc()), CUSFFT_ALLOC_FAILED);
  EXPECT_EQ(status_of(cusfft::cusim::OutOfDeviceMemory("6 GB")),
            CUSFFT_ALLOC_FAILED);
  EXPECT_EQ(status_of(42), CUSFFT_INTERNAL_ERROR);
}

TEST(CApi, ExecuteManyErrorPaths) {
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, 1 << 10, 4, CUSFFT_BACKEND_SERIAL),
            CUSFFT_SUCCESS);
  uint64_t locs[4];
  double vals[8];
  std::size_t counts[1];
  std::vector<double> in(2 << 10, 0.0);
  EXPECT_EQ(cusfft_execute_many(nullptr, in.data(), 1, 4, locs, vals, counts),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_execute_many(h, nullptr, 1, 4, locs, vals, counts),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_execute_many(h, in.data(), 1, 4, locs, vals, nullptr),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);
}

TEST(CApi, CapacityTruncationKeepsLargest) {
  const auto w = make_workload(1 << 13, 10, 654);
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, w.n, w.k, CUSFFT_BACKEND_SERIAL),
            CUSFFT_SUCCESS);
  std::vector<uint64_t> locs(4);
  std::vector<double> vals(8);
  std::size_t count = 4;  // smaller than k: truncate to the 4 largest
  ASSERT_EQ(cusfft_execute(h, reinterpret_cast<const double*>(w.x.data()),
                           locs.data(), vals.data(), &count),
            CUSFFT_SUCCESS);
  EXPECT_EQ(count, 4u);
  for (std::size_t i = 0; i < count; ++i) {
    const cplx v{vals[2 * i], vals[2 * i + 1]};
    EXPECT_GT(std::abs(v), 0.5);  // real tones, not noise candidates
  }
  cusfft_destroy(h);
}

TEST(CApi, SeedControlIsDeterministic) {
  const auto w = make_workload(1 << 13, 8, 777);
  auto run = [&](uint64_t seed) {
    cusfft_handle h = nullptr;
    EXPECT_EQ(cusfft_plan(&h, w.n, w.k, CUSFFT_BACKEND_SERIAL),
              CUSFFT_SUCCESS);
    EXPECT_EQ(cusfft_set_seed(h, seed), CUSFFT_SUCCESS);
    std::vector<uint64_t> locs(64);
    std::vector<double> vals(128);
    std::size_t count = 64;
    EXPECT_EQ(cusfft_execute(h, reinterpret_cast<const double*>(w.x.data()),
                             locs.data(), vals.data(), &count),
              CUSFFT_SUCCESS);
    cusfft_destroy(h);
    locs.resize(count);
    return locs;
  };
  EXPECT_EQ(run(42), run(42));
}

TEST(CApi, ErrorPaths) {
  cusfft_handle h = nullptr;
  EXPECT_EQ(cusfft_plan(nullptr, 1 << 14, 8, CUSFFT_BACKEND_SERIAL),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_plan(&h, 1000, 8, CUSFFT_BACKEND_SERIAL),
            CUSFFT_INVALID_ARGUMENT);  // n not a power of two
  EXPECT_EQ(h, nullptr);
  EXPECT_EQ(cusfft_plan(&h, 1 << 14, 8, static_cast<cusfft_backend>(99)),
            CUSFFT_INVALID_ARGUMENT);
  // Device-memory budget failure surfaces as ALLOC_FAILED.
  EXPECT_EQ(cusfft_plan(&h, 1ULL << 28, 1000, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_ALLOC_FAILED);

  ASSERT_EQ(cusfft_plan(&h, 1 << 14, 8, CUSFFT_BACKEND_SERIAL),
            CUSFFT_SUCCESS);
  std::size_t count = 8;
  EXPECT_EQ(cusfft_execute(h, nullptr, nullptr, nullptr, &count),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_get_size(nullptr, &count, &count),
            CUSFFT_INVALID_ARGUMENT);
  cusfft_destroy(h);
  EXPECT_EQ(cusfft_destroy(nullptr), CUSFFT_SUCCESS);  // free(NULL) style
}

TEST(CApi, ProfileJsonSizeQueryThenFetch) {
  const auto w = make_workload(1 << 12, 8, 654);
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, w.n, w.k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);

  // Before the first execute there is no capture to profile.
  std::size_t len = 0;
  EXPECT_EQ(cusfft_profile_json(h, nullptr, 0, &len),
            CUSFFT_INVALID_ARGUMENT);

  std::vector<uint64_t> locs(4 * w.k);
  std::vector<double> vals(2 * locs.size());
  std::size_t count = locs.size();
  ASSERT_EQ(cusfft_execute(h, reinterpret_cast<const double*>(w.x.data()),
                           locs.data(), vals.data(), &count),
            CUSFFT_SUCCESS);

  // Size query, then an undersized buffer, then the real fetch.
  ASSERT_EQ(cusfft_profile_json(h, nullptr, 0, &len), CUSFFT_SUCCESS);
  ASSERT_GT(len, 2u);
  std::vector<char> small(len / 2);
  std::size_t need = small.size();
  EXPECT_EQ(cusfft_profile_json(h, small.data(), small.size(), &need),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(need, len);  // the required capacity is always reported
  std::vector<char> buf(len);
  ASSERT_EQ(cusfft_profile_json(h, buf.data(), buf.size(), &len),
            CUSFFT_SUCCESS);
  EXPECT_EQ(buf[len - 1], '\0');

  cusfft::json::Value doc;
  std::string err;
  ASSERT_TRUE(cusfft::json::parse(buf.data(), doc, &err)) << err;
  const cusfft::json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
  EXPECT_FALSE(events->array.empty());
  EXPECT_NE(doc.find("profile"), nullptr);

  cusfft_destroy(h);
}

TEST(CApi, ProfileWriteAndCpuBackendHasNone) {
  const auto w = make_workload(1 << 12, 8, 655);
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, w.n, w.k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  std::vector<uint64_t> locs(4 * w.k);
  std::vector<double> vals(2 * locs.size());
  std::size_t count = locs.size();
  ASSERT_EQ(cusfft_execute(h, reinterpret_cast<const double*>(w.x.data()),
                           locs.data(), vals.data(), &count),
            CUSFFT_SUCCESS);

  const std::string path =
      ::testing::TempDir() + "cusfft_capi_profile.json";
  ASSERT_EQ(cusfft_profile_write(h, path.c_str()), CUSFFT_SUCCESS);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  cusfft::json::Value doc;
  EXPECT_TRUE(cusfft::json::parse(ss.str(), doc));
  std::remove(path.c_str());
  EXPECT_EQ(cusfft_profile_write(h, nullptr), CUSFFT_INVALID_ARGUMENT);
  cusfft_destroy(h);

  // CPU backends run no simulated device, so no profile exists.
  cusfft_handle cpu = nullptr;
  ASSERT_EQ(cusfft_plan(&cpu, w.n, w.k, CUSFFT_BACKEND_SERIAL),
            CUSFFT_SUCCESS);
  count = locs.size();
  ASSERT_EQ(cusfft_execute(cpu, reinterpret_cast<const double*>(w.x.data()),
                           locs.data(), vals.data(), &count),
            CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_profile_write(cpu, path.c_str()),
            CUSFFT_INVALID_ARGUMENT);
  cusfft_destroy(cpu);
}

TEST(CApi, MetricsJsonSizeQueryThenFetch) {
  // Drive some traffic through the GPU backend so the registry is
  // non-empty, then exercise the buf/cap/len protocol. A C-API execute is
  // a batch of one on the plan's cluster, so it lands in the fleet family.
  const auto w = make_workload(1 << 12, 8, 77);
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, w.n, w.k, CUSFFT_BACKEND_GPU_OPTIMIZED), CUSFFT_SUCCESS);
  std::vector<size_t> locs(w.k);
  std::vector<double> vals(2 * w.k);
  size_t count = locs.size();
  ASSERT_EQ(cusfft_execute(h, reinterpret_cast<const double*>(w.x.data()),
                           locs.data(), vals.data(), &count),
            CUSFFT_SUCCESS);
  cusfft_destroy(h);

  size_t len = 0;
  ASSERT_EQ(cusfft_metrics_json(nullptr, 0, &len), CUSFFT_SUCCESS);
  ASSERT_GT(len, 1u);  // includes the NUL terminator
  std::string doc(len, '\0');
  // A too-small buffer must be rejected without writing past it.
  EXPECT_EQ(cusfft_metrics_json(doc.data(), len - 1, &len),
            CUSFFT_INVALID_ARGUMENT);
  ASSERT_EQ(cusfft_metrics_json(doc.data(), doc.size(), &len),
            CUSFFT_SUCCESS);
  doc.resize(len - 1);  // drop the NUL
  EXPECT_NE(doc.find("\"schema\": \"cusfft-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("cusfft_fleet_batches_total"), std::string::npos);

  // The Prometheus exposition goes through the same protocol.
  size_t tlen = 0;
  ASSERT_EQ(cusfft_metrics_text(nullptr, 0, &tlen), CUSFFT_SUCCESS);
  std::string text(tlen, '\0');
  ASSERT_EQ(cusfft_metrics_text(text.data(), text.size(), &tlen),
            CUSFFT_SUCCESS);
  EXPECT_NE(text.find("# TYPE cusfft_fleet_batches_total counter"),
            std::string::npos);

  EXPECT_EQ(cusfft_metrics_json(nullptr, 0, nullptr),
            CUSFFT_INVALID_ARGUMENT);
}

TEST(CApi, MetricsWriteAndReset) {
  const std::string path = "/tmp/cusfft_capi_metrics.json";
  ASSERT_EQ(cusfft_metrics_write(path.c_str(), CUSFFT_METRICS_JSON),
            CUSFFT_SUCCESS);
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_NE(ss.str().find("cusfft-metrics-v1"), std::string::npos);
  std::remove(path.c_str());

  EXPECT_EQ(cusfft_metrics_write(nullptr, CUSFFT_METRICS_JSON),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_metrics_write(path.c_str(),
                                 static_cast<cusfft_metrics_format>(42)),
            CUSFFT_INVALID_ARGUMENT);

  // reset() zeroes counters; the exposition survives and stays valid.
  ASSERT_EQ(cusfft_metrics_reset(), CUSFFT_SUCCESS);
  size_t len = 0;
  ASSERT_EQ(cusfft_metrics_json(nullptr, 0, &len), CUSFFT_SUCCESS);
  std::string doc(len, '\0');
  ASSERT_EQ(cusfft_metrics_json(doc.data(), doc.size(), &len),
            CUSFFT_SUCCESS);
  if (doc.find("cusfft_fleet_batches_total") != std::string::npos) {
    EXPECT_NE(doc.find("\"cusfft_fleet_batches_total\": 0"),
              std::string::npos)
        << "after reset, a registered counter must read 0";
  }
}

cusfft::SparseSpectrum capi_execute(cusfft_handle h, const CWorkload& w) {
  std::vector<uint64_t> locs(4 * w.k);
  std::vector<double> vals(2 * 4 * w.k);
  std::size_t count = locs.size();
  EXPECT_EQ(cusfft_execute(h, reinterpret_cast<const double*>(w.x.data()),
                           locs.data(), vals.data(), &count),
            CUSFFT_SUCCESS);
  cusfft::SparseSpectrum got;
  for (std::size_t i = 0; i < count; ++i)
    got.push_back({locs[i], cplx{vals[2 * i], vals[2 * i + 1]}});
  return got;
}

TEST(CApi, SetAlgorithmRoundTripsOnEveryBackend) {
  ::unsetenv("CUSFFT_ALGO");
  const auto w = make_workload(1 << 12, 8, 424);
  for (const cusfft_backend be :
       {CUSFFT_BACKEND_SERIAL, CUSFFT_BACKEND_PSFFT,
        CUSFFT_BACKEND_GPU_OPTIMIZED}) {
    cusfft_handle h = nullptr;
    ASSERT_EQ(cusfft_plan(&h, w.n, w.k, be), CUSFFT_SUCCESS);
    ASSERT_EQ(cusfft_set_algorithm(h, CUSFFT_ALGO_FFAST), CUSFFT_SUCCESS);
    EXPECT_DOUBLE_EQ(
        cusfft::location_recall(capi_execute(h, w), w.oracle, w.k), 1.0)
        << "ffast on backend " << be;
    ASSERT_EQ(cusfft_set_algorithm(h, CUSFFT_ALGO_CUSFFT), CUSFFT_SUCCESS);
    EXPECT_DOUBLE_EQ(
        cusfft::location_recall(capi_execute(h, w), w.oracle, w.k), 1.0)
        << "cusfft on backend " << be;
    EXPECT_EQ(cusfft_set_algorithm(h, static_cast<cusfft_algorithm>(42)),
              CUSFFT_INVALID_ARGUMENT);
    cusfft_destroy(h);
  }

  // AUTO resolves through the crossover picker on the GPU backend (CPU
  // backends have no device spec to price against and fall back to the
  // default bucket hashing).
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, w.n, w.k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  ASSERT_EQ(cusfft_set_algorithm(h, CUSFFT_ALGO_AUTO), CUSFFT_SUCCESS);
  EXPECT_DOUBLE_EQ(
      cusfft::location_recall(capi_execute(h, w), w.oracle, w.k), 1.0);
  cusfft_destroy(h);
}

TEST(CApi, AlgoEnvMalformedIsInvalidArgumentNeverLatched) {
  ::setenv("CUSFFT_ALGO", "fastest", 1);
  cusfft_handle h = nullptr;
  EXPECT_EQ(cusfft_plan(&h, 1 << 12, 8, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(h, nullptr);
  EXPECT_EQ(cusfft_plan(&h, 1 << 12, 8, CUSFFT_BACKEND_SERIAL),
            CUSFFT_INVALID_ARGUMENT);

  // The environment is re-read on every rebuild, never latched: clearing
  // it makes the identical call succeed, and re-poisoning it fails the
  // next rebuild on a live handle.
  ::unsetenv("CUSFFT_ALGO");
  ASSERT_EQ(cusfft_plan(&h, 1 << 12, 8, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  ::setenv("CUSFFT_ALGO", "fastest", 1);
  EXPECT_EQ(cusfft_set_seed(h, 7), CUSFFT_INVALID_ARGUMENT);
  ::unsetenv("CUSFFT_ALGO");
  // The failed rebuild left no backend behind: executes are refused (not
  // run on a half-built plan) until a reconfiguration succeeds.
  const CWorkload w = make_workload(1 << 12, 8, 17);
  std::vector<uint64_t> locs(32);
  std::vector<double> vals(64);
  std::size_t count = locs.size();
  EXPECT_EQ(cusfft_execute(h, reinterpret_cast<const double*>(w.x.data()),
                           locs.data(), vals.data(), &count),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_set_seed(h, 7), CUSFFT_SUCCESS);
  count = locs.size();
  EXPECT_EQ(cusfft_execute(h, reinterpret_cast<const double*>(w.x.data()),
                           locs.data(), vals.data(), &count),
            CUSFFT_SUCCESS);

  // CUSFFT_AUTOPICK is parsed strictly too, but only consulted when the
  // algorithm resolves to AUTO.
  ::setenv("CUSFFT_AUTOPICK", "guess", 1);
  EXPECT_EQ(cusfft_set_algorithm(h, CUSFFT_ALGO_CUSFFT), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_set_algorithm(h, CUSFFT_ALGO_AUTO),
            CUSFFT_INVALID_ARGUMENT);
  ::unsetenv("CUSFFT_AUTOPICK");
  EXPECT_EQ(cusfft_set_algorithm(h, CUSFFT_ALGO_AUTO), CUSFFT_SUCCESS);
  cusfft_destroy(h);
}

TEST(CApi, AlgoEnvOverridesPlannedAlgorithm) {
  const auto w = make_workload(1 << 12, 8, 929);
  ::setenv("CUSFFT_ALGO", "ffast", 1);
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, w.n, w.k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  const double ffast_before = algo_signals("ffast");
  capi_execute(h, w);
  EXPECT_DOUBLE_EQ(algo_signals("ffast"), ffast_before + 1)
      << "CUSFFT_ALGO=ffast must reach the GPU plan";

  ::unsetenv("CUSFFT_ALGO");
  ASSERT_EQ(cusfft_set_seed(h, 3), CUSFFT_SUCCESS);  // rebuild re-reads env
  const double cusfft_before = algo_signals("cusfft");
  capi_execute(h, w);
  EXPECT_DOUBLE_EQ(algo_signals("cusfft"), cusfft_before + 1)
      << "clearing the override must restore the planned algorithm";
  cusfft_destroy(h);
}

TEST(CApi, ServerRoundTripMatchesPlanExecute) {
  // Virtual-clock serving through the C surface: batched results must be
  // bit-identical to cusfft_execute on a standalone GPU_OPTIMIZED plan of
  // the same shape (both sides use the default permutation seed).
  constexpr std::size_t kN = 1 << 10, kK = 8, kCap = 64;
  cusfft_server_config cfg;
  ASSERT_EQ(cusfft_server_config_default(&cfg), CUSFFT_SUCCESS);
  EXPECT_GE(cfg.max_batch, 1u);
  cfg.devices = 1;
  cfg.max_batch = 4;
  cfg.tenant_queue_depth = 8;

  cusfft_server s = nullptr;
  ASSERT_EQ(cusfft_server_create(&s, &cfg), CUSFFT_SUCCESS);
  ASSERT_NE(s, nullptr);

  std::vector<cvec> signals;
  std::vector<uint64_t> ids(3);
  for (std::size_t i = 0; i < 3; ++i)
    signals.push_back(make_workload(kN, kK, 500 + i).x);
  for (std::size_t i = 0; i < 3; ++i)
    ASSERT_EQ(cusfft_server_submit(
                  s, i % 2 ? "tenant_a" : "tenant_b", 0.1 * double(i), kN,
                  kK, CUSFFT_SLO_THROUGHPUT, /*deadline_ms=*/0,
                  reinterpret_cast<const double*>(signals[i].data()),
                  &ids[i]),
              CUSFFT_SUCCESS);

  // Still pending: no batch has closed, so results are not available yet.
  cusfft_request_outcome oc = CUSFFT_REQUEST_COMPLETED;
  ASSERT_EQ(cusfft_server_outcome(s, ids[0], &oc), CUSFFT_SUCCESS);
  EXPECT_EQ(oc, CUSFFT_REQUEST_PENDING);

  ASSERT_EQ(cusfft_server_drain(s), CUSFFT_SUCCESS);

  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, kN, kK, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(cusfft_server_outcome(s, ids[i], &oc), CUSFFT_SUCCESS);
    ASSERT_EQ(oc, CUSFFT_REQUEST_COMPLETED) << "request " << i;

    std::vector<uint64_t> got_locs(kCap), want_locs(kCap);
    std::vector<double> got_vals(2 * kCap), want_vals(2 * kCap);
    std::size_t got_n = kCap, want_n = kCap;
    double latency = -1;
    ASSERT_EQ(cusfft_server_result(s, ids[i], got_locs.data(),
                                   got_vals.data(), &got_n, &latency),
              CUSFFT_SUCCESS);
    EXPECT_GT(latency, 0.0);
    ASSERT_EQ(cusfft_execute(
                  h, reinterpret_cast<const double*>(signals[i].data()),
                  want_locs.data(), want_vals.data(), &want_n),
              CUSFFT_SUCCESS);
    ASSERT_EQ(got_n, want_n) << "request " << i;
    for (std::size_t j = 0; j < got_n; ++j) {
      EXPECT_EQ(got_locs[j], want_locs[j]) << "request " << i;
      EXPECT_DOUBLE_EQ(got_vals[2 * j], want_vals[2 * j]) << "request " << i;
      EXPECT_DOUBLE_EQ(got_vals[2 * j + 1], want_vals[2 * j + 1])
          << "request " << i;
    }
  }
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);

  cusfft_serve_stats st;
  ASSERT_EQ(cusfft_server_stats(s, &st), CUSFFT_SUCCESS);
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.completed + st.shed + st.rejected, st.submitted);
  EXPECT_GT(st.sustained_qps, 0.0);
  EXPECT_GT(st.throughput_p99_ms, 0.0);

  EXPECT_EQ(cusfft_server_destroy(s), CUSFFT_SUCCESS);
}

TEST(CApi, ServerBackpressureAndErrorPaths) {
  cusfft_server_config cfg;
  ASSERT_EQ(cusfft_server_config_default(&cfg), CUSFFT_SUCCESS);
  cfg.tenant_queue_depth = 1;
  cusfft_server s = nullptr;
  ASSERT_EQ(cusfft_server_create(&s, &cfg), CUSFFT_SUCCESS);

  constexpr std::size_t kN = 256, kK = 4;
  const cvec x = make_workload(kN, kK, 9).x;
  const auto* in = reinterpret_cast<const double*>(x.data());
  uint64_t id1 = 0, id2 = 0;
  ASSERT_EQ(cusfft_server_submit(s, "a", 0.0, kN, kK,
                                 CUSFFT_SLO_THROUGHPUT, 0, in, &id1),
            CUSFFT_SUCCESS);
  ASSERT_EQ(cusfft_server_submit(s, "a", 0.0, kN, kK,
                                 CUSFFT_SLO_THROUGHPUT, 0, in, &id2),
            CUSFFT_SUCCESS);
  cusfft_request_outcome oc = CUSFFT_REQUEST_PENDING;
  ASSERT_EQ(cusfft_server_outcome(s, id2, &oc), CUSFFT_SUCCESS);
  EXPECT_EQ(oc, CUSFFT_REQUEST_REJECTED);  // over the tenant quota

  // A rejected request has no spectrum to fetch.
  std::vector<uint64_t> locs(8);
  std::vector<double> vals(16);
  std::size_t count = 8;
  EXPECT_EQ(cusfft_server_result(s, id2, locs.data(), vals.data(), &count,
                                 nullptr),
            CUSFFT_INVALID_ARGUMENT);

  EXPECT_EQ(cusfft_server_submit(s, nullptr, 0.0, kN, kK,
                                 CUSFFT_SLO_THROUGHPUT, 0, in, &id1),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_server_submit(s, "a", 0.0, kN, kK,
                                 static_cast<cusfft_slo_class>(42), 0, in,
                                 &id1),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_server_advance(nullptr, 1.0), CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_server_drain(nullptr), CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_server_stats(s, nullptr), CUSFFT_INVALID_ARGUMENT);
  // Like cusfft_destroy, destroying NULL is a no-op success.
  EXPECT_EQ(cusfft_server_destroy(nullptr), CUSFFT_SUCCESS);

  ASSERT_EQ(cusfft_server_drain(s), CUSFFT_SUCCESS);
  ASSERT_EQ(cusfft_server_outcome(s, id1, &oc), CUSFFT_SUCCESS);
  EXPECT_EQ(oc, CUSFFT_REQUEST_COMPLETED);
  EXPECT_EQ(cusfft_server_destroy(s), CUSFFT_SUCCESS);
}

TEST(CApi, ServerConfigDefaultReadsEnvStrictly) {
  ::setenv("CUSFFT_SERVE_MAX_BATCH", "5", 1);
  cusfft_server_config cfg;
  ASSERT_EQ(cusfft_server_config_default(&cfg), CUSFFT_SUCCESS);
  EXPECT_EQ(cfg.max_batch, 5u);
  ::setenv("CUSFFT_SERVE_MAX_BATCH", "junk", 1);
  EXPECT_EQ(cusfft_server_config_default(&cfg), CUSFFT_INVALID_ARGUMENT);
  ::unsetenv("CUSFFT_SERVE_MAX_BATCH");
  ASSERT_EQ(cusfft_server_config_default(&cfg), CUSFFT_SUCCESS);
  EXPECT_EQ(cfg.max_batch, 8u);  // library default, not the latched 5
}

TEST(CApi, ServerNodeCountFromEnvServesOnTheCluster) {
  // cusfft_server_config has no node count: a NULL config takes
  // CUSFFT_SERVE_NODES, and that server batches through the cluster layer
  // with the plan's spectra, bit for bit.
  ::setenv("CUSFFT_SERVE_NODES", "2", 1);
  cusfft_server s = nullptr;
  const cusfft_status created = cusfft_server_create(&s, nullptr);
  ::unsetenv("CUSFFT_SERVE_NODES");
  ASSERT_EQ(created, CUSFFT_SUCCESS);

  constexpr std::size_t kN = 1 << 10, kK = 8, kCap = 64;
  const CBatch b(4, kN, kK, 520);
  std::vector<uint64_t> ids(b.ws.size());
  for (std::size_t i = 0; i < ids.size(); ++i)
    ASSERT_EQ(cusfft_server_submit(
                  s, "t", 0.0, kN, kK, CUSFFT_SLO_THROUGHPUT, 0,
                  reinterpret_cast<const double*>(b.ws[i].x.data()),
                  &ids[i]),
              CUSFFT_SUCCESS);
  const double cluster_batches =
      counter_value("cusfft_cluster_batches_total");
  ASSERT_EQ(cusfft_server_drain(s), CUSFFT_SUCCESS);
  EXPECT_GT(counter_value("cusfft_cluster_batches_total"), cluster_batches)
      << "a 2-node server must batch through the cluster layer";

  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, kN, kK, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  const auto want = capi_execute_many(h, b, kCap);
  std::vector<cusfft::SparseSpectrum> got(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::vector<uint64_t> locs(kCap);
    std::vector<double> vals(2 * kCap);
    std::size_t count = kCap;
    ASSERT_EQ(cusfft_server_result(s, ids[i], locs.data(), vals.data(),
                                   &count, nullptr),
              CUSFFT_SUCCESS);
    for (std::size_t j = 0; j < count; ++j)
      got[i].push_back({locs[j], cplx{vals[2 * j], vals[2 * j + 1]}});
  }
  expect_same_spectra(got, want, "2-node server vs plan");
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_server_destroy(s), CUSFFT_SUCCESS);
}

TEST(CApi, StatusStrings) {
  EXPECT_STREQ(cusfft_status_string(CUSFFT_SUCCESS), "success");
  EXPECT_STREQ(cusfft_status_string(CUSFFT_INVALID_ARGUMENT),
               "invalid argument");
  EXPECT_STREQ(cusfft_status_string(CUSFFT_ALLOC_FAILED),
               "allocation failed");
  EXPECT_STREQ(cusfft_status_string(static_cast<cusfft_status>(-99)),
               "unknown status");
}

}  // namespace
