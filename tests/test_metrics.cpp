// Tests for the always-on telemetry registry (cusim/metrics.hpp): sharded
// counter/histogram exactness under concurrency, log-bucket geometry and
// percentile accuracy against a sorted reference, exposition formats
// (validated with the same tools/metrics_check_lib CI uses), collector
// re-baselining, and the GpuPlan/MultiGpuPlan to_metrics adapters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "cusfft/multi_plan.hpp"
#include "cusfft/plan.hpp"
#include "cusim/device.hpp"
#include "cusim/device_group.hpp"
#include "cusim/metrics.hpp"
#include "metrics_check_lib.hpp"
#include "signal/generate.hpp"

namespace cusfft {
namespace {

// Pin the pool width before anything touches ThreadPool::global() so
// batches run on several lanes even on single-core CI runners.
const int kEnvGuard = [] {
  setenv("CUSFFT_THREADS", "4", /*overwrite=*/0);
  return 0;
}();

using cusim::Counter;
using cusim::Gauge;
using cusim::Histogram;
using cusim::HistogramSnapshot;
using cusim::MetricsRegistry;

TEST(MetricsCounter, AddsAndSumsAcrossShards) {
  Counter c;
  c.add(3);
  c.inc();
  EXPECT_EQ(c.value(), 4u);
}

TEST(MetricsCounter, HammerLosesNoIncrements) {
  // More threads than shards, every thread hot-looping add(1): the final
  // sum must be exact whatever the shard assignment.
  Counter c;
  constexpr std::size_t kThreads = 12;
  constexpr u64 kIters = 20000;
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < kThreads; ++t)
    ts.emplace_back([&c] {
      for (u64 i = 0; i < kIters; ++i) c.inc();
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), kThreads * kIters);
}

TEST(MetricsGauge, SetAddMax) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.set_max(3.0);  // below current: no-op
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.set_max(7.25);
  EXPECT_DOUBLE_EQ(g.value(), 7.25);
}

TEST(MetricsHistogram, BucketGeometryRoundTrips) {
  // Buckets are lower-inclusive [lower, upper): every value lands in a
  // bucket whose upper bound exceeds it and whose predecessor's upper
  // bound (the bucket's own lower bound) is <= the value.
  const double lo = std::ldexp(1.0, Histogram::kMinExp);
  const double hi = std::ldexp(1.0, Histogram::kMaxExp);
  const std::vector<double> vals = {
      0.0,       lo / 2,  lo,       lo * 1.01, 1e-4, 0.37, 0.5,
      0.9999999, 1.0,     1.000001, 1.5,       2.0,  3.7,  1024.0,
      1e6,       hi / 2,  hi * 0.999};
  for (double v : vals) {
    const std::size_t idx = Histogram::bucket_index(v);
    ASSERT_LT(idx, Histogram::kBuckets) << "v=" << v;
    EXPECT_LE(v, Histogram::bucket_upper(idx)) << "v=" << v;
    if (idx > 0) {
      EXPECT_GE(v, Histogram::bucket_upper(idx - 1)) << "v=" << v;
    }
  }
  // Underflow and overflow land in the sentinel buckets.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-1.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(hi), Histogram::kBuckets - 1);
  EXPECT_TRUE(std::isinf(Histogram::bucket_upper(Histogram::kBuckets - 1)));
  // Upper bounds are strictly ascending across the whole grid.
  for (std::size_t i = 1; i < Histogram::kBuckets; ++i)
    EXPECT_GT(Histogram::bucket_upper(i), Histogram::bucket_upper(i - 1));
}

TEST(MetricsHistogram, PercentilesTrackSortedReference) {
  // The percentile contract: within one bucket width (12.5% relative)
  // above the true order statistic, never below it, and p100 == exact max.
  Histogram h;
  Rng rng(42);
  std::vector<double> vals;
  for (int i = 0; i < 5000; ++i) {
    const double v = 0.05 + 40.0 * rng.next_double();
    vals.push_back(v);
    h.observe(v);
  }
  std::sort(vals.begin(), vals.end());
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.count, vals.size());
  EXPECT_DOUBLE_EQ(s.min, vals.front());
  EXPECT_DOUBLE_EQ(s.max, vals.back());
  EXPECT_DOUBLE_EQ(s.percentile(1.0), vals.back());
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(vals.size())));
    const double truth = vals[rank - 1];
    const double est = s.percentile(q);
    EXPECT_GE(est, truth) << "q=" << q;
    EXPECT_LE(est, truth * (1.0 + 1.0 / Histogram::kSubBuckets) + 1e-12)
        << "q=" << q;
  }
  // Empty histogram: percentiles are 0.
  EXPECT_DOUBLE_EQ(Histogram().snapshot().percentile(0.5), 0.0);
}

TEST(MetricsHistogram, MergeOfShardsMatchesSingleThreaded) {
  // The same observations fed from many threads (spread across shards)
  // must aggregate to the same snapshot a single thread produces.
  const std::size_t kThreads = 8;
  std::vector<std::vector<double>> per_thread(kThreads);
  Rng rng(7);
  for (std::size_t t = 0; t < kThreads; ++t)
    for (int i = 0; i < 2000; ++i)
      per_thread[t].push_back(0.01 + 10.0 * rng.next_double());

  Histogram solo;
  for (const auto& vs : per_thread)
    for (double v : vs) solo.observe(v);

  Histogram sharded;
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < kThreads; ++t)
    ts.emplace_back([&sharded, &per_thread, t] {
      for (double v : per_thread[t]) sharded.observe(v);
    });
  for (auto& t : ts) t.join();

  const HistogramSnapshot a = solo.snapshot();
  const HistogramSnapshot b = sharded.snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  EXPECT_NEAR(a.sum, b.sum, 1e-9 * std::abs(a.sum));
  ASSERT_EQ(a.buckets.size(), b.buckets.size());
  for (std::size_t i = 0; i < a.buckets.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.buckets[i].first, b.buckets[i].first);
    EXPECT_EQ(a.buckets[i].second, b.buckets[i].second);
  }
}

TEST(MetricsHistogram, HammerLosesNoObservations) {
  Histogram h;
  constexpr std::size_t kThreads = 10;
  constexpr u64 kIters = 5000;
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < kThreads; ++t)
    ts.emplace_back([&h, t] {
      for (u64 i = 0; i < kIters; ++i)
        h.observe(0.1 + static_cast<double>((t * kIters + i) % 97));
    });
  for (auto& t : ts) t.join();
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * kIters);
  u64 bucket_total = 0;
  for (const auto& [le, n] : s.buckets) bucket_total += n;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(MetricsRegistry, HandlesAreStableAndKindChecked) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("cusfft_test_total");
  Counter& c2 = reg.counter("cusfft_test_total");
  EXPECT_EQ(&c1, &c2);
  c1.add(5);
  EXPECT_EQ(c2.value(), 5u);
  EXPECT_THROW(reg.gauge("cusfft_test_total"), std::logic_error);
  EXPECT_THROW(reg.histogram("cusfft_test_total"), std::logic_error);
}

TEST(MetricsRegistry, LabelMergesIntoExistingSet) {
  EXPECT_EQ(MetricsRegistry::label("m", "device", "3"), "m{device=\"3\"}");
  EXPECT_EQ(MetricsRegistry::label("m{device=\"3\"}", "phase", "fft"),
            "m{device=\"3\",phase=\"fft\"}");
}

TEST(MetricsRegistry, ResetZeroesButKeepsHandles) {
  MetricsRegistry reg;
  Counter& c = reg.counter("cusfft_reset_total");
  Gauge& g = reg.gauge("cusfft_reset_gauge");
  Histogram& h = reg.histogram("cusfft_reset_ms");
  c.add(9);
  g.set(4.5);
  h.observe(1.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.snapshot().count, 0u);
  c.inc();  // the handle survives the reset
  EXPECT_EQ(reg.snapshot().counters.at("cusfft_reset_total"), 1u);
}

TEST(MetricsRegistry, CollectorCountersRebaselineOnReset) {
  // A pull collector reporting an ever-growing external total must expose
  // deltas relative to the last reset().
  MetricsRegistry reg;
  u64 external = 100;
  reg.add_collector([&external](MetricsRegistry::Snapshot& s) {
    s.counters["cusfft_external_total"] = external;
  });
  EXPECT_EQ(reg.snapshot().counters.at("cusfft_external_total"), 100u);
  reg.reset();
  EXPECT_EQ(reg.snapshot().counters.at("cusfft_external_total"), 0u);
  external += 7;
  EXPECT_EQ(reg.snapshot().counters.at("cusfft_external_total"), 7u);
}

TEST(MetricsExposition, JsonAndPrometheusPassMetricsCheck) {
  // Validate both formats with the exact checker CI runs on bench
  // artifacts — one snapshot, both renderings, so they must agree.
  MetricsRegistry reg;
  reg.counter("cusfft_a_total").add(3);
  reg.counter(MetricsRegistry::label("cusfft_b_total", "device", "0"))
      .add(11);
  reg.gauge("cusfft_util").set(0.75);
  Histogram& h = reg.histogram(
      MetricsRegistry::label("cusfft_lat_ms", "device", "0"));
  for (int i = 1; i <= 200; ++i) h.observe(0.01 * i);
  reg.histogram("cusfft_empty_ms");  // zero-count histogram must be valid

  const MetricsRegistry::Snapshot snap = reg.snapshot();
  const std::string js = snap.to_json();
  const std::string prom = snap.to_prometheus();

  const auto jr = tools::check_metrics_json(js);
  EXPECT_TRUE(jr.ok) << (jr.errors.empty() ? "" : jr.errors.front());
  EXPECT_EQ(jr.counters, 2u);
  EXPECT_EQ(jr.gauges, 1u);
  EXPECT_EQ(jr.histograms, 2u);

  const auto pr = tools::check_metrics_prometheus(js, prom);
  EXPECT_TRUE(pr.ok) << (pr.errors.empty() ? "" : pr.errors.front());

  // Identical state renders byte-identically (determinism contract).
  EXPECT_EQ(js, reg.expose_json());
  EXPECT_EQ(prom, reg.expose_text());

  // A later snapshot is monotonic vs the earlier one.
  reg.counter("cusfft_a_total").add(2);
  h.observe(5.0);
  const auto mr = tools::check_metrics_monotonic(js, reg.expose_json());
  EXPECT_TRUE(mr.ok) << (mr.errors.empty() ? "" : mr.errors.front());
  // And the reverse direction must fail (counters went backwards).
  EXPECT_FALSE(tools::check_metrics_monotonic(reg.expose_json(), js).ok);
}

cvec metrics_signal(std::size_t n, std::size_t k, u64 seed) {
  Rng rng(seed);
  return signal::make_sparse_signal(n, k, rng).x;
}

TEST(MetricsAdapters, ExecuteAdvancesGlobalCounters) {
  // execute() publishes even when the caller passes no stats out-param.
  sfft::Params p;
  p.n = 1 << 12;
  p.k = 8;
  p.seed = 3;
  const cvec x = metrics_signal(p.n, p.k, 5);

  auto& reg = MetricsRegistry::global();
  const auto before = reg.snapshot();
  const auto cnt = [](const MetricsRegistry::Snapshot& s,
                      const std::string& name) {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? u64{0} : it->second;
  };
  {
    cusim::Device dev;
    gpu::GpuPlan plan(dev, p, gpu::Options::optimized());
    plan.execute(x);
  }
  const auto after = reg.snapshot();
  EXPECT_EQ(cnt(after, "cusfft_batches_total"),
            cnt(before, "cusfft_batches_total") + 1);
  EXPECT_GE(cnt(after, "cusfft_graph_records_total"),
            cnt(before, "cusfft_graph_records_total"));
  const auto& hists = after.histograms;
  ASSERT_TRUE(hists.count("cusfft_batch_model_ms"));
  EXPECT_GT(hists.at("cusfft_batch_model_ms").count, 0u);
  ASSERT_TRUE(hists.count("cusfft_signal_latency_ms{device=\"0\"}"));
}

TEST(Metrics, SingleExecuteIsABatchOfOne) {
  // One execute publishes as a one-signal batch: each batch family moves
  // by exactly one, and no execute-only family exists.
  sfft::Params p;
  p.n = 1 << 12;
  p.k = 8;
  p.seed = 4;
  const cvec x = metrics_signal(p.n, p.k, 6);
  const std::string algo_signals = MetricsRegistry::label(
      "cusfft_algo_signals_total", "algo", sfft::to_string(p.algo));
  const std::string latency = "cusfft_signal_latency_ms{device=\"0\"}";

  auto& reg = MetricsRegistry::global();
  const auto before = reg.snapshot();
  {
    cusim::Device dev;
    gpu::GpuPlan plan(dev, p, gpu::Options::optimized());
    plan.execute(x);
  }
  const auto after = reg.snapshot();
  const auto cnt = [](const MetricsRegistry::Snapshot& s,
                      const std::string& name) {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? u64{0} : it->second;
  };
  const auto observations = [](const MetricsRegistry::Snapshot& s,
                               const std::string& name) {
    const auto it = s.histograms.find(name);
    return it == s.histograms.end() ? u64{0} : it->second.count;
  };
  for (const std::string& name :
       {std::string("cusfft_batches_total"),
        std::string("cusfft_signals_total"), algo_signals})
    EXPECT_EQ(cnt(after, name), cnt(before, name) + 1) << name;
  EXPECT_EQ(observations(after, latency), observations(before, latency) + 1);
  const auto execute_only = [](const std::string& name) {
    return name.rfind("cusfft_execute", 0) == 0 ||
           name.rfind("cusfft_algo_execute", 0) == 0;
  };
  for (const auto& [name, v] : after.counters)
    EXPECT_FALSE(execute_only(name)) << name;
  for (const auto& [name, h] : after.histograms)
    EXPECT_FALSE(execute_only(name)) << name;
}

TEST(MetricsAdapters, FleetPublishesPerDeviceOnce) {
  // execute_mixed publishes exactly one latency observation per signal,
  // attributed to the assigned device — no double count from the
  // shard-level run_batch.
  sfft::Params p;
  p.n = 1 << 12;
  p.k = 8;
  p.seed = 9;
  constexpr std::size_t kBatch = 6;
  std::vector<cvec> xs;
  std::vector<gpu::MixedSignal> sig;
  for (std::size_t i = 0; i < kBatch; ++i)
    xs.push_back(metrics_signal(p.n, p.k, 50 + i));
  for (const cvec& x : xs) sig.push_back({std::span<const cplx>(x), p});

  auto& reg = MetricsRegistry::global();
  const auto before = reg.snapshot();
  cusim::DeviceGroup group(2);
  gpu::MultiGpuPlan mplan(group, p, gpu::Options::optimized());
  gpu::GpuFleetStats fs;
  mplan.execute_mixed(sig, &fs);
  const auto after = reg.snapshot();

  const auto cnt = [](const MetricsRegistry::Snapshot& s,
                      const std::string& name) {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? u64{0} : it->second;
  };
  EXPECT_EQ(cnt(after, "cusfft_fleet_batches_total"),
            cnt(before, "cusfft_fleet_batches_total") + 1);
  u64 latency_delta = 0;
  for (std::size_t d = 0; d < 2; ++d) {
    const std::string name =
        MetricsRegistry::label("cusfft_signal_latency_ms", "device",
                               std::to_string(d));
    const u64 b = before.histograms.count(name)
                      ? before.histograms.at(name).count
                      : 0;
    ASSERT_TRUE(after.histograms.count(name)) << name;
    latency_delta += after.histograms.at(name).count - b;
    EXPECT_GE(after.gauges.count(MetricsRegistry::label(
                  "cusfft_device_utilization", "device", std::to_string(d))),
              1u);
  }
  EXPECT_EQ(latency_delta, kBatch);
  // The full global exposition stays checker-clean after real traffic.
  const auto jr = tools::check_metrics_json(reg.expose_json());
  EXPECT_TRUE(jr.ok) << (jr.errors.empty() ? "" : jr.errors.front());
  const auto pr = tools::check_metrics_prometheus(reg.expose_json(),
                                                  reg.expose_text());
  EXPECT_TRUE(pr.ok) << (pr.errors.empty() ? "" : pr.errors.front());
}

TEST(MetricsCheckLib, RejectsCorruptDocuments) {
  EXPECT_FALSE(tools::check_metrics_json("not json").ok);
  EXPECT_FALSE(tools::check_metrics_json("{\"schema\": \"wrong\"}").ok);
  // A histogram whose buckets disagree with its count must fail.
  const std::string bad =
      "{\"schema\": \"cusfft-metrics-v1\", \"counters\": {}, \"gauges\": "
      "{}, \"histograms\": {\"h\": {\"count\": 5, \"sum\": 1, \"min\": 1, "
      "\"max\": 1, \"p50\": 1, \"p95\": 1, \"p99\": 1, \"buckets\": "
      "[{\"le\": 2, \"count\": 2}]}}}";
  const auto r = tools::check_metrics_json(bad);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.errors.front().find("sum to 2"), std::string::npos);
}

}  // namespace
}  // namespace cusfft
