// Serving-tier contract (cusfft/server.hpp) under the deterministic
// harness (serve_harness.hpp):
//   1. config: CUSFFT_SERVE_* knobs are strict (malformed values throw a
//      typed error naming the variable) and unlatched (re-read on every
//      from_env call); validate() rejects degenerate configs;
//   2. batching never changes results: every completed request's spectrum
//      is bit-identical to a single-device GpuPlan::execute of the same
//      params and samples;
//   3. batch-close policy: size trigger, SLO wait windows with
//      latency-class preemption, deadline sheds at batch formation, and
//      per-tenant admission rejection — each pinned by a hand-computed
//      golden decision trace;
//   4. determinism: the same (trace, config, seed) reproduces the
//      schedule and decision traces and all stats bit-identically;
//   5. batched serving sustains higher QPS than per-request execution on
//      the same trace;
//   6. the cusfft_serve_* metrics stay monotonic and internally
//      consistent (validated with the same metrics_check_lib CI uses).
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cusfft/plan.hpp"
#include "cusim/device.hpp"
#include "cusim/metrics.hpp"
#include "metrics_check_lib.hpp"
#include "serve_harness.hpp"

namespace cusfft {
namespace {

using serve::Outcome;
using serve::ServerConfig;
using serve::SloClass;
using serve::Trace;
using serve_test::ev;
using serve_test::run_trace;
using serve_test::scripted_trace;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Pin the pool width before anything touches ThreadPool::global() so
// batches run on several lanes even on single-core CI runners.
const int kEnvGuard = [] {
  setenv("CUSFFT_THREADS", "4", /*overwrite=*/0);
  return 0;
}();

/// Restores a CUSFFT_SERVE_* variable to unset on scope exit.
struct EnvVar {
  const char* name;
  explicit EnvVar(const char* n) : name(n) {}
  void set(const char* v) { setenv(name, v, /*overwrite=*/1); }
  ~EnvVar() { unsetenv(name); }
};

ServerConfig small_config() {
  ServerConfig cfg;
  cfg.devices = 1;
  cfg.max_batch = 8;
  return cfg;
}

// ---- configuration ----------------------------------------------------

TEST(ServeConfig, FromEnvIsUnlatched) {
  EnvVar batch("CUSFFT_SERVE_MAX_BATCH");
  EXPECT_EQ(ServerConfig::from_env().max_batch, ServerConfig{}.max_batch);
  batch.set("5");
  EXPECT_EQ(ServerConfig::from_env().max_batch, 5u);
  batch.set("6");  // re-read, not latched by the previous call
  EXPECT_EQ(ServerConfig::from_env().max_batch, 6u);
}

TEST(ServeConfig, FromEnvReadsEveryKnob) {
  EnvVar dev("CUSFFT_SERVE_DEVICES"), batch("CUSFFT_SERVE_MAX_BATCH"),
      wait("CUSFFT_SERVE_MAX_WAIT_MS"), lat("CUSFFT_SERVE_MAX_WAIT_LAT_MS"),
      depth("CUSFFT_SERVE_QUEUE_DEPTH");
  dev.set("3");
  batch.set("4");
  wait.set("2.5");
  lat.set("0.25");
  depth.set("7");
  const ServerConfig cfg = ServerConfig::from_env();
  EXPECT_EQ(cfg.devices, 3u);
  EXPECT_EQ(cfg.max_batch, 4u);
  EXPECT_DOUBLE_EQ(cfg.max_wait_throughput_ms, 2.5);
  EXPECT_DOUBLE_EQ(cfg.max_wait_latency_ms, 0.25);
  EXPECT_EQ(cfg.tenant_queue_depth, 7u);
}

TEST(ServeConfig, MalformedEnvThrowsNamingTheVariable) {
  const char* size_knobs[] = {"CUSFFT_SERVE_DEVICES",
                              "CUSFFT_SERVE_MAX_BATCH",
                              "CUSFFT_SERVE_QUEUE_DEPTH"};
  for (const char* name : size_knobs) {
    EnvVar v(name);
    v.set("");  // empty keeps the default, like unset
    EXPECT_NO_THROW(ServerConfig::from_env());
    for (const char* bad : {"abc", "-3", "1.5"}) {
      v.set(bad);
      try {
        ServerConfig::from_env();
        FAIL() << name << "=" << bad << " accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos);
      }
    }
  }
  const char* ms_knobs[] = {"CUSFFT_SERVE_MAX_WAIT_MS",
                            "CUSFFT_SERVE_MAX_WAIT_LAT_MS"};
  for (const char* name : ms_knobs) {
    EnvVar v(name);
    for (const char* bad : {"junk", "-1", "inf", "1ms"}) {
      v.set(bad);
      try {
        ServerConfig::from_env();
        FAIL() << name << "=" << bad << " accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos);
      }
    }
  }
}

TEST(ServeConfig, ValidateRejectsDegenerateConfigs) {
  ServerConfig cfg;
  cfg.devices = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ServerConfig{};
  cfg.max_batch = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ServerConfig{};
  cfg.tenant_queue_depth = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ServerConfig{};
  cfg.max_wait_throughput_ms = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ServerConfig{};
  cfg.max_wait_latency_ms = kInf;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW({ serve::Server s(cfg); }, std::invalid_argument);
}

TEST(ServeConfig, ZeroEnvValueFailsValidation) {
  EnvVar batch("CUSFFT_SERVE_MAX_BATCH");
  batch.set("0");
  EXPECT_THROW(ServerConfig::from_env(), std::invalid_argument);
}

// ---- batching preserves results ---------------------------------------

void expect_spectrum_matches_single_plan(const serve::Response& r,
                                         const serve::TraceEvent& e,
                                         std::size_t index, u64 seed,
                                         const ServerConfig& cfg) {
  cusim::Device dev;
  gpu::GpuPlan plan(dev, serve::trace_params(e, seed), cfg.opts);
  const SparseSpectrum want = plan.execute(serve::trace_signal(e, seed, index));
  ASSERT_EQ(r.spectrum.size(), want.size()) << "request " << r.id;
  for (std::size_t j = 0; j < want.size(); ++j) {
    EXPECT_EQ(r.spectrum[j].loc, want[j].loc) << "request " << r.id;
    EXPECT_EQ(r.spectrum[j].val, want[j].val) << "request " << r.id;
  }
}

TEST(ServeCorrectness, SingleRequestMatchesSinglePlanExecute) {
  Trace tr;
  tr.events.push_back(ev(0.0, "a", 1 << 10, 8, SloClass::kThroughput));
  const ServerConfig cfg = small_config();
  const auto r = run_trace(cfg, tr, /*seed=*/77);
  ASSERT_EQ(r.ids.size(), 1u);
  const serve::Response& resp = r.responses.at(r.ids[0]);
  ASSERT_EQ(resp.outcome, Outcome::kCompleted);
  EXPECT_EQ(resp.batch_seq, 0u);
  expect_spectrum_matches_single_plan(resp, tr.events[0], 0, 77, cfg);
}

TEST(ServeCorrectness, BatchedSpectraMatchSinglePlanAcrossShapes) {
  // Mixed shapes and tenants through shared batches: whatever batch a
  // request lands in, its spectrum must equal the standalone execute.
  const Trace tr = scripted_trace(/*events=*/24, /*tenants=*/3,
                                  /*n=*/1 << 9, /*k=*/8, /*seed=*/1234);
  ServerConfig cfg = small_config();
  cfg.devices = 2;
  cfg.max_batch = 4;
  const auto r = run_trace(cfg, tr, /*seed=*/1234);
  std::size_t completed = 0;
  for (std::size_t i = 0; i < r.ids.size(); ++i) {
    const serve::Response& resp = r.responses.at(r.ids[i]);
    if (resp.outcome != Outcome::kCompleted) continue;
    ++completed;
    expect_spectrum_matches_single_plan(resp, tr.events[i], i, 1234, cfg);
  }
  EXPECT_GT(completed, 0u);
  EXPECT_EQ(completed, r.stats.completed);
}

// ---- batch-close policy (golden decision traces) ----------------------

TEST(ServePolicy, SizeTriggerClosesAtMaxBatch) {
  ServerConfig cfg = small_config();
  cfg.max_batch = 3;
  cfg.max_wait_latency_ms = 1.0;
  cfg.max_wait_throughput_ms = 10.0;
  Trace tr;
  tr.events.push_back(ev(0.0, "a", 256, 4, SloClass::kThroughput));
  tr.events.push_back(ev(0.2, "a", 256, 4, SloClass::kThroughput));
  tr.events.push_back(ev(0.5, "b", 256, 4, SloClass::kLatency));
  tr.events.push_back(ev(5.0, "b", 256, 4, SloClass::kThroughput));
  const auto r = run_trace(cfg, tr, 1);
  EXPECT_EQ(r.decisions,
            "close reason=size ids=[1,2,3] shed=[]\n"
            "close reason=drain ids=[4] shed=[]\n");
  EXPECT_EQ(r.stats.batches, 2u);
  EXPECT_EQ(r.stats.completed, 4u);
}

TEST(ServePolicy, LatencyClassPreemptsThroughputWaitWindow) {
  ServerConfig cfg = small_config();
  cfg.max_wait_latency_ms = 1.0;
  cfg.max_wait_throughput_ms = 10.0;
  serve::Server s(cfg);
  serve::Request thr;
  thr.tenant = "a";
  thr.params = serve::trace_params(ev(0, "a", 256, 4, SloClass::kThroughput), 1);
  thr.x = serve::trace_signal(ev(0, "a", 256, 4, SloClass::kThroughput), 1, 0);
  const u64 id1 = s.submit_at(0.0, thr);
  serve::Request lat = thr;
  lat.slo = SloClass::kLatency;
  const u64 id2 = s.submit_at(0.3, std::move(lat));
  // Alone, the throughput request would wait until t=10; the latency
  // arrival at t=0.3 caps the close at 0.3 + 1.0 = 1.3.
  s.advance(1.2);
  EXPECT_FALSE(s.done(id1));
  EXPECT_FALSE(s.done(id2));
  s.advance(1.35);
  EXPECT_TRUE(s.done(id1));
  EXPECT_TRUE(s.done(id2));
  EXPECT_EQ(s.decision_trace(), "close reason=wait ids=[1,2] shed=[]\n");
  EXPECT_EQ(s.response(id2).outcome, Outcome::kCompleted);
  // Both rode the same batch: the latency request preempted, not queued
  // behind, the throughput window.
  EXPECT_EQ(s.response(id1).batch_seq, s.response(id2).batch_seq);
}

TEST(ServePolicy, ExpiredDeadlineShedsAtBatchFormation) {
  ServerConfig cfg = small_config();
  cfg.max_wait_throughput_ms = 5.0;
  serve::Server s(cfg);
  auto req = [&](double deadline) {
    serve::Request r;
    r.tenant = "a";
    r.params = serve::trace_params(ev(0, "a", 256, 4, SloClass::kThroughput), 1);
    r.x = serve::trace_signal(ev(0, "a", 256, 4, SloClass::kThroughput), 1, 0);
    r.deadline_ms = deadline;
    return r;
  };
  const u64 id1 = s.submit_at(0.0, req(kInf));
  const u64 id2 = s.submit_at(0.1, req(0.5));  // expires at t=0.6 < close t=5
  s.advance(6.0);  // wait window elapses; the batch forms after expiry
  EXPECT_EQ(s.decision_trace(), "close reason=wait ids=[1] shed=[2]\n");
  const serve::Response shed = s.response(id2);
  EXPECT_EQ(shed.outcome, Outcome::kShed);
  EXPECT_EQ(shed.batch_seq, static_cast<std::size_t>(-1));
  EXPECT_TRUE(shed.spectrum.empty());
  EXPECT_EQ(s.response(id1).outcome, Outcome::kCompleted);
  EXPECT_EQ(s.stats().completed, 1u);
  EXPECT_EQ(s.stats().shed, 1u);
}

TEST(ServePolicy, TenantQuotaRejectsAndReleases) {
  ServerConfig cfg = small_config();
  cfg.tenant_queue_depth = 1;
  serve::Server s(cfg);
  auto req = [&] {
    serve::Request r;
    r.tenant = "a";
    r.params = serve::trace_params(ev(0, "a", 256, 4, SloClass::kThroughput), 1);
    r.x = serve::trace_signal(ev(0, "a", 256, 4, SloClass::kThroughput), 1, 0);
    return r;
  };
  const u64 id1 = s.submit_at(0.0, req());
  const u64 id2 = s.submit_at(0.0, req());  // over quota: typed rejection
  EXPECT_EQ(s.response(id2).outcome, Outcome::kRejected);
  EXPECT_FALSE(s.done(id1));  // the admitted request is unaffected
  s.drain();
  EXPECT_EQ(s.response(id1).outcome, Outcome::kCompleted);
  // The launch released the quota: the tenant can submit again.
  const u64 id3 = s.submit_at(1.0, req());
  s.drain();
  EXPECT_EQ(s.response(id3).outcome, Outcome::kCompleted);
  EXPECT_EQ(s.decision_trace(),
            "reject id=2 tenant=a\n"
            "close reason=drain ids=[1] shed=[]\n"
            "close reason=drain ids=[3] shed=[]\n");
}

TEST(ServePolicy, MalformedRequestThrowsInsteadOfRejecting) {
  serve::Server s(small_config());
  serve::Request r;
  r.tenant = "a";
  r.params = serve::trace_params(ev(0, "a", 256, 4, SloClass::kThroughput), 1);
  r.x.resize(100);  // != params.n
  EXPECT_THROW(s.submit_at(0.0, std::move(r)), std::invalid_argument);
  EXPECT_EQ(s.stats().submitted, 0u);
}

// ---- determinism -------------------------------------------------------

TEST(ServeDeterminism, ReplayIsBitReproducible) {
  const Trace tr = scripted_trace(/*events=*/40, /*tenants=*/4,
                                  /*n=*/256, /*k=*/4, /*seed=*/99);
  ServerConfig cfg = small_config();
  cfg.devices = 2;
  cfg.max_batch = 4;
  cfg.tenant_queue_depth = 2;
  const auto a = run_trace(cfg, tr, 99);
  const auto b = run_trace(cfg, tr, 99);
  // Identical batch composition, shed/reject decisions, and modeled
  // per-request latencies — the schedule trace embeds all of them.
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.shed, b.stats.shed);
  EXPECT_EQ(a.stats.rejected, b.stats.rejected);
  EXPECT_EQ(a.stats.batches, b.stats.batches);
  EXPECT_EQ(a.stats.sustained_qps, b.stats.sustained_qps);
  EXPECT_EQ(a.stats.latency.p99_ms, b.stats.latency.p99_ms);
  EXPECT_EQ(a.stats.throughput.p99_ms, b.stats.throughput.p99_ms);
  // The trace exercised more than the happy path.
  EXPECT_GT(a.stats.batches, 1u);
  EXPECT_GT(a.stats.completed, 0u);
}

TEST(ServeDeterminism, CannedTraceCoversAllThreeOutcomes) {
  ServerConfig cfg = small_config();
  cfg.tenant_queue_depth = 4;  // the bench's quota: charlie bursts overflow
  const Trace tr = serve::canned_trace(1 << 10, 16, /*seed=*/20160523);
  const auto r = run_trace(cfg, tr, 20160523);
  EXPECT_EQ(r.stats.submitted, tr.events.size());
  EXPECT_GT(r.stats.completed, 0u);
  EXPECT_GT(r.stats.shed, 0u);
  EXPECT_GT(r.stats.rejected, 0u);
  EXPECT_EQ(r.stats.completed + r.stats.shed + r.stats.rejected,
            r.stats.submitted);
}

TEST(ServeDeterminism, TraceTextRoundTrips) {
  const Trace tr = serve::canned_trace(1 << 10, 16, 7);
  const Trace back = Trace::parse(tr.to_text());
  ASSERT_EQ(back.events.size(), tr.events.size());
  EXPECT_EQ(back.to_text(), tr.to_text());
  EXPECT_THROW(Trace::parse("0.0,a,256,4,latency\n"), std::invalid_argument);
  EXPECT_THROW(Trace::parse("1.0,a,256,4,latency,inf\n"
                            "0.5,a,256,4,latency,inf\n"),
               std::invalid_argument);  // out-of-order arrivals
  EXPECT_THROW(Trace::parse("0.0,a,256,4,express,inf\n"),
               std::invalid_argument);  // unknown SLO class
}

// ---- throughput --------------------------------------------------------

TEST(ServeThroughput, BatchedBeatsPerRequestQps) {
  const Trace tr = serve::canned_trace(1 << 10, 16, /*seed=*/42);
  ServerConfig cfg = small_config();
  cfg.devices = 2;
  const auto batched = run_trace(cfg, tr, 42);
  ServerConfig single = cfg;
  single.max_batch = 1;
  single.max_wait_latency_ms = 0;
  single.max_wait_throughput_ms = 0;
  const auto solo = run_trace(single, tr, 42);
  EXPECT_GT(batched.stats.sustained_qps, solo.stats.sustained_qps);
  EXPECT_LT(batched.stats.batches, solo.stats.batches);
}

// ---- metrics -----------------------------------------------------------

TEST(ServeMetrics, PublishesConsistentMonotonicInstruments) {
  auto& reg = cusim::MetricsRegistry::global();
  reg.reset();
  ServerConfig cfg = small_config();
  cfg.tenant_queue_depth = 4;
  const Trace tr = serve::canned_trace(1 << 10, 16, 5);
  const auto r1 = run_trace(cfg, tr, 5);
  const std::string snap1 = reg.expose_json();
  const auto r2 = run_trace(cfg, tr, 5);
  r2.stats.to_metrics(reg);
  const std::string snap2 = reg.expose_json();

  const auto serve_ok = tools::check_serve_metrics(snap2);
  EXPECT_TRUE(serve_ok.ok) << (serve_ok.errors.empty()
                                   ? ""
                                   : serve_ok.errors.front());
  const auto mono = tools::check_metrics_monotonic(snap1, snap2);
  EXPECT_TRUE(mono.ok) << (mono.errors.empty() ? "" : mono.errors.front());
  // Gauges published by to_metrics.
  const auto snap = reg.snapshot();
  EXPECT_GT(snap.gauges.at("cusfft_serve_qps"), 0.0);
  EXPECT_GT(snap.gauges.at("cusfft_serve_queue_depth_max"), 0.0);
  // Counters reflect both drained replays.
  EXPECT_EQ(snap.counters.at("cusfft_serve_completed_total"),
            r1.stats.completed + r2.stats.completed);
}

}  // namespace
}  // namespace cusfft
