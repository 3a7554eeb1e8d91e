// Tests for the capture observability subsystem (cusim/profiler.hpp):
// chrome-trace export well-formedness, per-stream track invariants, phase
// spans vs per-signal stats agreement, allocation telemetry in profiles and
// in report_table(), and serialization determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "core/json_lite.hpp"
#include "core/rng.hpp"
#include "cusfft/plan.hpp"
#include "cusim/device.hpp"
#include "cusim/pool.hpp"
#include "cusim/profiler.hpp"
#include "cusim/report.hpp"
#include "signal/generate.hpp"

namespace cusfft {
namespace {

using cusim::CaptureProfile;
using cusim::Device;
using cusim::PhaseSpan;
using cusim::StreamId;

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

/// One optimized-backend execute; returns the device's capture profile and
/// (optionally) the one-signal batch's stats.
CaptureProfile profiled_execute(Device& dev, gpu::GpuPlan& plan,
                                const cvec& x,
                                gpu::GpuBatchStats* stats = nullptr) {
  plan.execute(x, stats);
  return dev.end_capture();
}

TEST(CaptureProfile, BasicShape) {
  const auto p = small_params();
  Device dev;
  gpu::GpuPlan plan(dev, p, gpu::Options::optimized());
  const CaptureProfile prof =
      profiled_execute(dev, plan, test_signal(p.n, p.k, 3));

  EXPECT_EQ(prof.device, dev.spec().name);
  EXPECT_GT(prof.model_ms, 0.0);
  EXPECT_EQ(prof.max_concurrent_kernels, dev.spec().max_concurrent_kernels);
  EXPECT_GT(prof.occupancy_frac, 0.0);
  EXPECT_LE(prof.occupancy_frac, 1.0);
  EXPECT_FALSE(prof.spans.empty());
  ASSERT_EQ(prof.phases.size(), 4u);  // one execute = four phases
  EXPECT_FALSE(prof.kernels.empty());
  EXPECT_TRUE(std::is_sorted(prof.kernels.begin(), prof.kernels.end(),
                             [](const auto& a, const auto& b) {
                               return a.name < b.name;
                             }));
  for (const auto& k : prof.kernels) {
    EXPECT_GE(k.coalesced_frac, 0.0);
    EXPECT_LE(k.coalesced_frac, 1.0);
    EXPECT_GE(k.achieved_bw_frac, 0.0);
  }
  // Every span lies inside the makespan and has non-negative duration.
  for (const auto& s : prof.spans) {
    EXPECT_GE(s.start_ms, 0.0);
    EXPECT_LE(s.end_ms, prof.model_ms * (1 + 1e-12));
    EXPECT_LE(s.start_ms, s.end_ms);
  }
}

TEST(CaptureProfile, PhaseSpansMatchExecStats) {
  const auto p = small_params();
  Device dev;
  gpu::GpuPlan plan(dev, p, gpu::Options::optimized());
  gpu::GpuBatchStats stats;
  const CaptureProfile prof =
      profiled_execute(dev, plan, test_signal(p.n, p.k, 3), &stats);

  ASSERT_EQ(stats.per_signal.size(), 1u);
  const auto& spans = stats.per_signal[0].phase_span_ms;
  ASSERT_EQ(prof.phases.size(), spans.size());
  double total = 0;
  for (const auto& ph : prof.phases) {
    ASSERT_TRUE(spans.count(ph.name)) << ph.name;
    EXPECT_NEAR(ph.span_ms(), spans.at(ph.name),
                1e-9 * std::max(1.0, prof.model_ms))
        << ph.name;
    total += ph.span_ms();
  }
  // Phases tile the capture: first starts at 0, spans sum to the makespan.
  EXPECT_NEAR(prof.phases.front().start_ms, 0.0, 1e-12);
  EXPECT_NEAR(total, prof.model_ms, 1e-9 * std::max(1.0, prof.model_ms));
}

TEST(CaptureProfile, ChromeTraceParsesAndTracksAreSane) {
  const auto p = small_params();
  Device dev;
  gpu::GpuPlan plan(dev, p, gpu::Options::optimized());
  const CaptureProfile prof =
      profiled_execute(dev, plan, test_signal(p.n, p.k, 5));

  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(prof.chrome_trace_json(), doc, &err)) << err;
  ASSERT_TRUE(doc.is_object());

  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Collect duration events per track; kernels on one stream are FIFO, so
  // a stream's track must never self-overlap, and the number of kernels in
  // flight at any instant stays within the modeled 32-kernel window.
  struct Ev {
    double ts, dur;
  };
  std::map<double, std::vector<Ev>> kernel_tracks;
  std::vector<std::pair<double, int>> edges;
  std::size_t phase_events = 0;
  for (const json::Value& e : events->array) {
    ASSERT_TRUE(e.is_object());
    const std::string ph = e.string_or("ph", "");
    if (ph == "M") continue;
    ASSERT_EQ(ph, "X");
    const double ts = e.number_or("ts", -1);
    const double dur = e.number_or("dur", -1);
    ASSERT_GE(ts, 0.0);
    ASSERT_GE(dur, 0.0);
    const std::string cat = e.string_or("cat", "");
    if (cat == "phase") ++phase_events;
    if (cat == "kernel") {
      kernel_tracks[e.number_or("tid", -1)].push_back({ts, dur});
      // 1 ns grid: %.12g serializes ts and dur separately, so a handoff
      // end (ts+dur) can land ~1e-5 us past its successor's start.
      edges.emplace_back(std::round(ts * 1e3) / 1e3, +1);
      edges.emplace_back(std::round((ts + dur) * 1e3) / 1e3, -1);
    }
  }
  EXPECT_EQ(phase_events, prof.phases.size());
  ASSERT_FALSE(kernel_tracks.empty());
  for (auto& [tid, evs] : kernel_tracks) {
    std::sort(evs.begin(), evs.end(),
              [](const Ev& a, const Ev& b) { return a.ts < b.ts; });
    for (std::size_t i = 1; i < evs.size(); ++i)
      EXPECT_GE(evs[i].ts, evs[i - 1].ts + evs[i - 1].dur - 1e-3)
          << "overlap on track " << tid;
  }
  std::sort(edges.begin(), edges.end());
  int running = 0, peak = 0;
  for (const auto& [t, d] : edges) {
    running += d;
    peak = std::max(peak, running);
  }
  EXPECT_LE(peak, static_cast<int>(prof.max_concurrent_kernels));
  EXPECT_GT(peak, 0);

  // The structured profile rides along under the "profile" key and its
  // phase spans agree with the trace's.
  const json::Value* sp = doc.find("profile");
  ASSERT_NE(sp, nullptr);
  ASSERT_TRUE(sp->is_object());
  EXPECT_NEAR(sp->number_or("model_ms", -1), prof.model_ms, 1e-9);
  const json::Value* phases = sp->find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->array.size(), prof.phases.size());
  for (std::size_t i = 0; i < prof.phases.size(); ++i) {
    EXPECT_EQ(phases->array[i].string_or("name", ""), prof.phases[i].name);
    EXPECT_NEAR(phases->array[i].number_or("span_ms", -1),
                prof.phases[i].span_ms(), 1e-9);
  }
}

TEST(CaptureProfile, WarmRepeatedExecuteAllocatesNothing) {
  const auto p = small_params();
  const cvec x = test_signal(p.n, p.k, 11);
  Device dev;
  gpu::GpuPlan plan(dev, p, gpu::Options::optimized());
  plan.execute(x);  // warm-up: buffers and filter cache populated

  const CaptureProfile prof = profiled_execute(dev, plan, x);
  const cusim::BufferPool::Stats d = prof.pool_delta();
  EXPECT_EQ(d.allocations, 0u)
      << "a warm repeated execute must be served entirely from the pool";
  EXPECT_EQ(d.bytes_allocated, 0u);
}

TEST(CaptureProfile, JsonAndTableAreDeterministic) {
  const auto p = small_params();
  const cvec x = test_signal(p.n, p.k, 13);
  auto run = [&] {
    Device dev;
    gpu::GpuPlan plan(dev, p, gpu::Options::optimized());
    plan.execute(x);  // warm-up so pool deltas match between runs
    return profiled_execute(dev, plan, x);
  };
  const CaptureProfile a = run();
  const CaptureProfile b = run();
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.chrome_trace_json(), b.chrome_trace_json());
  EXPECT_EQ(a.to_table().to_csv(), b.to_table().to_csv());
}

TEST(CaptureProfile, WriteProducesParseableFile) {
  const auto p = small_params();
  Device dev;
  gpu::GpuPlan plan(dev, p, gpu::Options::optimized());
  const CaptureProfile prof =
      profiled_execute(dev, plan, test_signal(p.n, p.k, 17));

  const std::string path =
      ::testing::TempDir() + "cusfft_profile_test.json";
  ASSERT_TRUE(prof.write(path));
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  json::Value doc;
  std::string err;
  EXPECT_TRUE(json::parse(ss.str(), doc, &err)) << err;
  std::remove(path.c_str());
}

TEST(ReportTable, CarriesPoolDeltaRows) {
  const auto p = small_params();
  const cvec x = test_signal(p.n, p.k, 19);
  Device dev;
  gpu::GpuPlan plan(dev, p, gpu::Options::optimized());
  plan.execute(x);  // warm-up
  plan.execute(x);  // measured capture: everything recycled

  const std::string csv = cusim::report_table(dev).to_csv();
  // "no allocations after warm-up" straight from the report.
  EXPECT_NE(csv.find("[pool allocations],0,"), std::string::npos) << csv;
  EXPECT_NE(csv.find("[pool reuses],"), std::string::npos);
  EXPECT_NE(csv.find("[pool fresh_MB],0,"), std::string::npos);
  EXPECT_NE(csv.find("[pool pooled_MB],"), std::string::npos);
  // Kernel rows precede the pool rows and stay lexicographically sorted.
  std::vector<std::string> kernel_names;
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);  // header
  while (std::getline(lines, line)) {
    const std::string name = line.substr(0, line.find(','));
    if (name.rfind("[pool", 0) == 0) break;
    kernel_names.push_back(name);
  }
  EXPECT_FALSE(kernel_names.empty());
  EXPECT_TRUE(std::is_sorted(kernel_names.begin(), kernel_names.end()));
}

TEST(CaptureProfile, ExecuteManyRepeatsPhasesPerSignal) {
  const auto p = small_params();
  constexpr std::size_t kBatch = 2;
  std::vector<cvec> signals;
  std::vector<std::span<const cplx>> views;
  for (std::size_t i = 0; i < kBatch; ++i)
    signals.push_back(test_signal(p.n, p.k, 23 + i));
  for (const cvec& s : signals) views.emplace_back(s);

  Device dev;
  gpu::GpuPlan plan(dev, p, gpu::Options::optimized());
  plan.execute_many(views, nullptr, gpu::BatchMode::kSerialized);
  const CaptureProfile prof = dev.end_capture();
  EXPECT_EQ(prof.phases.size(), 4u * kBatch);
  // Phase list remains contiguous and ordered.
  for (std::size_t i = 1; i < prof.phases.size(); ++i)
    EXPECT_NEAR(prof.phases[i].start_ms, prof.phases[i - 1].end_ms, 1e-9);
}

TEST(CaptureProfile, PipelinedBatchScopesPhasesPerStream) {
  const auto p = small_params();
  constexpr std::size_t kBatch = 3;
  std::vector<cvec> signals;
  std::vector<std::span<const cplx>> views;
  for (std::size_t i = 0; i < kBatch; ++i)
    signals.push_back(test_signal(p.n, p.k, 23 + i));
  for (const cvec& s : signals) views.emplace_back(s);

  Device dev;
  gpu::GpuPlan plan(dev, p, gpu::Options::optimized());
  plan.execute_many(views, nullptr, gpu::BatchMode::kPipelined);
  const CaptureProfile prof = dev.end_capture();
  ASSERT_EQ(prof.phases.size(), 4u * kBatch);

  // Every phase is stream-scoped, and exactly two home streams are used
  // (signals alternate parity).
  std::set<StreamId> streams;
  for (const PhaseSpan& ph : prof.phases) {
    EXPECT_TRUE(ph.scoped);
    streams.insert(ph.stream);
  }
  EXPECT_EQ(streams.size(), 2u);

  // Within one stream, that stream's phases are contiguous and ordered —
  // the per-stream analogue of the serialized contiguity invariant.
  for (const StreamId s : streams) {
    const PhaseSpan* prev = nullptr;
    for (const PhaseSpan& ph : prof.phases) {
      if (ph.stream != s) continue;
      if (prev != nullptr) {
        EXPECT_GE(ph.start_ms, prev->end_ms - 1e-9);
      }
      prev = &ph;
    }
  }

  // The chrome trace names one phase track per home stream.
  const std::string trace = prof.chrome_trace_json();
  EXPECT_NE(trace.find("\"phases s"), std::string::npos);
}

}  // namespace
}  // namespace cusfft
