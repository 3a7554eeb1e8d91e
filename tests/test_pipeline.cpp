// Stream-pipelined execute_many: equivalence, overlap, and determinism
// invariants.
//
// The pipelined batch schedule (BatchMode::kPipelined) is a modeled-
// timeline optimization only — functional kernel execution is eager and
// host-sequential — so its contract is sharp and fully testable:
//   1. outputs are bit-identical to per-signal execute() and to the
//      serialized batch schedule, for any shape;
//   2. the modeled timeline genuinely overlaps signal i+1's binning with
//      signal i's estimation, stays FIFO within each stream, and beats the
//      serialized makespan strictly;
//   3. results and modeled times are identical however many lanes run the
//      batch (private pools of 1-3 workers; CI additionally sweeps
//      CUSFFT_THREADS);
//   4. GpuBatchStats::per_signal stays coherent under overlap: each
//      signal's spans come from its own stream events and tile its window.
// The overlap tests sweep the captured trace through the same checks CI's
// profile_check runs on the smoke artifact (tools/profile_check_lib).
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "cusfft/plan.hpp"
#include "cusim/device.hpp"
#include "cusim/profiler.hpp"
#include "profile_check_lib.hpp"
#include "signal/generate.hpp"

namespace cusfft {
namespace {

using cusim::CaptureProfile;
using cusim::Device;
using cusim::StreamId;
using cusim::TraceSpan;

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
    ASSERT_EQ(a[i].size(), b[i].size()) << what << ", signal " << i;
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i][j].loc, b[i][j].loc) << what << ", signal " << i;
      EXPECT_EQ(a[i][j].val.real(), b[i][j].val.real())
          << what << ", signal " << i;
      EXPECT_EQ(a[i][j].val.imag(), b[i][j].val.imag())
          << what << ", signal " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// 1. Equivalence: pipelined output is bit-identical to per-signal execute()
//    and to the serialized batch, across randomized shapes and both the
//    baseline and optimized kernel configurations.
// ---------------------------------------------------------------------------

TEST(PipelineEquivalence, RandomizedShapesAreBitIdentical) {
  Rng shapes(9001);
  for (int iter = 0; iter < 6; ++iter) {
    const std::size_t n = std::size_t{1} << (10 + shapes.next_below(3));
    const std::size_t k = std::size_t{2} << shapes.next_below(3);
    const std::size_t batch = 2 + shapes.next_below(3);
    const u64 seed = shapes.next_u64();

    sfft::Params p;
    p.n = n;
    p.k = k;
    p.seed = 1 + shapes.next_below(1000);
    const gpu::Options opts =
        (iter % 2 == 0) ? gpu::Options::optimized() : gpu::Options::baseline();
    SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
                 " batch=" + std::to_string(batch) +
                 " optimized=" + std::to_string(iter % 2 == 0));

    Batch b(batch, n, k, seed);
    Device dev;
    gpu::GpuPlan plan(dev, p, opts);

    std::vector<SparseSpectrum> singles;
    for (const auto& v : b.views) singles.push_back(plan.execute(v));
    const auto serialized =
        plan.execute_many(b.views, nullptr, gpu::BatchMode::kSerialized);
    const auto pipelined =
        plan.execute_many(b.views, nullptr, gpu::BatchMode::kPipelined);

    expect_identical(singles, serialized, "execute vs serialized");
    expect_identical(serialized, pipelined, "serialized vs pipelined");
  }
}

TEST(PipelineEquivalence, TransferAndCombConfigsAreBitIdentical) {
  sfft::Params p;
  p.n = 1 << 12;
  p.k = 8;
  p.seed = 77;
  p.comb = true;  // exercises the double-buffered comb-approved flags

  gpu::Options opts = gpu::Options::optimized();
  opts.include_transfer = true;  // H2D copies join the pipelined timeline

  Batch b(4, p.n, p.k, 500);
  Device dev;
  gpu::GpuPlan plan(dev, p, opts);

  std::vector<SparseSpectrum> singles;
  for (const auto& v : b.views) singles.push_back(plan.execute(v));
  const auto serialized =
      plan.execute_many(b.views, nullptr, gpu::BatchMode::kSerialized);
  const auto pipelined =
      plan.execute_many(b.views, nullptr, gpu::BatchMode::kPipelined);

  expect_identical(singles, serialized, "execute vs serialized");
  expect_identical(serialized, pipelined, "serialized vs pipelined");
}

// ---------------------------------------------------------------------------
// 2. Overlap invariants on the modeled timeline.
// ---------------------------------------------------------------------------

struct OverlapRun {
  gpu::GpuBatchStats serial_stats, pipe_stats;
  std::vector<SparseSpectrum> serial_out, pipe_out;
  CaptureProfile pipe_profile;

  explicit OverlapRun(std::size_t batch = 8) {
    sfft::Params p;
    p.n = 1 << 13;
    p.k = 8;
    p.seed = 3;
    gpu::Options opts = gpu::Options::optimized();
    opts.include_transfer = true;
    Batch b(batch, p.n, p.k, 9000);

    Device dev_s;
    gpu::GpuPlan plan_s(dev_s, p, opts);
    serial_out =
        plan_s.execute_many(b.views, &serial_stats, gpu::BatchMode::kSerialized);

    Device dev_p;
    gpu::GpuPlan plan_p(dev_p, p, opts);
    pipe_out =
        plan_p.execute_many(b.views, &pipe_stats, gpu::BatchMode::kPipelined);
    pipe_profile = dev_p.end_capture();
  }
};

TEST(PipelineOverlap, BeatsSerializedStrictlyWithIdenticalOutput) {
  OverlapRun run;
  EXPECT_FALSE(run.serial_stats.pipelined);
  EXPECT_TRUE(run.pipe_stats.pipelined);
  // The back stage is launch-overhead bound while the front is memory
  // bound, so overlapping them must shorten the modeled batch makespan.
  EXPECT_LT(run.pipe_stats.model_ms, run.serial_stats.model_ms);
  expect_identical(run.serial_out, run.pipe_out, "serialized vs pipelined");
}

TEST(PipelineOverlap, BinningStartsBeforePreviousEstimateEnds) {
  OverlapRun run;
  // Spans are in submission order and signals are submitted one after the
  // other, so any span after an `estimate` span belongs to a later signal.
  // The pipeline's point: some later signal's front-stage work (transfer,
  // reset, or binning) starts on the modeled timeline before that estimate
  // finishes.
  const std::set<std::string> front = {"h2d",        "score_clear",
                                       "hits_reset", "pf_remap",
                                       "pf_execute", "pf_combine"};
  const auto& spans = run.pipe_profile.spans;
  bool overlapped = false;
  for (std::size_t e = 0; e < spans.size() && !overlapped; ++e) {
    if (spans[e].name != "estimate") continue;
    for (std::size_t j = e + 1; j < spans.size(); ++j)
      if (front.count(spans[j].name) != 0 &&
          spans[j].start_ms < spans[e].end_ms) {
        overlapped = true;
        break;
      }
  }
  EXPECT_TRUE(overlapped)
      << "no front-stage kernel of a later signal overlaps an estimate";
}

TEST(PipelineOverlap, TracePassesProfileCheckSweep) {
  OverlapRun run;
  // The same sweep CI runs on the smoke artifact: per-stream FIFO
  // non-overlap and device concurrency within the modeled Hyper-Q window
  // must hold for the overlapped schedule too.
  const tools::ProfileCheckResult r =
      tools::check_profile_json(run.pipe_profile.chrome_trace_json());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.kernel_events, 0u);
  EXPECT_GT(r.kernel_tracks, 1u);  // work really spread across streams
  EXPECT_LE(r.peak_concurrency, r.max_kernels);
}

// ---------------------------------------------------------------------------
// 3. GpuBatchStats under overlap: per-signal spans from each signal's own
//    events.
// ---------------------------------------------------------------------------

TEST(PipelineStats, SerializedPerSignalSpansTileTheBatch) {
  OverlapRun run(4);
  const gpu::GpuBatchStats& st = run.serial_stats;
  ASSERT_EQ(st.per_signal.size(), 4u);
  double total = 0;
  for (const gpu::GpuSignalStats& sig : st.per_signal) {
    double window = 0;
    for (const auto& [name, ms] : sig.phase_span_ms) window += ms;
    // Phases tile each signal's window exactly...
    EXPECT_NEAR(window, sig.end_ms - sig.start_ms, 1e-9);
    total += window;
  }
  // ...and serialized windows tile the whole capture (regression pin: the
  // per-signal numbers must sum to the batch makespan when nothing
  // overlaps).
  EXPECT_NEAR(total, st.model_ms, 1e-6 * st.model_ms);
}

TEST(PipelineStats, PipelinedPerSignalSpansStayCoherent) {
  OverlapRun run;
  const gpu::GpuBatchStats& st = run.pipe_stats;
  ASSERT_EQ(st.per_signal.size(), 8u);
  double window_sum = 0;
  double last_end = 0;
  for (const gpu::GpuSignalStats& sig : st.per_signal) {
    EXPECT_GT(sig.end_ms, sig.start_ms);
    double window = 0;
    for (const auto& [name, ms] : sig.phase_span_ms) {
      EXPECT_GE(ms, -1e-9) << name;
      window += ms;
    }
    // Each signal's phases still tile its own [start, end) window — the
    // spans come from that signal's stream events, not global phase marks.
    EXPECT_NEAR(window, sig.end_ms - sig.start_ms, 1e-9);
    window_sum += window;
    last_end = std::max(last_end, sig.end_ms);
  }
  // The last signal drains at the batch makespan.
  EXPECT_NEAR(last_end, st.model_ms, 1e-9 * st.model_ms);
  // Overlap means the per-signal windows over-cover the makespan.
  EXPECT_GT(window_sum, st.model_ms);
}

// ---------------------------------------------------------------------------
// 4. Determinism matrix: the lane count must not leak into results or
//    modeled times. CI sweeps CUSFFT_THREADS; in-process we pin private
//    pools of 1 to 3 workers.
// ---------------------------------------------------------------------------

TEST(PipelineDeterminism, LaunchPathsProduceIdenticalResultsAndTimes) {
  sfft::Params p;
  p.n = 1 << 12;
  p.k = 8;
  p.seed = 11;
  const gpu::Options opts = gpu::Options::optimized();
  Batch b(3, p.n, p.k, 321);

  struct Run {
    std::vector<SparseSpectrum> out;
    gpu::GpuBatchStats stats;
  };
  auto run_with = [&](std::size_t workers) {
    ThreadPool pool(workers);
    Device dev;
    dev.set_pool(&pool);
    gpu::GpuPlan plan(dev, p, opts);
    Run r;
    r.out = plan.execute_many(b.views, &r.stats, gpu::BatchMode::kPipelined);
    return r;
  };

  const Run def = run_with(1);
  const Run two = run_with(2);
  const Run three = run_with(3);

  for (const Run* other : {&two, &three}) {
    expect_identical(def.out, other->out, "lane-count variant");
    // Modeled times are a function of the submitted timeline only — they
    // must match bit-for-bit, not just approximately.
    EXPECT_EQ(def.stats.model_ms, other->stats.model_ms);
    ASSERT_EQ(def.stats.per_signal.size(), other->stats.per_signal.size());
    for (std::size_t i = 0; i < def.stats.per_signal.size(); ++i) {
      EXPECT_EQ(def.stats.per_signal[i].start_ms,
                other->stats.per_signal[i].start_ms);
      EXPECT_EQ(def.stats.per_signal[i].end_ms,
                other->stats.per_signal[i].end_ms);
      EXPECT_EQ(def.stats.per_signal[i].phase_span_ms,
                other->stats.per_signal[i].phase_span_ms);
    }
  }
}

// ---------------------------------------------------------------------------
// 5. kAuto resolution.
// ---------------------------------------------------------------------------

TEST(PipelineAuto, SingleSignalBatchesStaySerialized) {
  sfft::Params p;
  p.n = 1 << 12;
  p.k = 8;
  p.seed = 5;
  Batch b(1, p.n, p.k, 42);
  Device dev;
  gpu::GpuPlan plan(dev, p, gpu::Options::optimized());
  gpu::GpuBatchStats st;
  plan.execute_many(b.views, &st, gpu::BatchMode::kAuto);
  EXPECT_FALSE(st.pipelined);
}

TEST(PipelineAuto, RealBatchesPipelineUnlessEnvForbids) {
  sfft::Params p;
  p.n = 1 << 12;
  p.k = 8;
  p.seed = 5;
  Batch b(3, p.n, p.k, 42);
  Device dev;
  gpu::GpuPlan plan(dev, p, gpu::Options::optimized());
  gpu::GpuBatchStats st;
  plan.execute_many(b.views, &st, gpu::BatchMode::kAuto);
  EXPECT_TRUE(st.pipelined);
}

}  // namespace
}  // namespace cusfft
