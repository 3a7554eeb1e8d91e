// Golden-counter tests: pin the exact transaction/flop accounting of the
// paper's kernels on small fixed configurations, so any change to the
// tracer, the kernels, or the cost model that would silently shift the
// figure data fails a test instead. GoldenTimeline additionally pins the
// event/dependency scheduling semantics (record_event/wait_event) the
// pipelined batch path is built on, event by event.
#include <gtest/gtest.h>

#include <map>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "cusfft/plan.hpp"
#include "cusim/device.hpp"
#include "cusim/timeline.hpp"
#include "signal/generate.hpp"

namespace cusfft::gpu {
namespace {

struct Golden {
  cusim::Device dev;
  std::unique_ptr<GpuPlan> plan;
  sfft::Params params;

  explicit Golden(Options opts) {
    params.n = 1 << 12;
    params.k = 8;
    params.seed = 1111;
    dev.set_max_traced_warps(1 << 20);  // exact tracing
    plan = std::make_unique<GpuPlan>(dev, params, opts);
    Rng rng(2222);
    const auto sig = signal::make_sparse_signal(params.n, params.k, rng);
    plan->execute(sig.x);
  }
};

TEST(GoldenCounters, PartitionKernelTraffic) {
  Golden g{Options::baseline()};
  const auto& c = g.dev.report().at("pf_partition").counters;
  // Geometry: n=4096, k=8 => B=256 buckets; filter taps pad to w_pad, with
  // rounds = w_pad / B per thread. L = 12 loops (bench defaults differ;
  // library defaults are 6+8=14 loops).
  const std::size_t B = g.plan->buckets();
  EXPECT_EQ(B, 256u);
  const std::size_t L = g.params.total_loops();
  EXPECT_EQ(g.dev.report().at("pf_partition").launches, L);
  // Each tap = one scattered signal load; with ai odd and large, nearly
  // every lane owns its own 128B segment: random_tx ~= taps. Filter loads
  // and bucket stores are coalesced.
  const auto [w, w_pad] =
      signal::flat_filter_sizes(g.params.n, B, g.params.filter);
  const double taps = static_cast<double>(w_pad) * static_cast<double>(L);
  EXPECT_GT(c.random_transactions, 0.80 * taps);
  EXPECT_LT(c.random_transactions, 1.05 * taps);
  // Useful bytes: signal load + filter load per tap, bucket store per
  // thread. (16 bytes per complex double.)
  const double expect_bytes = taps * 32.0 + static_cast<double>(L * B) * 16.0;
  EXPECT_NEAR(c.bytes_useful, expect_bytes, expect_bytes * 0.01);
}

TEST(GoldenCounters, ScoreClearIsPerfectlyCoalesced) {
  Golden g{Options::baseline()};
  const auto& c = g.dev.report().at("score_clear").counters;
  // n u32 stores = n*4 bytes = n*4/128 transactions exactly.
  EXPECT_DOUBLE_EQ(c.random_transactions, 0.0);
  EXPECT_NEAR(c.coalesced_transactions, (1 << 12) * 4.0 / 128.0, 1.0);
}

TEST(GoldenCounters, AsyncPathMovesSameSignalBytes) {
  Golden base{Options::baseline()};
  Options async;
  async.binning = Binning::kAsyncTransform;
  Golden opt{async};
  // The remap kernels collectively perform exactly the scattered loads the
  // monolithic kernel performed.
  const auto& pb = base.dev.report().at("pf_partition").counters;
  const auto& pr = opt.dev.report().at("pf_remap").counters;
  EXPECT_NEAR(pr.random_transactions, pb.random_transactions,
              pb.random_transactions * 0.02);
  // And the execute kernels are fully coalesced.
  const auto& pe = opt.dev.report().at("pf_execute").counters;
  EXPECT_DOUBLE_EQ(pe.random_transactions, 0.0);
}

TEST(GoldenCounters, LocRecoverAtomicsMatchVoteCount) {
  Golden g{Options::baseline()};
  const auto& c = g.dev.report().at("loc_recover").counters;
  // Each selected bucket votes exactly n/B locations; cutoff = 2k buckets
  // per location loop (library default cutoff_mult = 2), loops_loc = 6.
  const std::size_t B = g.plan->buckets();
  const double expected = static_cast<double>(g.params.loops_loc) *
                          static_cast<double>(g.params.cutoff()) *
                          static_cast<double>(g.params.n / B);
  // num_hits bookkeeping adds a few extra atomics.
  EXPECT_GE(c.atomic_ops, expected);
  EXPECT_LT(c.atomic_ops, expected * 1.2);
}

TEST(GoldenCounters, EstimateLaunchOncePerExecute) {
  Golden g{Options::baseline()};
  EXPECT_EQ(g.dev.report().at("estimate").launches, 1u);
  const auto& c = g.dev.report().at("estimate").counters;
  // Each candidate reads L buckets + L filter coefficients (scattered).
  EXPECT_GT(c.bytes_useful, 0.0);
}

TEST(GoldenCounters, BatchedFftStageGeometry) {
  Golden g{Options::baseline()};
  const auto& rep = g.dev.report().at("cufft_stage");
  // B = 256 = 8*8*4: 3 passes, launched once each thanks to batching.
  EXPECT_EQ(rep.launches, 3u);
  // Threads per pass: L transforms x B/R elements, rounded up to whole
  // 256-thread blocks (radix-8, radix-8, radix-4 for B=256).
  const double L = static_cast<double>(g.params.total_loops());
  auto launched = [L](double per_transform) {
    return std::ceil(L * per_transform / 256.0) * 256.0;
  };
  EXPECT_DOUBLE_EQ(rep.counters.threads,
                   launched(32) + launched(32) + launched(64));
}

// ---------------------------------------------------------------------------
// GoldenTimeline: the exact schedule of a small pipelined two-stream batch,
// asserted event by event. This is the two-signal dependency skeleton of
// GpuPlan's pipelined execute_many: front(1) chains behind front_done(0),
// back(1) behind done(0).
// ---------------------------------------------------------------------------

namespace {

cusim::TimelineItem compute_item(const char* name, cusim::StreamId s,
                                 double compute_s) {
  cusim::TimelineItem it;
  it.name = name;
  it.stream = s;
  it.compute_s = compute_s;
  return it;
}

cusim::TimelineItem mem_item(const char* name, cusim::StreamId s,
                             double mem_s) {
  cusim::TimelineItem it;
  it.name = name;
  it.stream = s;
  it.mem_s = mem_s;
  return it;
}

}  // namespace

TEST(GoldenTimeline, StreamEventDependencyScheduleExact) {
  cusim::Timeline tl(32);
  // Signal 0 on stream 1: front A (1 ms), back B (2 ms).
  tl.submit(compute_item("front0", 1, 1e-3));
  const std::size_t front0 = tl.record_event(1);
  tl.submit(compute_item("back0", 1, 2e-3));
  const std::size_t done0 = tl.record_event(1);
  // Signal 1 on stream 2: its front waits on front0, its back on done0.
  tl.wait_event(2, front0);
  tl.submit(compute_item("front1", 2, 1e-3));
  tl.wait_event(2, done0);
  tl.submit(compute_item("back1", 2, 2e-3));

  EXPECT_DOUBLE_EQ(tl.simulate(), 5e-3);
  const auto& sched = tl.schedule();
  ASSERT_EQ(sched.size(), 4u);
  EXPECT_DOUBLE_EQ(sched[0].start_s, 0.0);     // front0
  EXPECT_DOUBLE_EQ(sched[0].finish_s, 1e-3);
  EXPECT_DOUBLE_EQ(sched[1].start_s, 1e-3);    // back0 (stream FIFO)
  EXPECT_DOUBLE_EQ(sched[1].finish_s, 3e-3);
  EXPECT_DOUBLE_EQ(sched[2].start_s, 1e-3);    // front1 overlaps back0
  EXPECT_DOUBLE_EQ(sched[2].finish_s, 2e-3);
  EXPECT_DOUBLE_EQ(sched[3].start_s, 3e-3);    // back1 waits done0
  EXPECT_DOUBLE_EQ(sched[3].finish_s, 5e-3);
  EXPECT_DOUBLE_EQ(tl.event_time_s(front0), 1e-3);
  EXPECT_DOUBLE_EQ(tl.event_time_s(done0), 3e-3);
}

TEST(GoldenTimeline, BandwidthSharingUnderOverlapExact) {
  cusim::Timeline tl(32);
  // A (1 ms solo) then B (2 ms solo) on stream 1; C (1 ms solo) on stream
  // 2 released by an event after A. B and C co-run from t=1 ms sharing
  // device bandwidth: both dilate 2x until C retires.
  tl.submit(mem_item("A", 1, 1e-3));
  const std::size_t after_a = tl.record_event(1);
  tl.submit(mem_item("B", 1, 2e-3));
  tl.wait_event(2, after_a);
  tl.submit(mem_item("C", 2, 1e-3));

  EXPECT_DOUBLE_EQ(tl.simulate(), 4e-3);
  const auto& sched = tl.schedule();
  ASSERT_EQ(sched.size(), 3u);
  EXPECT_DOUBLE_EQ(sched[0].finish_s, 1e-3);  // A solo
  EXPECT_DOUBLE_EQ(sched[2].start_s, 1e-3);   // C released by the event
  EXPECT_DOUBLE_EQ(sched[2].finish_s, 3e-3);  // 1 ms of work at half rate
  EXPECT_DOUBLE_EQ(sched[1].start_s, 1e-3);
  EXPECT_DOUBLE_EQ(sched[1].finish_s, 4e-3);  // 1 ms shared + 1 ms solo

  // A stream-scoped event on an empty stream reads time 0.
  cusim::Timeline empty(32);
  const std::size_t e = empty.record_event(7);
  empty.simulate();
  EXPECT_DOUBLE_EQ(empty.event_time_s(e), 0.0);
}

TEST(GoldenTimeline, PipelinedBatchScheduleIsDependencyConsistent) {
  // A real pipelined batch: every item must start after its stream
  // predecessor, its barrier window, and each explicit dep — and the
  // schedule must actually overlap work across streams somewhere.
  sfft::Params p;
  p.n = 1 << 12;
  p.k = 8;
  p.seed = 21;
  cusim::Device dev;
  GpuPlan plan(dev, p, Options::optimized());
  std::vector<cvec> signals;
  std::vector<std::span<const cplx>> views;
  Rng rng(654);
  for (int i = 0; i < 4; ++i)
    signals.push_back(signal::make_sparse_signal(p.n, p.k, rng).x);
  for (const cvec& s : signals) views.emplace_back(s);
  plan.execute_many(views, nullptr, BatchMode::kPipelined);
  dev.elapsed_model_ms();  // force simulate()

  const auto& items = dev.timeline().items();
  const auto& sched = dev.timeline().schedule();
  ASSERT_EQ(items.size(), sched.size());
  ASSERT_FALSE(items.empty());

  constexpr double kEps = 1e-12;
  std::map<cusim::StreamId, std::size_t> prev_on_stream;
  bool any_deps = false, any_overlap = false;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (const auto it = prev_on_stream.find(items[i].stream);
        it != prev_on_stream.end()) {
      EXPECT_GE(sched[i].start_s, sched[it->second].finish_s - kEps)
          << "FIFO violated at item " << i << " (" << items[i].name << ")";
    }
    prev_on_stream[items[i].stream] = i;
    for (const std::size_t d : items[i].deps) {
      any_deps = true;
      ASSERT_LT(d, i);
      EXPECT_GE(sched[i].start_s, sched[d].finish_s - kEps)
          << "dep violated at item " << i << " (" << items[i].name << ")";
    }
    for (std::size_t j = 0; j < items[i].after; ++j)
      EXPECT_GE(sched[i].start_s, sched[j].finish_s - kEps)
          << "barrier violated at item " << i;
    for (std::size_t j = 0; j < i && !any_overlap; ++j)
      if (items[j].stream != items[i].stream &&
          sched[i].start_s < sched[j].finish_s - kEps &&
          sched[j].start_s < sched[i].finish_s - kEps)
        any_overlap = true;
  }
  EXPECT_TRUE(any_deps) << "pipelined batch submitted no wait_event deps";
  EXPECT_TRUE(any_overlap) << "no cross-stream overlap in the schedule";
}

}  // namespace
}  // namespace cusfft::gpu
