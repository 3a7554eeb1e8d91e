// Signal lanes: a batch whose signals run on 2, 3 or 4 lanes must be the
// one-lane (serial) program bit for bit — spectra, modeled times, per-signal
// stats, the device report, the captured-graph accounting and the capture
// profile — for every plan shape, batch size, schedule and graph mode; a
// failing signal must surface as the serial run's exception with the serial
// run's device state; and concurrent batches on one pool must not disturb
// each other.
#include <gtest/gtest.h>

#include <cstdlib>
#include <exception>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "cusfft/plan.hpp"
#include "cusim/device.hpp"
#include "cusim/profiler.hpp"
#include "signal/generate.hpp"

namespace cusfft {
namespace {

// Pin the global pool's width before anything creates it, so the
// concurrent-batch test runs real lanes even on a one-core runner.
const int kEnvGuard = [] {
  setenv("CUSFFT_THREADS", "4", /*overwrite=*/0);
  return 0;
}();

using cusim::GraphMode;
using gpu::BatchMode;

struct PlanCase {
  const char* name;
  sfft::Algorithm algo;
  gpu::Options opts;
  bool comb;
};

std::vector<PlanCase> plan_cases() {
  const gpu::Options opt = gpu::Options::optimized();
  gpu::Options sort_select = opt;
  sort_select.fast_selection = false;
  gpu::Options transfer = opt;
  transfer.include_transfer = true;
  gpu::Options unbatched = opt;
  unbatched.batched_fft = false;
  return {
      {"optimized", sfft::Algorithm::kCusfft, opt, false},
      {"baseline", sfft::Algorithm::kCusfft, gpu::Options::baseline(), false},
      {"sort_select", sfft::Algorithm::kCusfft, sort_select, false},
      {"comb", sfft::Algorithm::kCusfft, opt, true},
      {"ffast", sfft::Algorithm::kFfast, opt, false},
      {"transfer", sfft::Algorithm::kCusfft, transfer, false},
      {"unbatched_fft", sfft::Algorithm::kCusfft, unbatched, false},
  };
}

constexpr std::size_t kN = 1 << 10, kK = 4, kInputs = 12;

sfft::Params params_for(const PlanCase& pc) {
  sfft::Params p;
  p.n = kN;
  p.k = kK;
  p.seed = 99;
  p.loops_loc = 2;  // few loops: the case matrix runs ~3000 batches
  p.loops_est = 2;
  p.algo = pc.algo;
  p.comb = pc.comb;
  return p;
}

const std::vector<cvec>& inputs() {
  static const std::vector<cvec> xs = [] {
    std::vector<cvec> v;
    Rng rng(2024);
    for (std::size_t i = 0; i < kInputs; ++i)
      v.push_back(signal::make_sparse_signal(kN, kK, rng).x);
    return v;
  }();
  return xs;
}

/// Device::report() to the last bit.
std::string describe(const std::map<std::string, cusim::KernelReport>& r) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& [name, k] : r) {
    const auto& c = k.counters;
    os << name << ' ' << k.launches << ' ' << k.solo_s << ' ' << c.blocks
       << ' ' << c.threads << ' ' << c.warps << ' '
       << c.coalesced_transactions << ' ' << c.random_transactions << ' '
       << c.bytes_useful << ' ' << c.flops << ' ' << c.atomic_ops << ' '
       << c.max_atomic_conflict << ' ' << c.shared_accesses << '\n';
  }
  return os.str();
}

std::string describe(const gpu::GpuBatchStats& st) {
  std::ostringstream os;
  os << std::hexfloat << st.model_ms << ' ' << st.signals << ' '
     << st.candidates << ' ' << st.pipelined << ' '
     << static_cast<int>(st.algo) << '\n';
  for (const gpu::GpuSignalStats& s : st.per_signal) {
    os << s.start_ms << ' ' << s.end_ms << ' ' << s.candidates << ' '
       << static_cast<int>(s.algo);
    for (const auto& [phase, ms] : s.phase_span_ms) os << ' ' << phase << ms;
    os << '\n';
  }
  return os.str();
}

/// Everything a batch leaves behind that must not depend on the lane
/// count.
struct BatchRun {
  std::vector<SparseSpectrum> out;
  std::string stats;
  std::string report;
  cusim::LaunchGraph::Stats graph;
  std::string profile;
};

void expect_same(const BatchRun& want, const BatchRun& got,
                 const std::string& where) {
  ASSERT_EQ(want.out.size(), got.out.size()) << where;
  for (std::size_t s = 0; s < want.out.size(); ++s) {
    ASSERT_EQ(want.out[s].size(), got.out[s].size()) << where << " sig " << s;
    for (std::size_t j = 0; j < want.out[s].size(); ++j) {
      EXPECT_EQ(want.out[s][j].loc, got.out[s][j].loc) << where;
      EXPECT_EQ(want.out[s][j].val, got.out[s][j].val) << where;
    }
  }
  EXPECT_EQ(want.stats, got.stats) << where;
  EXPECT_EQ(want.report, got.report) << where;
  EXPECT_EQ(want.graph.records, got.graph.records) << where;
  EXPECT_EQ(want.graph.replays, got.graph.replays) << where;
  EXPECT_EQ(want.graph.verified, got.graph.verified) << where;
  EXPECT_EQ(want.profile, got.profile) << where;
}

class LaneEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, GraphMode>> {
 protected:
  /// A cold plan's first batch of `size` signals, then the warm plan's
  /// next batch, on `pool`.
  std::vector<BatchRun> run(ThreadPool& pool, BatchMode sched,
                            std::size_t size) const {
    const PlanCase pc = plan_cases()[std::get<0>(GetParam())];
    cusim::Device dev;
    dev.set_graph_mode(std::get<1>(GetParam()));
    dev.set_pool(&pool);
    gpu::GpuPlan plan(dev, params_for(pc), pc.opts);
    std::vector<BatchRun> runs;
    for (std::size_t b = 0; b < 2; ++b) {
      std::vector<std::span<const cplx>> xs;
      for (std::size_t i = 0; i < size; ++i)
        xs.emplace_back(inputs()[(5 * b + i) % kInputs]);
      BatchRun r;
      gpu::GpuBatchStats st;
      r.out = plan.execute_many(xs, &st, sched);
      r.stats = describe(st);
      r.report = describe(dev.report());
      r.graph = dev.graph_stats();
      r.profile = dev.end_capture().to_json();
      runs.push_back(std::move(r));
    }
    return runs;
  }
};

TEST_P(LaneEquivalence, MatchesOneLane) {
  // Each lane count repeats 20 times, cycling both schedules and batch
  // sizes 1-9, so the lanes' interleavings vary from run to run.
  ThreadPool one(1);
  std::map<std::pair<BatchMode, std::size_t>, std::vector<BatchRun>> want;
  for (std::size_t workers = 2; workers <= 4; ++workers) {
    ThreadPool pool(workers);
    for (std::size_t rep = 0; rep < 20; ++rep) {
      const BatchMode sched =
          rep % 2 == 0 ? BatchMode::kSerialized : BatchMode::kPipelined;
      const std::size_t size = 1 + (rep / 2 + 3 * workers) % 9;
      auto it = want.find({sched, size});
      if (it == want.end())
        it = want.emplace(std::pair{sched, size}, run(one, sched, size)).first;
      const std::vector<BatchRun> got = run(pool, sched, size);
      for (std::size_t b = 0; b < got.size(); ++b)
        expect_same(it->second[b], got[b],
                    std::string(sched == BatchMode::kPipelined
                                    ? "pipelined"
                                    : "serialized") +
                        " workers " + std::to_string(workers) + " size " +
                        std::to_string(size) + (b == 0 ? " cold" : " warm"));
      if (HasFailure()) return;
    }
  }
}

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<std::size_t, GraphMode>>& i) {
  const char* mode = std::get<1>(i.param) == GraphMode::kOn    ? "graph_on"
                     : std::get<1>(i.param) == GraphMode::kOff ? "graph_off"
                                                               : "verify";
  return std::string(plan_cases()[std::get<0>(i.param)].name) + "_" + mode;
}

INSTANTIATE_TEST_SUITE_P(
    Plans, LaneEquivalence,
    ::testing::Combine(::testing::Range<std::size_t>(0, 7),
                       ::testing::Values(GraphMode::kOn, GraphMode::kOff,
                                         GraphMode::kVerify)),
    case_name);

/// The device state a failed batch leaves behind.
struct FailedBatch {
  std::string what;
  std::string report;
  cusim::LaunchGraph::Stats graph;
  std::size_t items = 0;
  std::size_t phases = 0;
  std::string profile;
};

void expect_same(const FailedBatch& want, const FailedBatch& got) {
  EXPECT_FALSE(want.what.empty());
  EXPECT_EQ(want.what, got.what);
  EXPECT_EQ(want.report, got.report);
  EXPECT_EQ(want.graph.records, got.graph.records);
  EXPECT_EQ(want.graph.replays, got.graph.replays);
  EXPECT_EQ(want.graph.verified, got.graph.verified);
  EXPECT_EQ(want.items, got.items);
  EXPECT_EQ(want.phases, got.phases);
  EXPECT_EQ(want.profile, got.profile);
}

FailedBatch failed_state(cusim::Device& dev, std::string what) {
  FailedBatch f;
  f.what = std::move(what);
  f.report = describe(dev.report());
  f.graph = dev.graph_stats();
  f.items = dev.timeline().items().size();
  f.phases = dev.phase_annotations().size();
  f.profile = dev.end_capture().to_json();
  return f;
}

TEST(LaneFailure, FailingSignalSurfacesLikeTheSerialRun) {
  // Signal 4 of 7 has the wrong length. On three lanes, later signals run
  // anyway; the batch still throws the serial run's exception and leaves
  // the serial run's device state: signals 0-3 applied, nothing after.
  const PlanCase pc = plan_cases()[0];
  const cvec bad(kN / 2);
  for (const BatchMode sched : {BatchMode::kSerialized, BatchMode::kPipelined}) {
    auto run = [&](std::size_t workers) {
      ThreadPool pool(workers);
      cusim::Device dev;
      dev.set_pool(&pool);
      gpu::GpuPlan plan(dev, params_for(pc), pc.opts);
      std::vector<std::span<const cplx>> xs(inputs().begin(),
                                            inputs().begin() + 7);
      xs[4] = bad;
      std::string what;
      try {
        plan.execute_many(xs, nullptr, sched);
      } catch (const std::invalid_argument& e) {
        what = e.what();
      }
      return failed_state(dev, what);
    };
    expect_same(run(1), run(3));
  }
}

TEST(LaneFailure, ApplyStopsWhereTheSerialProgramStopped) {
  // Four lanes of three launches each; lane 2's second launch throws
  // mid-grid. Applying logs 0-2 (lane 2's up to its failure) leaves the
  // device exactly as the same calls made directly would have.
  auto work = [](cusim::Device& dev, std::size_t lane,
                 cusim::DeviceBuffer<u32>& buf) {
    dev.annotate_phase("lane", 1);
    for (u64 k = 0; k < 3; ++k) {
      dev.launch(cusim::LaunchCfg::for_elements("step", 512, 256, 1).cache(k),
                 [&](cusim::ThreadCtx& t) {
                   const u64 i = t.global_id();
                   if (lane == 2 && k == 1 && i == 300)
                     throw std::runtime_error("lane 2 failed");
                   buf.store(t, i, static_cast<u32>(lane + i));
                 });
      dev.record_event(1);
    }
  };
  constexpr std::size_t kLanes = 4;
  std::vector<cusim::DeviceBuffer<u32>> bufs;
  for (std::size_t l = 0; l < kLanes; ++l) bufs.emplace_back(512);

  cusim::Device serial;
  serial.begin_capture();
  std::string serial_what;
  try {
    for (std::size_t l = 0; l < kLanes; ++l) work(serial, l, bufs[l]);
  } catch (const std::runtime_error& e) {
    serial_what = e.what();
  }

  ThreadPool pool(kLanes);
  cusim::Device dev;
  dev.begin_capture();
  std::string what;
  {
    std::vector<cusim::Lane> lanes(kLanes);
    std::vector<cusim::DeviceLog> logs(kLanes);
    std::vector<std::exception_ptr> errors(kLanes);
    pool.parallel_for_indexed(
        kLanes, [&](std::size_t, std::size_t b, std::size_t e) {
          for (std::size_t l = b; l < e; ++l) {
            try {
              const cusim::Device::LaneScope scope(dev, lanes[l], logs[l]);
              work(dev, l, bufs[l]);
            } catch (...) {
              errors[l] = std::current_exception();
            }
          }
        });
    try {
      for (std::size_t l = 0; l < kLanes; ++l) {
        dev.apply(logs[l]);
        if (errors[l]) std::rethrow_exception(errors[l]);
      }
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
  }
  expect_same(failed_state(serial, serial_what), failed_state(dev, what));
}

TEST(ConcurrentBatches, TwoThreadsOnTheGlobalPoolMatchOneThread) {
  // Two devices on ThreadPool::global() (as two C handles are), each
  // driven from its own thread at once: every batch's spectra and
  // modeled time equal a one-thread run's.
  sfft::Params p;
  p.n = 1 << 12;
  p.k = 16;
  p.seed = 31;
  const gpu::Options opts = gpu::Options::optimized();
  std::vector<cvec> xs;
  Rng rng(77);
  for (int i = 0; i < 8; ++i)
    xs.push_back(signal::make_sparse_signal(p.n, p.k, rng).x);
  const std::vector<std::span<const cplx>> views(xs.begin(), xs.end());
  constexpr int kBatches = 20;

  struct Run {
    std::vector<std::vector<SparseSpectrum>> out;
    std::vector<double> model_ms;
  };
  auto drive = [&]() {
    cusim::Device dev;
    gpu::GpuPlan plan(dev, p, opts);
    Run r;
    for (int b = 0; b < kBatches; ++b) {
      gpu::GpuBatchStats st;
      r.out.push_back(plan.execute_many(views, &st, BatchMode::kPipelined));
      r.model_ms.push_back(st.model_ms);
    }
    return r;
  };
  const Run want = drive();
  Run a, b;
  std::thread ta([&] { a = drive(); });
  std::thread tb([&] { b = drive(); });
  ta.join();
  tb.join();
  for (const Run* got : {&a, &b}) {
    ASSERT_EQ(got->out.size(), want.out.size());
    for (int i = 0; i < kBatches; ++i) {
      EXPECT_EQ(got->model_ms[i], want.model_ms[i]) << "batch " << i;
      ASSERT_EQ(got->out[i].size(), want.out[i].size());
      for (std::size_t s = 0; s < want.out[i].size(); ++s) {
        ASSERT_EQ(got->out[i][s].size(), want.out[i][s].size());
        for (std::size_t j = 0; j < want.out[i][s].size(); ++j) {
          EXPECT_EQ(got->out[i][s][j].loc, want.out[i][s][j].loc);
          EXPECT_EQ(got->out[i][s][j].val, want.out[i][s][j].val);
        }
      }
    }
  }
}

}  // namespace
}  // namespace cusfft
