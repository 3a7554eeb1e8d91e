// google-benchmark microbenchmarks for the primitive layers: host FFT,
// binning, estimation, device sort/scan/select, warp tracing, replayed
// launches, timeline/fleet replay, and one pipelined GpuPlan batch.
// These measure *this machine's* functional throughput (not modeled GPU
// time) — useful for tracking regressions in the hot loops.
#include <benchmark/benchmark.h>

#include <numeric>

#include "core/rng.hpp"
#include "cusfft/plan.hpp"
#include "cusim/cluster.hpp"
#include "cusim/device.hpp"
#include "cusim/device_group.hpp"
#include "custhrust/scan.hpp"
#include "custhrust/select.hpp"
#include "custhrust/sort.hpp"
#include "fft/fft.hpp"
#include "sfft/comb.hpp"
#include "sfft/ffast.hpp"
#include "sfft/serial.hpp"
#include "sfft/steps.hpp"
#include "signal/filter.hpp"
#include "signal/generate.hpp"

namespace {

using namespace cusfft;

cvec random_signal(std::size_t n, u64 seed) {
  Rng rng(seed);
  cvec x(n);
  for (auto& v : x) v = cplx{rng.next_normal(), rng.next_normal()};
  return x;
}

// The host FFT rows transform the same input every iteration: repeated
// in-place transforms grow by sqrt(n) each and reach inf and NaN, whose
// complex products take libgcc's slow path.
void BM_HostFft(benchmark::State& state) {
  const std::size_t n = 1ULL << state.range(0);
  const cvec x = random_signal(n, 1);
  cvec y(n);
  fft::Plan plan(n, fft::Direction::kForward);
  for (auto _ : state) {
    plan.execute(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_HostFft)->Arg(10)->Arg(14)->Arg(18);

// One-shot fft::fft: a fresh output and the shared plan lookup per call.
void BM_HostFftOneShot(benchmark::State& state) {
  const std::size_t n = 1ULL << state.range(0);
  const cvec x = random_signal(n, 1);
  for (auto _ : state) {
    cvec y = fft::fft(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_HostFftOneShot)->Arg(16);

void BM_HostFftBluestein(benchmark::State& state) {
  const std::size_t n = 10000;  // non-power-of-two
  const cvec x = random_signal(n, 2);
  cvec y(n);
  fft::Plan plan(n, fft::Direction::kForward);
  for (auto _ : state) {
    plan.execute(x, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_HostFftBluestein);

void BM_BinPermuted(benchmark::State& state) {
  const std::size_t n = 1ULL << 18, B = 1024;
  cvec x = random_signal(n, 3);
  auto filter = signal::make_flat_filter(n, B);
  sfft::LoopPerm perm{12345, mod_inverse(12345, n), 777};
  cvec z(B);
  for (auto _ : state) {
    sfft::bin_permuted(x, filter.time, perm, z);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(filter.time.size()));
}
BENCHMARK(BM_BinPermuted);

// Scalar reference loop (pre-SoA implementation) — kept benchmarked so the
// speedup of the blocked/SoA path above is visible in every bench run.
void BM_BinPermutedReference(benchmark::State& state) {
  const std::size_t n = 1ULL << 18, B = 1024;
  cvec x = random_signal(n, 3);
  auto filter = signal::make_flat_filter(n, B);
  sfft::LoopPerm perm{12345, mod_inverse(12345, n), 777};
  cvec z(B);
  for (auto _ : state) {
    sfft::bin_permuted_reference(x, filter.time, perm, z);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(filter.time.size()));
}
BENCHMARK(BM_BinPermutedReference);

void BM_EstimateCoef(benchmark::State& state) {
  const std::size_t n = 1ULL << 14, B = 256, L = 8;
  Rng rng(4);
  auto filter = signal::make_flat_filter(n, B);
  auto perms = sfft::draw_loop_perms(n, L, rng);
  std::vector<cvec> buckets(L, cvec(B, cplx{1.0, 0.5}));
  for (auto _ : state) {
    auto v = sfft::estimate_coef(1234, perms, buckets, filter.freq, n, B);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_EstimateCoef);

void BM_DeviceRadixSort(benchmark::State& state) {
  const std::size_t B = 1ULL << state.range(0);
  Rng rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    cusim::Device dev;
    dev.begin_capture();
    cusim::DeviceBuffer<double> keys(B);
    cusim::DeviceBuffer<u32> vals(B);
    for (std::size_t i = 0; i < B; ++i) {
      keys.host()[i] = rng.next_normal();
      vals.host()[i] = static_cast<u32>(i);
    }
    state.ResumeTiming();
    custhrust::sort_pairs_desc(dev, keys, vals);
    benchmark::DoNotOptimize(keys.host().data());
  }
}
BENCHMARK(BM_DeviceRadixSort)->Arg(10)->Arg(14);

void BM_DeviceScan(benchmark::State& state) {
  const std::size_t m = 1ULL << 14;
  for (auto _ : state) {
    state.PauseTiming();
    cusim::Device dev;
    dev.begin_capture();
    cusim::DeviceBuffer<u64> data(m);
    for (std::size_t i = 0; i < m; ++i) data.host()[i] = i % 7;
    state.ResumeTiming();
    custhrust::exclusive_scan(dev, data);
    benchmark::DoNotOptimize(data.host().data());
  }
}
BENCHMARK(BM_DeviceScan);

void BM_DeviceSelect(benchmark::State& state) {
  const std::size_t B = 1ULL << 14;
  cusim::Device dev;
  cusim::DeviceBuffer<cplx> buckets(B);
  Rng rng(6);
  for (auto& v : buckets.host())
    v = cplx{rng.next_normal() * 1e-3, rng.next_normal() * 1e-3};
  buckets.host()[100] = {1.0, 0.0};
  for (auto _ : state) {
    dev.begin_capture();
    auto r = custhrust::threshold_select(dev, buckets);
    benchmark::DoNotOptimize(r.indices.data());
  }
}
BENCHMARK(BM_DeviceSelect);

cusim::TimelineItem timeline_item(int stream, cusim::Resource r,
                                  double mem_s, double compute_s) {
  cusim::TimelineItem it;
  it.name = r == cusim::Resource::kPcie ? "copy" : "k";
  it.stream = static_cast<cusim::StreamId>(stream);
  it.resource = r;
  it.mem_s = mem_s;
  it.compute_s = compute_s;
  return it;
}

void BM_TimelineSimulate(benchmark::State& state) {
  // Rebuild the event list every iteration: simulate() caches its result
  // while the timeline is unchanged, so submitting outside the loop would
  // only measure the cached-makespan fast path.
  for (auto _ : state) {
    cusim::Timeline tl(32);
    for (int i = 0; i < 512; ++i)
      tl.submit(timeline_item(i % 32, cusim::Resource::kDeviceMemory, 1e-4,
                              1e-5));
    double t = tl.simulate();
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 512);
}
BENCHMARK(BM_TimelineSimulate);

void BM_FleetReplay(benchmark::State& state) {
  // The merged fleet replay: 2 devices x 1024 items on 8 streams each, a
  // device sync_point every 64 items (barrier windows) and a PCIe copy
  // every 16 (the shared host link). Rebuilt every iteration through
  // begin_capture, so the cached fleet schedule is not what gets measured.
  cusim::DeviceGroup group(2);
  for (auto _ : state) {
    group.begin_capture();
    for (std::size_t d = 0; d < group.size(); ++d) {
      cusim::Device& dev = group.device(d);
      for (int i = 0; i < 1024; ++i) {
        if (i % 64 == 0) dev.sync_point();
        dev.timeline().submit(
            i % 16 == 15
                ? timeline_item(i % 8, cusim::Resource::kPcie, 2e-5, 0.0)
                : timeline_item(i % 8, cusim::Resource::kDeviceMemory, 1e-5,
                                5e-6));
      }
    }
    auto fs = group.simulate();
    benchmark::DoNotOptimize(fs.makespan_s);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 2048);
}
BENCHMARK(BM_FleetReplay);

void BM_ClusterSimulate(benchmark::State& state) {
  // The cluster merge path end to end: per-node device work, NIC ingress
  // staging, a cross-node exchange behind an exchange barrier, then the
  // two-phase NIC waterfill + schedule merge. Rebuilt every iteration
  // (like BM_TimelineSimulate) so the cached-makespan fast path is not
  // what gets measured.
  cusim::Cluster cluster(2, 2);
  const auto body = [](cusim::ThreadCtx&) {};
  for (auto _ : state) {
    cluster.begin_capture();
    for (std::size_t m = 0; m < cluster.nodes(); ++m) {
      cluster.add_ingress(static_cast<unsigned>(m), "stage", 1 << 16);
      for (std::size_t d = 0; d < cluster.node(m).size(); ++d) {
        cusim::Device& dev = cluster.node(m).device(d);
        for (int i = 0; i < 16; ++i)
          dev.launch(cusim::LaunchCfg::for_elements("k", 256), body);
      }
    }
    cluster.add_exchange(1, 0, "gather", 1 << 16);
    cluster.mark_exchange_barrier(0);
    cluster.node(0).device(0).sync_point();
    cluster.node(0).device(0).launch(
        cusim::LaunchCfg::for_elements("reduce", 256), body);
    auto s = cluster.simulate();
    benchmark::DoNotOptimize(s.makespan_s);
  }
  // 16 kernels x 4 devices + ingress/exchange/reduce items per iteration.
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 68);
}
BENCHMARK(BM_ClusterSimulate);

// One traced warp's accesses in the order Device::launch records them:
// lane by lane, each lane's accesses in slot order.
struct WarpAccess {
  u32 slot;
  u64 addr;
  u32 bytes;
  bool atomic;
};

// Warp shapes of BM_WarpFinalize, after the kernels that trace on every
// launch of a warm plan (n = 2^16 and 12 loops, as in perfbench
// steady_batch).
//  0 coalesced: consecutive 16-, 8-, 16- and 4-byte accesses per lane;
//  1 estimate: a contiguous load, then per loop two broadcast loads and
//    two 16-byte gathers (filter taps, buckets), then a contiguous store;
//  2 loc_recover: 64 scattered 4-byte atomics per lane on the score array.
std::vector<WarpAccess> warp_shape(int shape) {
  constexpr u64 kN = 1 << 16, kB = 4096, kLoops = 12;
  const auto base = [](u64 buffer) { return buffer << 24; };
  Rng rng(11);
  std::vector<WarpAccess> out;
  for (u32 lane = 0; lane < 32; ++lane) {
    u32 slot = 0;
    const auto add = [&](u64 addr, u32 bytes, bool atomic = false) {
      out.push_back({slot++, addr, bytes, atomic});
    };
    if (shape == 0) {
      add(base(1) + lane * 16, 16);
      add(base(2) + lane * 8, 8);
      add(base(3) + lane * 16, 16);
      add(base(4) + lane * 4, 4);
    } else if (shape == 1) {
      add(base(1) + lane * 4, 4);
      for (u64 r = 0; r < kLoops; ++r) {
        add(base(2) + r * 8, 8);
        add(base(3) + r * 8, 8);
        add(base(4) + (rng.next_u64() % kN) * 16, 16);
        add(base(5) + (r * kB + rng.next_u64() % kB) * 16, 16);
      }
      add(base(6) + lane * 16, 16);
    } else {
      for (int i = 0; i < 64; ++i)
        add(base(1) + (rng.next_u64() % kN) * 4, 4, true);
    }
  }
  return out;
}

void BM_WarpFinalize(benchmark::State& state) {
  // The per-warp tracing cycle: clear, record every lane, finalize.
  const std::vector<WarpAccess> accesses =
      warp_shape(static_cast<int>(state.range(0)));
  cusim::LaunchArena arena;
  cusim::WarpTracer tracer;
  tracer.reset(128, &arena);
  for (auto _ : state) {
    tracer.clear();
    for (const WarpAccess& a : accesses)
      tracer.on_access(a.slot, a.addr, a.bytes, a.atomic);
    cusim::WarpTotals t = tracer.finalize();
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(accesses.size()));
}
BENCHMARK(BM_WarpFinalize)->Arg(0)->Arg(1)->Arg(2);

void BM_TracedAtomicLaunch(benchmark::State& state) {
  // A fully traced 512-thread launch (16 warps, under the default sampling
  // cap) with 64 scattered atomic_adds per thread: the tracer plus the
  // kernel-wide atomic-conflict table, as loc_recover exercises them.
  cusim::Device dev;
  cusim::DeviceBuffer<u32> score(1 << 16);
  const auto body = [&](cusim::ThreadCtx& t) {
    u64 h = t.global_id() + 1;
    for (int i = 0; i < 64; ++i) {
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      score.atomic_add(t, h >> 48, u32{1});
    }
  };
  for (auto _ : state) {
    dev.begin_capture();
    dev.launch(cusim::LaunchCfg::for_elements("atomics", 512), body);
    benchmark::DoNotOptimize(score.host().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 512 * 64);
}
BENCHMARK(BM_TracedAtomicLaunch);

void BM_ReplayedLaunch(benchmark::State& state) {
  // A captured-graph replay of a 1024-thread gather shaped like pf_remap:
  // the per-launch host cost of the warm path (sweep plus timeline submit),
  // 64 launches per capture.
  constexpr std::size_t kB = 1024, kN = 1 << 16;
  cusim::Device dev;
  cusim::DeviceBuffer<cplx> src(kN), dst(kB);
  const u64 ai = 40503, tau = 977;
  const auto body = [&](cusim::ThreadCtx& t) {
    const u64 i = t.global_id();
    if (i >= kB) return;
    dst.store(t, i, src.load(t, (tau + i * ai) & (kN - 1)));
  };
  const auto cfg =
      cusim::LaunchCfg::for_elements("remap", kB, 256).cache(1);
  dev.launch(cfg, body);  // records; every timed launch replays
  for (auto _ : state) {
    dev.begin_capture();
    for (int i = 0; i < 64; ++i) dev.launch(cfg, body);
    benchmark::DoNotOptimize(dst.host().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 64);
}
BENCHMARK(BM_ReplayedLaunch);

void BM_PipelinedBatch(benchmark::State& state) {
  // One warm 8-signal pipelined batch of the optimized plan at n = 2^14 on
  // the process-wide pool's lanes: the steady path end to end.
  sfft::Params p;
  p.n = 1 << 14;
  p.k = 64;
  p.seed = 5;
  std::vector<cvec> xs;
  Rng rng(8);
  for (int i = 0; i < 8; ++i)
    xs.push_back(signal::make_sparse_signal(p.n, p.k, rng).x);
  const std::vector<std::span<const cplx>> views(xs.begin(), xs.end());
  cusim::Device dev;
  gpu::GpuPlan plan(dev, p, gpu::Options::optimized());
  plan.execute_many(views, nullptr, gpu::BatchMode::kPipelined);  // warm-up
  for (auto _ : state) {
    auto out = plan.execute_many(views, nullptr, gpu::BatchMode::kPipelined);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 8);
}
BENCHMARK(BM_PipelinedBatch)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FlatFilterConstruction(benchmark::State& state) {
  const std::size_t n = 1ULL << 16, B = 512;
  for (auto _ : state) {
    auto f = signal::make_flat_filter(n, B);
    benchmark::DoNotOptimize(f.time.data());
  }
}
BENCHMARK(BM_FlatFilterConstruction);


void BM_ModMul(benchmark::State& state) {
  Rng rng(7);
  const u64 m = (1ULL << 61) - 1;
  u64 a = rng.next_u64() % m, b = rng.next_u64() % m;
  for (auto _ : state) {
    a = mod_mul(a, b, m);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ModMul);

void BM_VoteLocations(benchmark::State& state) {
  const std::size_t n = 1ULL << 18, B = 1024, cutoff = 64;
  sfft::LoopPerm perm{12345, mod_inverse(12345, n), 77};
  std::vector<u32> selected(cutoff);
  std::iota(selected.begin(), selected.end(), 0u);
  std::vector<std::uint8_t> score(n, 0);
  std::vector<u64> hits;
  for (auto _ : state) {
    std::fill(score.begin(), score.end(), 0);
    hits.clear();
    sfft::vote_locations(selected, perm, n, B, 1, score, hits);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(cutoff * (n / B)));
}
BENCHMARK(BM_VoteLocations);

void BM_CombFilter(benchmark::State& state) {
  const std::size_t n = 1ULL << 18, W = 1024;
  Rng rng(8);
  const auto sig = signal::make_sparse_signal(n, 32, rng);
  const u64 taus[] = {11, 222};
  for (auto _ : state) {
    auto c = sfft::run_comb_filter(sig.x, W, 64, taus);
    benchmark::DoNotOptimize(c.approved.data());
  }
}
BENCHMARK(BM_CombFilter);

void BM_SerialSfftEndToEnd(benchmark::State& state) {
  const std::size_t n = 1ULL << state.range(0), k = 16;
  Rng rng(9);
  const auto sig = signal::make_sparse_signal(n, k, rng);
  sfft::Params p;
  p.n = n;
  p.k = k;
  sfft::SerialPlan plan(p);
  for (auto _ : state) {
    auto out = plan.execute(sig.x);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SerialSfftEndToEnd)->Arg(14)->Arg(16);

void BM_Ffast(benchmark::State& state) {
  // The FFAST peeling backend end to end on the CPU reference plan —
  // tracked next to BM_SerialSfftEndToEnd so the crossover the auto
  // picker banks on (FFAST cheap at low k) stays visible in the gate.
  const std::size_t n = 1ULL << state.range(0), k = 16;
  Rng rng(9);
  const auto sig = signal::make_sparse_signal(n, k, rng);
  sfft::Params p;
  p.n = n;
  p.k = k;
  p.algo = sfft::Algorithm::kFfast;
  sfft::FfastPlan plan(p);
  for (auto _ : state) {
    auto out = plan.execute(sig.x);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Ffast)->Arg(14)->Arg(16);

void BM_MedianComplex(benchmark::State& state) {
  Rng rng(10);
  cvec v(15);
  for (auto& c : v) c = cplx{rng.next_normal(), rng.next_normal()};
  for (auto _ : state) {
    cvec copy = v;
    auto m = sfft::median_complex(copy);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MedianComplex);

}  // namespace

BENCHMARK_MAIN();
