// FFAST backend contract: stage-chain construction, exact recovery on
// exactly-k-sparse signals (including residue-class collisions that only
// the Prony multi-ton solver can decode), CPU/GPU agreement (identical
// support, values to FFT rounding — the GPU stage FFTs run through
// cufftsim while the CPU plan uses fft::Plan), bit-reproducibility of the
// GPU path across runs, devices, and the sequential launch path,
// bit-identity of the batch schedules, and the crossover table's cell key.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "core/spectrum.hpp"
#include "cusfft/autopick.hpp"
#include "cusfft/plan.hpp"
#include "cusim/device.hpp"
#include "sfft/ffast.hpp"
#include "signal/generate.hpp"

namespace cusfft {
namespace {

sfft::Params ffast_params(std::size_t n, std::size_t k, u64 seed = 7) {
  sfft::Params p;
  p.n = n;
  p.k = k;
  p.seed = seed;
  p.algo = sfft::Algorithm::kFfast;
  return p;
}

SparseSpectrum sorted_by_loc(SparseSpectrum s) {
  std::sort(s.begin(), s.end(),
            [](const SparseCoef& a, const SparseCoef& b) { return a.loc < b.loc; });
  return s;
}

void expect_recovers(const SparseSpectrum& got, const SparseSpectrum& truth,
                     double val_tol, const char* what) {
  const SparseSpectrum want = sorted_by_loc(truth);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].loc, want[i].loc) << what << " coeff " << i;
    EXPECT_LT(std::abs(got[i].val - want[i].val), val_tol)
        << what << " coeff " << i;
  }
}

void expect_bitwise(const SparseSpectrum& a, const SparseSpectrum& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].loc, b[i].loc) << what << " coeff " << i;
    EXPECT_EQ(a[i].val, b[i].val) << what << " coeff " << i;
  }
}

TEST(FfastStageChain, GeometricDoublingClampsAndDedups) {
  const auto ch = sfft::ffast_stage_chain(1 << 12, 256, 3);
  ASSERT_EQ(ch.size(), 3u);
  EXPECT_EQ(ch[0].bins, 256u);
  EXPECT_EQ(ch[1].bins, 512u);
  EXPECT_EQ(ch[2].bins, 1024u);
  EXPECT_EQ(ch[0].offset, 0u);
  for (std::size_t s = 0; s + 1 < ch.size(); ++s)
    EXPECT_EQ(ch[s + 1].offset,
              ch[s].offset + sfft::kFfastShifts * ch[s].bins);

  // The clamp at n collapses the tail of the chain; collapsed neighbours
  // are deduplicated rather than repeated.
  const auto clamped = sfft::ffast_stage_chain(1 << 12, 2048, 3);
  ASSERT_EQ(clamped.size(), 2u);
  EXPECT_EQ(clamped[0].bins, 2048u);
  EXPECT_EQ(clamped[1].bins, 4096u);

  const auto full = sfft::ffast_stage_chain(1 << 10, 1 << 10, 4);
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full[0].bins, 1u << 10);
}

TEST(FfastPlan, RecoversExactlyKSparseSignals) {
  for (const std::size_t n : {std::size_t{1} << 10, std::size_t{1} << 13}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{4},
                                std::size_t{32}}) {
      for (u64 seed = 1; seed <= 3; ++seed) {
        Rng rng(seed * 1000 + n + k);
        const auto sig = signal::make_sparse_signal(
            n, k, rng, {signal::MagnitudeDist::kUniform1to10, 0.0});
        const sfft::FfastPlan plan(ffast_params(n, k, seed));
        expect_recovers(plan.execute(sig.x), sig.truth, 1e-8,
                        "cpu exact-sparse");
      }
    }
  }
}

TEST(FfastPlan, PronyPeelsFullChainCollisions) {
  // Three frequencies congruent mod the largest stage's bin count collide
  // in EVERY stage — no singleton ever appears and only the 3-ton Prony
  // solve can open the bucket. ffast_bins(k=3) = 16, so the default
  // 3-stage chain tops out at 64 bins; plant the spikes 64 apart.
  const std::size_t n = 1 << 12;
  const sfft::Params p = ffast_params(n, 3);
  ASSERT_EQ(p.ffast_bins(), 16u);
  SparseSpectrum truth{{5, cplx(1.0, 0.5)},
                       {5 + 64 * 7, cplx(-0.75, 0.25)},
                       {5 + 64 * 31, cplx(0.0, -1.25)}};
  const cvec x = signal::synthesize(truth, n);
  const sfft::FfastPlan plan(p);
  expect_recovers(plan.execute(x), truth, 1e-8, "full-chain 3-ton");

  // Four congruent frequencies exceed kFfastMaxTon: the decoder must fail
  // soft (return a strict subset or nothing), never hallucinate support.
  SparseSpectrum four = truth;
  four.push_back({5 + 64 * 48, cplx(0.5, 0.5)});
  const cvec x4 = signal::synthesize(four, n);
  const SparseSpectrum got = sfft::FfastPlan(ffast_params(n, 4)).execute(x4);
  for (const auto& c : got) {
    const bool planted =
        std::any_of(four.begin(), four.end(),
                    [&](const SparseCoef& t) { return t.loc == c.loc; });
    EXPECT_TRUE(planted) << "hallucinated loc " << c.loc;
  }
}

TEST(FfastBackends, CpuAndGpuAgreeToFftRounding) {
  for (const std::size_t n : {std::size_t{1} << 11, std::size_t{1} << 14}) {
    const std::size_t k = 16;
    Rng rng(n);
    const auto sig = signal::make_sparse_signal(n, k, rng);
    const sfft::Params p = ffast_params(n, k);

    const SparseSpectrum cpu = sfft::FfastPlan(p).execute(sig.x);
    cusim::Device dev;
    gpu::GpuBatchStats st;
    const SparseSpectrum gpu_out =
        gpu::GpuPlan(dev, p, gpu::Options::optimized()).execute(sig.x, &st);
    EXPECT_EQ(st.algo, sfft::Algorithm::kFfast);

    ASSERT_EQ(cpu.size(), gpu_out.size());
    for (std::size_t i = 0; i < cpu.size(); ++i) {
      EXPECT_EQ(cpu[i].loc, gpu_out[i].loc);
      EXPECT_LT(std::abs(cpu[i].val - gpu_out[i].val), 1e-9)
          << "value divergence beyond FFT rounding at " << i;
    }
  }
}

TEST(FfastBackends, CusfftAndFfastRecoverSameSupport) {
  const std::size_t n = 1 << 12, k = 8;
  Rng rng(99);
  const auto sig = signal::make_sparse_signal(n, k, rng);
  sfft::Params p = ffast_params(n, k);

  cusim::Device dev;
  const SparseSpectrum ffast =
      gpu::GpuPlan(dev, p, gpu::Options::optimized()).execute(sig.x);
  p.algo = sfft::Algorithm::kCusfft;
  // cusFFT keeps every surviving candidate (a superset with small spurious
  // tails at these sizes); its top-k by magnitude must be the FFAST
  // support exactly.
  const SparseSpectrum cusfft = trim_top_k(
      gpu::GpuPlan(dev, p, gpu::Options::optimized()).execute(sig.x), k);

  ASSERT_EQ(ffast.size(), k);
  ASSERT_EQ(ffast.size(), cusfft.size());
  for (std::size_t i = 0; i < ffast.size(); ++i)
    EXPECT_EQ(ffast[i].loc, cusfft[i].loc) << "support mismatch at " << i;
}

TEST(FfastGpu, BitReproducibleAcrossRunsDevicesAndLaunchPaths) {
  const std::size_t n = 1 << 12, k = 12;
  Rng rng(5);
  const auto sig = signal::make_sparse_signal(n, k, rng);
  const sfft::Params p = ffast_params(n, k);
  const gpu::Options opts = gpu::Options::optimized();

  // A batch of the same signal on `workers` lanes: every lane's result is
  // bitwise the solo execute's.
  auto run = [&](std::size_t workers) {
    ThreadPool pool(workers);
    cusim::Device dev;
    dev.set_pool(&pool);
    const std::vector<std::span<const cplx>> views(3, sig.x);
    return gpu::GpuPlan(dev, p, opts).execute_many(views);
  };
  cusim::Device dev;
  const SparseSpectrum first = gpu::GpuPlan(dev, p, opts).execute(sig.x);
  for (const SparseSpectrum& s : run(1))
    expect_bitwise(first, s, "repeat run / fresh device / one lane");
  for (const SparseSpectrum& s : run(3))
    expect_bitwise(first, s, "three lanes");
}

TEST(FfastGpu, BatchSchedulesBitIdenticalToSoloExecutes) {
  const std::size_t n = 1 << 11, k = 8, batch = 5;
  const sfft::Params p = ffast_params(n, k);
  const gpu::Options opts = gpu::Options::optimized();

  std::vector<cvec> store;
  std::vector<std::span<const cplx>> views;
  for (std::size_t i = 0; i < batch; ++i) {
    Rng rng(300 + i);
    store.push_back(signal::make_sparse_signal(n, k, rng).x);
  }
  for (const cvec& s : store) views.emplace_back(s);

  std::vector<SparseSpectrum> solo;
  {
    cusim::Device dev;
    gpu::GpuPlan plan(dev, p, opts);
    for (const auto& v : views) solo.push_back(plan.execute(v));
  }
  auto run_batchmode = [&](gpu::BatchMode mode) {
    cusim::Device dev;
    gpu::GpuPlan plan(dev, p, opts);
    gpu::GpuBatchStats st;
    auto out = plan.execute_many(views, &st, mode);
    EXPECT_EQ(st.algo, sfft::Algorithm::kFfast);
    return out;
  };
  const auto serialized = run_batchmode(gpu::BatchMode::kSerialized);
  const auto pipelined = run_batchmode(gpu::BatchMode::kPipelined);
  ASSERT_EQ(serialized.size(), batch);
  ASSERT_EQ(pipelined.size(), batch);
  for (std::size_t i = 0; i < batch; ++i) {
    expect_bitwise(solo[i], serialized[i], "serialized vs solo");
    expect_bitwise(solo[i], pipelined[i], "pipelined vs solo");
  }
}

TEST(Autopick, CrossoverCellsKeyOnOptionsAndFilter) {
  // Regression: the crossover table once keyed its cells on a string that
  // left out every Options field but include_transfer and the whole flat
  // filter, so whichever configuration calibrated a shape first answered
  // for every other (the baseline's sort&select cutoff costs several
  // times the optimized selection). Cells must follow every field except
  // the backend, which a cell measures both of.
  sfft::Params p = ffast_params(1 << 14, 64);
  const perfmodel::GpuSpec spec = perfmodel::GpuSpec::k20x();
  const gpu::CrossoverCell base =
      gpu::calibrate_cell(p, spec, gpu::Options::baseline());
  const gpu::CrossoverCell opt =
      gpu::calibrate_cell(p, spec, gpu::Options::optimized());
  EXPECT_NE(base.cusfft_ms, opt.cusfft_ms);
  EXPECT_LT(opt.cusfft_ms, base.cusfft_ms);

  sfft::Params wide = p;
  wide.filter.boxcar_scale *= 2.0;
  EXPECT_NE(gpu::calibrate_cell(wide, spec, gpu::Options::optimized())
                .cusfft_ms,
            opt.cusfft_ms);

  // The picker's kAuto shape shares the cell a fixed backend calibrated.
  p.algo = sfft::Algorithm::kAuto;
  const gpu::CrossoverCell shared =
      gpu::calibrate_cell(p, spec, gpu::Options::optimized());
  EXPECT_EQ(shared.cusfft_ms, opt.cusfft_ms);
  EXPECT_EQ(shared.ffast_ms, opt.ffast_ms);
}

}  // namespace
}  // namespace cusfft
