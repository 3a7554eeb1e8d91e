// Tests for the GPU sparse FFT (the paper's contribution): end-to-end
// recovery, differential agreement with the serial reference, every
// optimization/ablation path, and stats plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "cusfft/plan.hpp"
#include "fft/fft.hpp"
#include "sfft/inverse.hpp"
#include "sfft/serial.hpp"
#include "signal/generate.hpp"

namespace cusfft::gpu {
namespace {

sfft::Params make_params(std::size_t n, std::size_t k) {
  sfft::Params p;
  p.n = n;
  p.k = k;
  p.seed = 4242;
  return p;
}

struct Workload {
  signal::SparseSignal sig;
  cvec oracle;
};

Workload make_workload(std::size_t n, std::size_t k, u64 seed) {
  Rng rng(seed);
  Workload w;
  w.sig = signal::make_sparse_signal(n, k, rng);
  w.oracle = densify(w.sig.truth, n);
  return w;
}

class GpuConfigs : public ::testing::TestWithParam<const char*> {
 protected:
  Options options() const {
    const std::string name = GetParam();
    if (name == "baseline") return Options::baseline();
    if (name == "optimized") return Options::optimized();
    if (name == "async_only") {
      Options o;
      o.binning = Binning::kAsyncTransform;
      return o;
    }
    if (name == "fastsel_only") {
      Options o;
      o.fast_selection = true;
      return o;
    }
    if (name == "unbatched") {
      Options o;
      o.batched_fft = false;
      return o;
    }
    if (name == "atomic_hist") {
      Options o;
      o.binning = Binning::kGlobalAtomicHist;
      return o;
    }
    if (name == "shared_hist") {
      Options o;
      o.binning = Binning::kSharedHist;
      return o;
    }
    if (name == "bitonic") {
      Options o;
      o.sort_algo = custhrust::SortAlgo::kBitonic;
      return o;
    }
    if (name == "with_transfer") {
      Options o = Options::optimized();
      o.include_transfer = true;
      return o;
    }
    throw std::runtime_error("unknown config");
  }
};

TEST_P(GpuConfigs, RecoversExactlySparseSignal) {
  const std::size_t n = 1 << 14, k = 16;
  auto w = make_workload(n, k, 99);
  cusim::Device dev;
  GpuPlan plan(dev, make_params(n, k), options());
  auto got = plan.execute(w.sig.x);
  EXPECT_DOUBLE_EQ(location_recall(got, w.oracle, k), 1.0) << GetParam();
  EXPECT_LT(max_error_at_locs(got, w.oracle), 1e-2) << GetParam();
  EXPECT_LT(l1_error_per_coeff(got, w.oracle, k), 1e-2) << GetParam();
}

TEST_P(GpuConfigs, AgreesWithSerialReference) {
  const std::size_t n = 1 << 13, k = 8;
  auto w = make_workload(n, k, 123);
  const sfft::Params p = make_params(n, k);

  sfft::SerialPlan serial(p);
  const auto cpu = serial.execute(w.sig.x);

  cusim::Device dev;
  GpuPlan plan(dev, p, options());
  const auto gpu = plan.execute(w.sig.x);

  if (!options().fast_selection) {
    // Same seed => same permutations and the same sort&select cutoff =>
    // identical candidate sets; values agree to FFT rounding.
    ASSERT_EQ(gpu.size(), cpu.size()) << GetParam();
    for (std::size_t i = 0; i < gpu.size(); ++i) {
      EXPECT_EQ(gpu[i].loc, cpu[i].loc) << GetParam() << " i=" << i;
      EXPECT_NEAR(std::abs(gpu[i].val - cpu[i].val), 0.0, 1e-6)
          << GetParam() << " i=" << i;
    }
  } else {
    // Fast selection picks a threshold-based (not top-c) bucket set, so
    // only the coefficients both backends report must agree.
    std::map<u64, cplx> by_loc;
    for (const auto& c : cpu) by_loc[c.loc] = c.val;
    std::size_t common = 0;
    for (const auto& g : gpu) {
      auto it = by_loc.find(g.loc);
      if (it == by_loc.end()) continue;
      ++common;
      EXPECT_NEAR(std::abs(g.val - it->second), 0.0, 1e-6)
          << GetParam() << " loc=" << g.loc;
    }
    EXPECT_GE(common, w.sig.truth.size()) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, GpuConfigs,
                         ::testing::Values("baseline", "optimized",
                                           "async_only", "fastsel_only",
                                           "unbatched", "atomic_hist",
                                           "shared_hist", "bitonic",
                                           "with_transfer"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(GpuPlan, StatsPopulated) {
  const std::size_t n = 1 << 13, k = 8;
  auto w = make_workload(n, k, 7);
  cusim::Device dev;
  GpuPlan plan(dev, make_params(n, k), Options::baseline());
  GpuBatchStats stats;
  auto got = plan.execute(w.sig.x, &stats);
  EXPECT_GT(stats.model_ms, 0.0);
  EXPECT_GT(stats.host_ms, 0.0);
  EXPECT_EQ(stats.signals, 1u);
  EXPECT_GE(stats.candidates, got.size());
  // Every paper step shows up in the per-step profile.
  const auto steps = step_model_ms(dev);
  EXPECT_GT(steps.at(sfft::step::kPermFilter), 0.0);
  EXPECT_GT(steps.at(sfft::step::kSubFft), 0.0);
  EXPECT_GT(steps.at(sfft::step::kCutoff), 0.0);
  EXPECT_GT(steps.at(sfft::step::kLocRecover), 0.0);
  EXPECT_GT(steps.at(sfft::step::kEstimate), 0.0);
}

TEST(GpuPlan, StepModelMsSumsToSoloTime) {
  // The per-step breakdown of one capture partitions the device report:
  // its steps sum to the total solo time of every kernel and transfer.
  const std::size_t n = 1 << 13, k = 8;
  auto w = make_workload(n, k, 8);
  Options opts = Options::optimized();
  opts.include_transfer = true;
  cusim::Device dev;
  GpuPlan plan(dev, make_params(n, k), opts);
  plan.execute(w.sig.x);
  double solo_ms = 0;
  for (const auto& [name, rep] : dev.report()) solo_ms += rep.solo_s * 1e3;
  double step_sum = 0;
  for (const auto& [step, ms] : step_model_ms(dev)) step_sum += ms;
  EXPECT_GT(solo_ms, 0.0);
  EXPECT_NEAR(step_sum, solo_ms, 1e-12 * solo_ms);
}

TEST(GpuPlan, DeterministicAcrossExecutes) {
  const std::size_t n = 1 << 13, k = 8;
  auto w = make_workload(n, k, 11);
  cusim::Device dev;
  GpuPlan plan(dev, make_params(n, k), Options::optimized());
  const auto a = plan.execute(w.sig.x);
  const auto b = plan.execute(w.sig.x);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].loc, b[i].loc);
    EXPECT_EQ(a[i].val, b[i].val);
  }
}

TEST(GpuPlan, TransferInclusionRaisesModelTime) {
  const std::size_t n = 1 << 14, k = 8;
  auto w = make_workload(n, k, 13);
  Options with = Options::optimized();
  with.include_transfer = true;
  Options without = Options::optimized();

  cusim::Device dev;
  GpuPlan pw(dev, make_params(n, k), with);
  GpuBatchStats sw;
  pw.execute(w.sig.x, &sw);

  cusim::Device dev2;
  GpuPlan po(dev2, make_params(n, k), without);
  GpuBatchStats so;
  po.execute(w.sig.x, &so);

  const double h2d_ms =
      (n * 16.0 / dev.spec().pcie_bandwidth_Bps) * 1e3;
  EXPECT_GT(sw.model_ms, so.model_ms + 0.5 * h2d_ms);
}

TEST(GpuPlan, IndexMappingAblationIsCatastrophicallySlow) {
  // Without index mapping the binning runs as one dependent chain — the
  // modeled time must blow up by orders of magnitude (the paper's Fig. 1/3
  // motivation).
  const std::size_t n = 1 << 13, k = 8;
  auto w = make_workload(n, k, 17);
  Options serial_chain;
  serial_chain.binning = Binning::kSerialChain;

  cusim::Device dev;
  GpuPlan chained(dev, make_params(n, k), serial_chain);
  const auto got = chained.execute(w.sig.x);
  EXPECT_DOUBLE_EQ(location_recall(got, w.oracle, k), 1.0);

  cusim::Device dev2;
  GpuPlan mapped(dev2, make_params(n, k), Options::baseline());
  mapped.execute(w.sig.x);

  EXPECT_GT(step_model_ms(dev).at(sfft::step::kPermFilter),
            20.0 * step_model_ms(dev2).at(sfft::step::kPermFilter));
}

TEST(GpuPlan, FastSelectionCheaperThanSort) {
  const std::size_t n = 1 << 16, k = 32;
  auto w = make_workload(n, k, 19);
  cusim::Device dev;
  GpuPlan sorted(dev, make_params(n, k), Options::baseline());
  sorted.execute(w.sig.x);

  cusim::Device dev2;
  Options fast;
  fast.fast_selection = true;
  GpuPlan selected(dev2, make_params(n, k), fast);
  selected.execute(w.sig.x);

  EXPECT_LT(step_model_ms(dev2).at(sfft::step::kCutoff),
            step_model_ms(dev).at(sfft::step::kCutoff));
}

TEST(GpuPlan, BatchedFftFewerLaunchesThanUnbatched) {
  const std::size_t n = 1 << 13, k = 8;
  auto w = make_workload(n, k, 23);
  cusim::Device dev;
  GpuPlan batched(dev, make_params(n, k), Options::baseline());
  batched.execute(w.sig.x);
  const std::size_t batched_launches =
      dev.report().at("cufft_stage").launches;

  cusim::Device dev2;
  Options ub;
  ub.batched_fft = false;
  GpuPlan unbatched(dev2, make_params(n, k), ub);
  unbatched.execute(w.sig.x);
  const std::size_t unbatched_launches =
      dev2.report().at("cufft_stage").launches;

  EXPECT_GT(unbatched_launches, 2 * batched_launches);
}

TEST(GpuPlan, SharedHistogramRejectedWhenBExceedsSharedMemory) {
  // Section IV.C: at n=2^18, k=1000 the paper computes B ~ 3816 buckets of
  // complex double — more than 48 KB of shared memory can hold. Our plan
  // must refuse exactly that configuration.
  cusim::Device dev;
  sfft::Params p = make_params(1 << 18, 1000);
  Options o;
  o.binning = Binning::kSharedHist;
  EXPECT_THROW(GpuPlan(dev, p, o), std::invalid_argument);
  // A small-B configuration fits and is accepted.
  GpuPlan ok(dev, make_params(1 << 14, 8), o);
  EXPECT_LE(ok.buckets() * sizeof(cplx), dev.spec().shared_mem_per_sm);
}

TEST(GpuPlan, RejectsPlansExceedingDeviceMemory) {
  // A 2^28-point plan needs > 8 GB of device buffers; the Table-I K20x has
  // 6 GB, so plan creation must fail like cudaMalloc would — and before
  // touching host memory (this test must not OOM the host). The error is
  // typed, so front ends tell it apart from other simulator failures.
  cusim::Device dev;
  EXPECT_THROW(GpuPlan(dev, make_params(1ULL << 28, 1000),
                       Options::optimized()),
               cusim::OutOfDeviceMemory);
}

TEST(GpuPlan, RejectsBadInput) {
  cusim::Device dev;
  GpuPlan plan(dev, make_params(1 << 13, 8), Options::baseline());
  cvec wrong(1 << 12);
  EXPECT_THROW(plan.execute(wrong), std::invalid_argument);
  sfft::Params too_many_loops = make_params(1 << 13, 8);
  too_many_loops.loops_loc = 20;
  too_many_loops.loops_est = 20;
  EXPECT_THROW(GpuPlan(dev, too_many_loops, Options::baseline()),
               std::invalid_argument);
}

TEST(GpuPlan, PhaseSpansCoverModelTime) {
  const std::size_t n = 1 << 13, k = 8;
  auto w = make_workload(n, k, 29);
  cusim::Device dev;
  GpuPlan plan(dev, make_params(n, k), Options::optimized());
  GpuBatchStats stats;
  plan.execute(w.sig.x, &stats);
  ASSERT_EQ(stats.per_signal.size(), 1u);
  const auto& spans = stats.per_signal[0].phase_span_ms;
  ASSERT_EQ(spans.size(), 4u);
  double sum = 0;
  for (const auto& [name, ms] : spans) {
    EXPECT_GE(ms, -1e-9) << name;
    sum += ms;
  }
  EXPECT_NEAR(sum, stats.model_ms, stats.model_ms * 1e-6);
  // Binning + FFT dominates in this regime.
  EXPECT_GT(spans.at("b comb+bin+fft"), spans.at("a transfer+reset"));
}


TEST(GpuPlan, SparseInverseFindsTimePeaks) {
  const std::size_t n = 1 << 13;
  cvec x(n, cplx{});
  x[123] = {2.0, 0.0};
  x[4567] = {0.0, -1.5};
  const cvec Y = fft::fft(x);

  cusim::Device dev;
  GpuPlan plan(dev, make_params(n, 2), Options::optimized());
  const auto got = sfft::sparse_inverse_with(plan, n, Y);
  bool found_a = false, found_b = false;
  for (const auto& c : got) {
    if (c.loc == 123 && std::abs(c.val - x[123]) < 1e-6) found_a = true;
    if (c.loc == 4567 && std::abs(c.val - x[4567]) < 1e-6) found_b = true;
  }
  EXPECT_TRUE(found_a);
  EXPECT_TRUE(found_b);
}


TEST(StepOfKernel, MapsEveryFamily) {
  EXPECT_STREQ(step_of_kernel("pf_partition"), sfft::step::kPermFilter);
  EXPECT_STREQ(step_of_kernel("pf_remap"), sfft::step::kPermFilter);
  EXPECT_STREQ(step_of_kernel("cufft_stage"), sfft::step::kSubFft);
  EXPECT_STREQ(step_of_kernel("radix_scatter"), sfft::step::kCutoff);
  EXPECT_STREQ(step_of_kernel("fast_select"), sfft::step::kCutoff);
  EXPECT_STREQ(step_of_kernel("loc_recover"), sfft::step::kLocRecover);
  EXPECT_STREQ(step_of_kernel("estimate"), sfft::step::kEstimate);
  EXPECT_STREQ(step_of_kernel("h2d"), "0 transfer");
  EXPECT_STREQ(step_of_kernel("mystery"), "other");
}

}  // namespace
}  // namespace cusfft::gpu
