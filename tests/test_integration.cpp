// Cross-module integration and property tests:
//  * differential: serial == PsFFT == cusFFT across a (n, k, config) grid
//  * signal-variant robustness (magnitude distributions, clustered spectra)
//  * flat-filter quality invariants swept over B
//  * randomized timeline properties (makespan bounds)
//  * full-pipeline determinism across plan instances
#include <gtest/gtest.h>

#include <cmath>

#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "cusfft/plan.hpp"
#include "cusim/timeline.hpp"
#include "fft/fft.hpp"
#include "psfft/psfft.hpp"
#include "sfft/serial.hpp"
#include "signal/filter.hpp"
#include "signal/window.hpp"
#include "signal/generate.hpp"

namespace cusfft {
namespace {

struct GridCase {
  std::size_t logn;
  std::size_t k;
  bool comb;
};

class BackendGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(BackendGrid, AllBackendsAgree) {
  const auto [logn, k, comb] = GetParam();
  const std::size_t n = 1ULL << logn;
  Rng rng(logn * 1000 + k);
  const auto sig = signal::make_sparse_signal(n, k, rng);

  sfft::Params p;
  p.n = n;
  p.k = k;
  p.comb = comb;
  p.seed = 31 + logn;

  const auto serial = sfft::SerialPlan(p).execute(sig.x);

  ThreadPool pool(2);
  const auto parallel = psfft::PsfftPlan(p, pool).execute(sig.x);

  // The GPU baseline uses the same sort&select cutoff as the serial code,
  // so its candidate set matches exactly (the optimized fast selection
  // legitimately picks a different, threshold-based set — covered by the
  // oracle checks below).
  cusim::Device dev;
  const auto gpu_out =
      gpu::GpuPlan(dev, p, gpu::Options::baseline()).execute(sig.x);

  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), gpu_out.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].loc, parallel[i].loc) << i;
    EXPECT_EQ(serial[i].loc, gpu_out[i].loc) << i;
    EXPECT_NEAR(std::abs(serial[i].val - parallel[i].val), 0.0, 1e-12) << i;
    EXPECT_NEAR(std::abs(serial[i].val - gpu_out[i].val), 0.0, 1e-6) << i;
  }

  // And every backend, including the optimized GPU path, actually solves
  // the problem.
  cusim::Device dev2;
  const auto gpu_opt =
      gpu::GpuPlan(dev2, p, gpu::Options::optimized()).execute(sig.x);
  const cvec oracle = densify(sig.truth, n);
  EXPECT_DOUBLE_EQ(location_recall(serial, oracle, k), 1.0);
  EXPECT_DOUBLE_EQ(location_recall(gpu_opt, oracle, k), 1.0);
  EXPECT_LT(l1_error_per_coeff(serial, oracle, k), 1e-2);
  EXPECT_LT(l1_error_per_coeff(gpu_opt, oracle, k), 1e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BackendGrid,
    ::testing::Values(GridCase{12, 4, false}, GridCase{13, 8, false},
                      GridCase{14, 8, true}, GridCase{14, 24, false},
                      GridCase{15, 16, true}, GridCase{16, 40, false}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.logn) + "_k" +
             std::to_string(info.param.k) +
             (info.param.comb ? "_comb" : "");
    });

TEST(SignalVariants, UniformMagnitudesRecovered) {
  const std::size_t n = 1 << 15, k = 20;
  Rng rng(71);
  signal::SparseSignalParams sp;
  sp.mags = signal::MagnitudeDist::kUniform1to10;
  const auto sig = signal::make_sparse_signal(n, k, rng, sp);
  sfft::Params p;
  p.n = n;
  p.k = k;
  const auto got = sfft::SerialPlan(p).execute(sig.x);
  const cvec oracle = densify(sig.truth, n);
  EXPECT_DOUBLE_EQ(location_recall(got, oracle, k), 1.0);
  // Relative error: magnitudes span [1, 10].
  EXPECT_LT(max_error_at_locs(got, oracle), 0.05);
}

TEST(SignalVariants, ClusteredSpectrumOnGpu) {
  const std::size_t n = 1 << 15, k = 24;
  Rng rng(72);
  const auto sig = signal::make_clustered_signal(n, k, 6, rng);
  sfft::Params p;
  p.n = n;
  p.k = k;
  cusim::Device dev;
  const auto got =
      gpu::GpuPlan(dev, p, gpu::Options::optimized()).execute(sig.x);
  const cvec oracle = densify(sig.truth, n);
  EXPECT_GE(location_recall(got, oracle, k), 0.9);
}

// The flat filter's two contracts, swept over bucket counts: inside its own
// bucket the response must dominate; two buckets away it must be tiny.
class FilterQuality : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FilterQuality, PassbandDominatesTail) {
  const std::size_t B = GetParam();
  const std::size_t n = 1 << 15;
  const auto f = signal::make_flat_filter(n, B);
  const std::size_t half_bucket = n / (2 * B);
  double min_pass = 1e300, max_far = 0.0;
  for (std::size_t d = 0; d <= half_bucket; ++d) {
    min_pass = std::min(min_pass, std::abs(f.freq[d]));
    min_pass = std::min(min_pass, std::abs(f.freq[(n - d) % n]));
  }
  for (std::size_t d = 4 * half_bucket; d <= n / 2; ++d)
    max_far = std::max(max_far, std::abs(f.freq[d]));
  EXPECT_GT(min_pass, 0.15) << "B=" << B;
  EXPECT_LT(max_far, 1e-4) << "B=" << B;
  EXPECT_GT(min_pass, 100.0 * max_far) << "B=" << B;
}

INSTANTIATE_TEST_SUITE_P(Buckets, FilterQuality,
                         ::testing::Values(16, 64, 256, 1024));

// Randomized timeline property: for any batch of items, the makespan is at
// least the largest single item and at most the serialized sum.
TEST(TimelineProperty, MakespanBounds) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    cusim::Timeline tl(1 + rng.next_below(32));
    const std::size_t items = 1 + rng.next_below(40);
    double sum = 0, largest = 0;
    for (std::size_t i = 0; i < items; ++i) {
      cusim::TimelineItem it;
      it.name = "k";
      it.stream = static_cast<cusim::StreamId>(rng.next_below(8));
      it.resource = rng.next_below(4) == 0 ? cusim::Resource::kPcie
                                           : cusim::Resource::kDeviceMemory;
      it.mem_s = rng.next_double() * 1e-3;
      it.compute_s = rng.next_double() * 1e-3;
      const double solo = std::max(it.mem_s, it.compute_s);
      sum += solo + it.mem_s;  // loose upper slack for bandwidth sharing
      largest = std::max(largest, solo);
      tl.submit(it);
    }
    const double makespan = tl.simulate();
    EXPECT_GE(makespan, largest - 1e-12) << trial;
    EXPECT_LE(makespan, sum + 1e-9) << trial;
    // Every item fits inside the makespan with start <= finish.
    for (const auto& s : tl.schedule()) {
      EXPECT_LE(s.start_s, s.finish_s + 1e-15);
      EXPECT_LE(s.finish_s, makespan + 1e-12);
    }
  }
}

TEST(Determinism, TwoPlanInstancesIdenticalOutputs) {
  const std::size_t n = 1 << 14, k = 12;
  Rng rng(1234);
  const auto sig = signal::make_sparse_signal(n, k, rng);
  sfft::Params p;
  p.n = n;
  p.k = k;
  p.seed = 5150;

  cusim::Device dev_a, dev_b;
  const auto a =
      gpu::GpuPlan(dev_a, p, gpu::Options::optimized()).execute(sig.x);
  const auto b =
      gpu::GpuPlan(dev_b, p, gpu::Options::optimized()).execute(sig.x);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].loc, b[i].loc);
    EXPECT_EQ(a[i].val, b[i].val);  // bitwise: same kernels, same order
  }
}

TEST(Determinism, DifferentSeedsDifferentPermutations) {
  const std::size_t n = 1 << 13, k = 8;
  Rng rng(4321);
  const auto sig = signal::make_sparse_signal(n, k, rng);
  sfft::Params pa, pb;
  pa.n = pb.n = n;
  pa.k = pb.k = k;
  pa.seed = 1;
  pb.seed = 2;
  // Both must recover the same spectrum despite different randomness.
  const auto a = sfft::SerialPlan(pa).execute(sig.x);
  const auto b = sfft::SerialPlan(pb).execute(sig.x);
  const cvec oracle = densify(sig.truth, n);
  EXPECT_DOUBLE_EQ(location_recall(a, oracle, k), 1.0);
  EXPECT_DOUBLE_EQ(location_recall(b, oracle, k), 1.0);
}

// End-to-end linearity: sFFT(alpha * x) == alpha * sFFT(x) for exact-sparse
// inputs (all steps are linear except location voting, which is scale
// invariant).
TEST(Properties, ScaleEquivariance) {
  const std::size_t n = 1 << 13, k = 8;
  Rng rng(777);
  const auto sig = signal::make_sparse_signal(n, k, rng);
  cvec scaled(n);
  const cplx alpha{2.0, -1.0};
  for (std::size_t i = 0; i < n; ++i) scaled[i] = alpha * sig.x[i];

  sfft::Params p;
  p.n = n;
  p.k = k;
  sfft::SerialPlan plan(p);
  const auto base = plan.execute(sig.x);
  const auto scl = plan.execute(scaled);
  ASSERT_EQ(base.size(), scl.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].loc, scl[i].loc);
    EXPECT_NEAR(std::abs(scl[i].val - alpha * base[i].val), 0.0, 1e-9) << i;
  }
}

// Time-shift equivariance: shifting the signal rotates each coefficient's
// phase by e^{+2*pi*i*f*s/n} (forward-DFT convention).
TEST(Properties, TimeShiftPhase) {
  const std::size_t n = 1 << 13, k = 6, s = 37;
  Rng rng(888);
  const auto sig = signal::make_sparse_signal(n, k, rng);
  cvec shifted(n);
  for (std::size_t t = 0; t < n; ++t) shifted[t] = sig.x[(t + s) % n];

  sfft::Params p;
  p.n = n;
  p.k = k;
  sfft::SerialPlan plan(p);
  const auto base = plan.execute(sig.x);
  const auto shft = plan.execute(shifted);
  ASSERT_EQ(base.size(), shft.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(base[i].loc, shft[i].loc);
    const double ang = kTwoPi * static_cast<double>(base[i].loc % n) *
                       static_cast<double>(s) / static_cast<double>(n);
    const cplx phase{std::cos(ang), std::sin(ang)};
    EXPECT_NEAR(std::abs(shft[i].val - base[i].val * phase), 0.0, 1e-8) << i;
  }
}


// Alternative window kinds end to end (the paper names Gaussian and
// Dolph-Chebyshev; Kaiser is this library's extra).
class WindowKindE2E
    : public ::testing::TestWithParam<signal::WindowKind> {};

TEST_P(WindowKindE2E, FilterKindRecovers) {
  const std::size_t n = 1 << 14, k = 12;
  Rng rng(73);
  const auto sig = signal::make_sparse_signal(n, k, rng);
  sfft::Params p;
  p.n = n;
  p.k = k;
  p.filter.kind = GetParam();
  const auto got = sfft::SerialPlan(p).execute(sig.x);
  const cvec oracle = densify(sig.truth, n);
  EXPECT_DOUBLE_EQ(location_recall(got, oracle, k), 1.0);
  EXPECT_LT(l1_error_per_coeff(got, oracle, k), 1e-2);
}

INSTANTIATE_TEST_SUITE_P(Kinds, WindowKindE2E,
                         ::testing::Values(signal::WindowKind::kGaussian,
                                           signal::WindowKind::kKaiser));

// Graceful degradation under rising noise: recall must stay perfect while
// the noise is well under the per-tone bucket energy and never crash after.
TEST(SignalVariants, NoiseSweepDegradesGracefully) {
  const std::size_t n = 1 << 14, k = 8;
  sfft::Params p;
  p.n = n;
  p.k = k;
  sfft::SerialPlan plan(p);
  double last_recall = 1.0;
  for (double sigma : {0.0, 1e-6, 1e-5, 1e-4}) {
    Rng rng(74);
    signal::SparseSignalParams sp;
    sp.noise_sigma = sigma;
    const auto sig = signal::make_sparse_signal(n, k, rng, sp);
    const auto got = plan.execute(sig.x);
    const cvec oracle = densify(sig.truth, n);
    const double recall = location_recall(got, oracle, k);
    if (sigma <= 1e-5) {
      EXPECT_DOUBLE_EQ(recall, 1.0) << sigma;
    }
    last_recall = recall;
  }
  EXPECT_GE(last_recall, 0.5);  // even the noisiest case finds most tones
}

TEST(ParamsLimits, ScoreCounterOverflowGuard) {
  sfft::Params p;
  p.n = 1 << 14;
  p.k = 8;
  p.loops_loc = 300;  // would overflow the u8 score array
  p.loc_threshold = 200;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace cusfft
