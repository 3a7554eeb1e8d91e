// Tests for the sFFT 2.0 Comb aliasing prefilter: the aliasing identity,
// residue approval, end-to-end recovery in comb mode, and cross-backend
// agreement.
#include <gtest/gtest.h>

#include <cmath>

#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "cusfft/plan.hpp"
#include "fft/fft.hpp"
#include "psfft/psfft.hpp"
#include "sfft/comb.hpp"
#include "sfft/serial.hpp"
#include "signal/generate.hpp"

namespace cusfft {
namespace {

TEST(CombWidth, DerivationClampsAndRoundsUp) {
  EXPECT_EQ(sfft::comb_width(1 << 20, 100, 8.0), 1024u);  // next_pow2(800)
  EXPECT_EQ(sfft::comb_width(1 << 20, 1, 8.0), 16u);      // floor clamp
  EXPECT_EQ(sfft::comb_width(64, 1000, 8.0), 32u);        // <= n/2 clamp
}

// Time subsampling with stride n/W aliases frequency f onto bin f mod W.
TEST(CombFilter, AliasingIdentity) {
  const std::size_t n = 1 << 12, W = 64;
  const u64 f = 777;  // 777 mod 64 = 9
  SparseSpectrum truth{{f, cplx{1.0, 0.0}}};
  const cvec x = signal::synthesize(truth, n);
  const u64 taus[] = {0};
  const auto comb = sfft::run_comb_filter(x, W, 1, taus);
  ASSERT_EQ(comb.W, W);
  EXPECT_EQ(comb.approved[f % W], 1);
  std::size_t approved = 0;
  for (auto a : comb.approved) approved += a;
  EXPECT_EQ(approved, 1u);  // only the planted residue passes keep=1
}

TEST(CombFilter, UnionOverRounds) {
  const std::size_t n = 1 << 12, W = 64;
  Rng rng(5);
  auto sig = signal::make_sparse_signal(n, 4, rng);
  const u64 taus[] = {3, 917};
  const auto comb = sfft::run_comb_filter(sig.x, W, 8, taus);
  // Every planted residue must be approved (keep=8 >> 4 tones).
  for (const auto& c : sig.truth)
    EXPECT_EQ(comb.approved[c.loc % W], 1) << c.loc;
}

TEST(CombFilter, RejectsBadArgs) {
  cvec x(1 << 10);
  const u64 taus[] = {0};
  EXPECT_THROW(sfft::run_comb_filter(x, 48, 4, taus), std::invalid_argument);
  EXPECT_THROW(sfft::run_comb_filter(x, 2048, 4, taus),
               std::invalid_argument);
  EXPECT_THROW(sfft::run_comb_filter(x, 64, 4, {}), std::invalid_argument);
}

sfft::Params comb_params(std::size_t n, std::size_t k) {
  sfft::Params p;
  p.n = n;
  p.k = k;
  p.comb = true;
  p.seed = 777;
  return p;
}

TEST(CombMode, SerialRecoversSparseSignal) {
  const std::size_t n = 1 << 15, k = 16;
  Rng rng(9);
  auto sig = signal::make_sparse_signal(n, k, rng);
  sfft::SerialPlan plan(comb_params(n, k));
  const auto got = plan.execute(sig.x);
  const cvec oracle = densify(sig.truth, n);
  EXPECT_DOUBLE_EQ(location_recall(got, oracle, k), 1.0);
  EXPECT_LT(l1_error_per_coeff(got, oracle, k), 1e-2);
}

TEST(CombMode, PrunesCandidatesInDenseRegime) {
  // With k large relative to B, plain voting admits many false candidates;
  // the comb filter must shrink the output set.
  const std::size_t n = 1 << 15, k = 128;
  Rng rng(10);
  auto sig = signal::make_sparse_signal(n, k, rng);

  sfft::Params plain = comb_params(n, k);
  plain.comb = false;
  plain.bcst = 1.0;
  sfft::Params withcomb = comb_params(n, k);
  withcomb.bcst = 1.0;

  const auto got_plain = sfft::SerialPlan(plain).execute(sig.x);
  const auto got_comb = sfft::SerialPlan(withcomb).execute(sig.x);
  EXPECT_LT(got_comb.size(), got_plain.size());
  const cvec oracle = densify(sig.truth, n);
  EXPECT_GE(location_recall(got_comb, oracle, k), 0.97);
}

TEST(CombMode, TimersIncludeCombStep) {
  const std::size_t n = 1 << 13, k = 8;
  Rng rng(11);
  auto sig = signal::make_sparse_signal(n, k, rng);
  sfft::SerialPlan plan(comb_params(n, k));
  StepTimers timers;
  plan.execute(sig.x, &timers);
  EXPECT_GT(timers.get(sfft::step::kComb), 0.0);
}

TEST(CombMode, PsfftMatchesSerial) {
  const std::size_t n = 1 << 14, k = 16;
  Rng rng(12);
  auto sig = signal::make_sparse_signal(n, k, rng);
  const auto p = comb_params(n, k);
  const auto a = sfft::SerialPlan(p).execute(sig.x);
  ThreadPool pool(3);
  const auto b = psfft::PsfftPlan(p, pool).execute(sig.x);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].loc, b[i].loc);
    EXPECT_NEAR(std::abs(a[i].val - b[i].val), 0.0, 1e-12);
  }
}

TEST(CombMode, GpuMatchesSerial) {
  const std::size_t n = 1 << 13, k = 8;
  Rng rng(13);
  auto sig = signal::make_sparse_signal(n, k, rng);
  const auto p = comb_params(n, k);
  const auto cpu = sfft::SerialPlan(p).execute(sig.x);
  cusim::Device dev;
  gpu::GpuPlan plan(dev, p, gpu::Options::optimized());
  const auto gpu_out = plan.execute(sig.x);
  ASSERT_EQ(gpu_out.size(), cpu.size());
  for (std::size_t i = 0; i < gpu_out.size(); ++i) {
    EXPECT_EQ(gpu_out[i].loc, cpu[i].loc) << i;
    EXPECT_NEAR(std::abs(gpu_out[i].val - cpu[i].val), 0.0, 1e-6) << i;
  }
}

TEST(CombMode, GpuReportsCombStep) {
  const std::size_t n = 1 << 13, k = 8;
  Rng rng(14);
  auto sig = signal::make_sparse_signal(n, k, rng);
  cusim::Device dev;
  gpu::GpuPlan plan(dev, comb_params(n, k), gpu::Options::baseline());
  plan.execute(sig.x);
  EXPECT_GT(gpu::step_model_ms(dev).at(sfft::step::kComb), 0.0);
}

TEST(CombMode, ValidationRejectsBadCombConfig) {
  sfft::Params p = comb_params(1 << 13, 8);
  p.comb_rounds = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = comb_params(1 << 13, 8);
  p.comb_cst = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}


TEST(CombMode, CombWidthScalesWithK) {
  sfft::Params a = comb_params(1 << 16, 8);
  sfft::Params b = comb_params(1 << 16, 64);
  EXPECT_LT(a.comb_w(), b.comb_w());
  EXPECT_TRUE(is_pow2(a.comb_w()));
  // Off-mode reports zero width.
  a.comb = false;
  EXPECT_EQ(a.comb_w(), 0u);
}

TEST(CombMode, KeepCountFollowsMultiplier) {
  sfft::Params p = comb_params(1 << 14, 10);
  p.comb_keep_mult = 3.0;
  EXPECT_EQ(p.comb_keep(), 30u);
}

TEST(CombMode, GpuCombKernelsCounted) {
  const std::size_t n = 1 << 13, k = 8;
  Rng rng(15);
  auto sig = signal::make_sparse_signal(n, k, rng);
  cusim::Device dev;
  gpu::GpuPlan plan(dev, comb_params(n, k), gpu::Options::baseline());
  plan.execute(sig.x);
  EXPECT_GT(dev.report().count("comb_subsample"), 0u);
  EXPECT_GT(dev.report().count("comb_mark"), 0u);
  // Rounds determine subsample launches.
  EXPECT_EQ(dev.report().at("comb_subsample").launches,
            comb_params(n, k).comb_rounds);
}

}  // namespace
}  // namespace cusfft
