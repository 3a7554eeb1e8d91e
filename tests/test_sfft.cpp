// Tests for the serial sparse FFT: parameter derivation, the binning
// identity, hash/estimate consistency on planted tones, and end-to-end
// recovery sweeps (the algorithm's headline contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <thread>

#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "fft/dft.hpp"
#include "fft/fft.hpp"
#include "sfft/inverse.hpp"
#include "sfft/serial.hpp"
#include "sfft/steps.hpp"
#include "signal/generate.hpp"

namespace cusfft {
namespace {

using sfft::LoopPerm;
using sfft::Params;
using sfft::SerialPlan;

Params small_params(std::size_t n, std::size_t k) {
  Params p;
  p.n = n;
  p.k = k;
  p.seed = 99;
  return p;
}

TEST(SfftParams, BucketDerivation) {
  Params p = small_params(1 << 18, 1000);
  const std::size_t B = p.buckets();
  EXPECT_TRUE(is_pow2(B));
  EXPECT_LE(B, p.n);
  // Nearest power of two: within sqrt(2) of bcst*sqrt(nk/log2 n).
  const double raw = 4.0 * std::sqrt((1 << 18) * 1000.0 / 18.0);
  EXPECT_GE(static_cast<double>(B), raw / std::sqrt(2.0) - 1.0);
  EXPECT_LE(static_cast<double>(B), raw * std::sqrt(2.0) + 1.0);
}

TEST(SfftParams, ThresholdAndCutoffDefaults) {
  Params p = small_params(1 << 16, 10);
  p.loops_loc = 6;
  EXPECT_EQ(p.threshold(), 4u);  // 6/2 + 1
  p.loc_threshold = 5;
  EXPECT_EQ(p.threshold(), 5u);
  EXPECT_LE(p.cutoff(), p.buckets());
}

TEST(SfftParams, ValidationRejectsBadConfigs) {
  Params p = small_params(1 << 16, 10);
  p.n = 1000;  // not a power of two
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = small_params(1 << 16, 0);
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = small_params(1 << 16, 10);
  p.loops_loc = 2;
  p.loc_threshold = 3;  // threshold > loops
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(SfftSteps, DrawLoopPermsInvertible) {
  Rng rng(5);
  const std::size_t n = 1 << 12;
  auto perms = sfft::draw_loop_perms(n, 16, rng);
  ASSERT_EQ(perms.size(), 16u);
  for (const auto& p : perms) {
    EXPECT_EQ(mod_mul(p.ai, p.a, n), 1u);
    EXPECT_LT(p.tau, n);
  }
}

// The binning identity: FFT_B(bin_permuted(x)) must equal hat(y*g) sampled
// at multiples of n/B, where y is the permuted signal and g the filter taps.
TEST(SfftSteps, BinningMatchesConvolutionTheorem) {
  const std::size_t n = 1 << 10, B = 16;
  Rng rng(21);
  auto sig = signal::make_sparse_signal(n, 3, rng);
  auto filter = signal::make_flat_filter(n, B);

  LoopPerm perm;
  perm.ai = 77;  // odd
  perm.a = mod_inverse(77, n);
  perm.tau = 123;

  cvec z(B);
  sfft::bin_permuted(sig.x, filter.time, perm, z);
  cvec buckets = fft::fft(z);

  // Direct evaluation: y[t] = x[(tau + t*ai) % n]; yg = y .* g (g padded).
  cvec yg(n, cplx{});
  for (std::size_t t = 0; t < filter.time.size(); ++t)
    yg[t] = sig.x[(perm.tau + t * perm.ai) % n] * filter.time[t];
  cvec YG = fft::fft(yg);
  for (std::size_t m = 0; m < B; ++m)
    ASSERT_NEAR(std::abs(buckets[m] - YG[m * (n / B)]), 0.0, 1e-9) << m;
}

// The blocked/SoA inner loop must be bit-identical to the scalar reference
// (same adds in the same order, complex multiply lowered to the same
// (ac-bd, ad+bc) form), across shapes, strides, and non-zero accumulator
// starting states.
TEST(SfftSteps, BinPermutedSoaBitIdenticalToReference) {
  struct Shape {
    std::size_t n, B, w;
    u64 ai, tau, seed;
  };
  const Shape shapes[] = {
      {1 << 10, 16, 1 << 10, 77, 123, 21},
      {1 << 12, 64, 3000, 4097, 0, 22},       // w not a multiple of B
      {1 << 14, 256, 1 << 13, 12345, 999, 23},
      {1 << 10, 16, 17, 3, 5, 24},            // w < B tail-only case
  };
  for (const Shape& s : shapes) {
    Rng rng(s.seed);
    auto sig = signal::make_sparse_signal(s.n, 4, rng);
    auto filter = signal::make_flat_filter(s.n, s.B);
    cvec taps(filter.time.begin(),
              filter.time.begin() +
                  std::min<std::size_t>(s.w, filter.time.size()));

    LoopPerm perm;
    perm.ai = s.ai;
    perm.a = mod_inverse(s.ai, s.n);
    perm.tau = s.tau;

    // Non-zero accumulators: bin_permuted adds into z, so the starting
    // state must flow through both paths identically.
    cvec z_soa(s.B), z_ref(s.B);
    for (std::size_t i = 0; i < s.B; ++i)
      z_soa[i] = z_ref[i] =
          cplx{static_cast<double>(i) * 0.25, -static_cast<double>(i)};

    sfft::bin_permuted(sig.x, taps, perm, z_soa);
    sfft::bin_permuted_reference(sig.x, taps, perm, z_ref);
    ASSERT_EQ(z_soa.size(), z_ref.size());
    EXPECT_EQ(std::memcmp(z_soa.data(), z_ref.data(),
                          z_soa.size() * sizeof(cplx)),
              0)
        << "n=" << s.n << " B=" << s.B << " w=" << s.w;
  }
}

TEST(SfftSteps, TopBucketsFindsLargest) {
  cvec buckets(8, cplx{0.01, 0.0});
  buckets[2] = {5.0, 0.0};
  buckets[6] = {0.0, -4.0};
  auto top = sfft::top_buckets(buckets, 2);
  std::set<u32> got(top.begin(), top.end());
  EXPECT_EQ(got, (std::set<u32>{2, 6}));
  EXPECT_EQ(sfft::top_buckets(buckets, 100).size(), 8u);
}

TEST(SfftSteps, HashLocationRoundTripsThroughVoteRegion) {
  const std::size_t n = 1 << 12, B = 32;
  Rng rng(22);
  auto perms = sfft::draw_loop_perms(n, 8, rng);
  for (const auto& perm : perms) {
    for (u64 f : {u64{0}, u64{17}, u64{n / 2}, u64{n - 1}}) {
      const auto h = sfft::hash_location(f, perm, n, B);
      // Vote the region of the bucket f hashed to; f itself must be voted.
      std::vector<std::uint8_t> score(n, 0);
      std::vector<u64> hits;
      const u32 j = static_cast<u32>(h.bucket);
      sfft::vote_locations(std::span<const u32>(&j, 1), perm, n, B, 1, score,
                           hits);
      EXPECT_EQ(score[f], 1) << "f=" << f << " ai=" << perm.ai;
    }
  }
}

TEST(SfftSteps, VoteRegionWidthIsNdivB) {
  const std::size_t n = 1 << 10, B = 16;
  LoopPerm perm;
  perm.ai = 5;
  perm.a = mod_inverse(5, n);
  perm.tau = 0;
  std::vector<std::uint8_t> score(n, 0);
  std::vector<u64> hits;
  const u32 j = 3;
  sfft::vote_locations(std::span<const u32>(&j, 1), perm, n, B, 1, score,
                       hits);
  std::size_t votes = 0;
  for (auto s : score) votes += s;
  EXPECT_EQ(votes, n / B);
  EXPECT_EQ(hits.size(), n / B);  // threshold 1: every voted loc is a hit
}

TEST(SfftSteps, MedianComplexComponentwise) {
  cvec v{{1, 9}, {2, 8}, {3, 7}, {4, 6}, {5, 5}};
  EXPECT_EQ(sfft::median_complex(v), cplx(3, 7));
  cvec single{{2, -4}};
  EXPECT_EQ(sfft::median_complex(single), cplx(2, -4));
  cvec empty;
  EXPECT_EQ(sfft::median_complex(empty), cplx(0, 0));
}

// A single planted tone must be estimated to its exact value from the
// buckets of several random loops.
TEST(SfftSteps, EstimateRecoversPlantedTone) {
  const std::size_t n = 1 << 12, B = 64;
  auto filter = signal::make_flat_filter(n, B);
  Rng rng(23);
  const u64 f = 777;
  const cplx c{0.8, -1.1};
  SparseSpectrum truth{{f, c}};
  cvec x = signal::synthesize(truth, n);

  const std::size_t L = 5;
  auto perms = sfft::draw_loop_perms(n, L, rng);
  std::vector<cvec> bucket_sets(L, cvec(B));
  fft::Plan bfft(B, fft::Direction::kForward);
  for (std::size_t r = 0; r < L; ++r) {
    sfft::bin_permuted(x, filter.time, perms[r], bucket_sets[r]);
    bfft.execute(bucket_sets[r]);
  }
  const cplx est =
      sfft::estimate_coef(f, perms, bucket_sets, filter.freq, n, B);
  EXPECT_NEAR(std::abs(est - c), 0.0, 1e-3);
}

// ---------- End-to-end recovery ----------

struct EndToEndCase {
  std::size_t n;
  std::size_t k;
};

class SfftEndToEnd : public ::testing::TestWithParam<EndToEndCase> {};

TEST_P(SfftEndToEnd, RecoversExactlySparseSignal) {
  const auto [n, k] = GetParam();
  Params p = small_params(n, k);
  SerialPlan plan(p);
  Rng rng(1000 + n + k);
  auto sig = signal::make_sparse_signal(n, k, rng);
  auto got = plan.execute(sig.x);

  cvec oracle = densify(sig.truth, n);
  EXPECT_DOUBLE_EQ(location_recall(got, oracle, k), 1.0);
  EXPECT_LT(max_error_at_locs(got, oracle), 1e-2);
  EXPECT_LT(l1_error_per_coeff(got, oracle, k), 1e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SfftEndToEnd,
    ::testing::Values(EndToEndCase{1 << 12, 4}, EndToEndCase{1 << 13, 8},
                      EndToEndCase{1 << 14, 16}, EndToEndCase{1 << 15, 32},
                      EndToEndCase{1 << 16, 50}, EndToEndCase{1 << 17, 64}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.k);
    });

TEST(SfftEndToEnd, DeterministicForFixedSeed) {
  Params p = small_params(1 << 13, 8);
  SerialPlan plan(p);
  Rng rng(77);
  auto sig = signal::make_sparse_signal(1 << 13, 8, rng);
  auto a = plan.execute(sig.x);
  auto b = plan.execute(sig.x);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].loc, b[i].loc);
    EXPECT_EQ(a[i].val, b[i].val);
  }
}

TEST(SfftEndToEnd, ClusteredFrequenciesStillRecovered) {
  const std::size_t n = 1 << 14, k = 16;
  Params p = small_params(n, k);
  SerialPlan plan(p);
  Rng rng(31);
  auto sig = signal::make_clustered_signal(n, k, 4, rng);
  auto got = plan.execute(sig.x);
  cvec oracle = densify(sig.truth, n);
  EXPECT_GE(location_recall(got, oracle, k), 0.9);
  EXPECT_LT(l1_error_per_coeff(got, oracle, k), 0.2);
}

TEST(SfftEndToEnd, ToleratesModerateNoise) {
  const std::size_t n = 1 << 14, k = 8;
  Params p = small_params(n, k);
  SerialPlan plan(p);
  Rng rng(32);
  signal::SparseSignalParams sp;
  sp.noise_sigma = 1e-4;  // well below the per-tone time amplitude k/n
  auto sig = signal::make_sparse_signal(n, k, rng, sp);
  auto got = plan.execute(sig.x);
  cvec oracle = densify(sig.truth, n);
  EXPECT_GE(location_recall(got, oracle, k), 0.9);
}

TEST(SfftEndToEnd, StepTimersCoverAllSixSteps) {
  Params p = small_params(1 << 13, 8);
  SerialPlan plan(p);
  Rng rng(33);
  auto sig = signal::make_sparse_signal(1 << 13, 8, rng);
  StepTimers timers;
  plan.execute(sig.x, &timers);
  EXPECT_GT(timers.get(sfft::step::kPermFilter), 0.0);
  EXPECT_GT(timers.get(sfft::step::kSubFft), 0.0);
  EXPECT_GE(timers.get(sfft::step::kCutoff), 0.0);
  EXPECT_GE(timers.get(sfft::step::kLocRecover), 0.0);
  EXPECT_GE(timers.get(sfft::step::kEstimate), 0.0);
  EXPECT_EQ(timers.all().size(), 5u);
}

TEST(SfftEndToEnd, OutputSortedAndUnique) {
  Params p = small_params(1 << 14, 16);
  SerialPlan plan(p);
  Rng rng(34);
  auto sig = signal::make_sparse_signal(1 << 14, 16, rng);
  auto got = plan.execute(sig.x);
  for (std::size_t i = 1; i < got.size(); ++i)
    EXPECT_LT(got[i - 1].loc, got[i].loc);
}


// Sparse inverse: a dense frequency-domain input with few dominant
// time-domain components (the GPS-acquisition shape).
TEST(SparseInverse, RecoversTimeDomainPeaks) {
  const std::size_t n = 1 << 13;
  Rng rng(606);
  // Build the time-domain truth: 3 spikes.
  cvec x(n, cplx{});
  const u64 spikes[] = {100, 5000, 8000};
  for (u64 s : spikes)
    x[s] = cplx{1.0 + rng.next_double(), rng.next_double()};
  const cvec Y = fft::fft(x);  // dense frequency-domain signal

  Params p = small_params(n, 3);
  SerialPlan plan(p);
  const auto got = sfft::sparse_inverse(plan, Y);

  cvec oracle = x;  // "spectrum" of the inverse problem is x itself
  EXPECT_DOUBLE_EQ(location_recall(got, oracle, 3), 1.0);
  for (const auto& c : got) {
    if (c.loc == 100 || c.loc == 5000 || c.loc == 8000) {
      EXPECT_NEAR(std::abs(c.val - x[c.loc]), 0.0, 1e-6) << c.loc;
    }
  }
}


// Reproduction note (DESIGN.md §6): the paper's Algorithm 5 omits the tau
// phase correction. This test demonstrates why we added it: estimating the
// same planted tone *without* unrolling the phase gives loop-dependent
// rotated values whose component-wise median is badly wrong.
TEST(SfftSteps, EstimateWithoutTauPhaseIsWrong) {
  const std::size_t n = 1 << 12, B = 64;
  auto filter = signal::make_flat_filter(n, B);
  Rng rng(23);
  const u64 f = 777;
  const cplx c{0.8, -1.1};
  cvec x = signal::synthesize({{f, c}}, n);

  const std::size_t L = 7;
  auto perms = sfft::draw_loop_perms(n, L, rng);
  std::vector<cvec> bucket_sets(L, cvec(B));
  fft::Plan bfft(B, fft::Direction::kForward);
  for (std::size_t r = 0; r < L; ++r) {
    sfft::bin_permuted(x, filter.time, perms[r], bucket_sets[r]);
    bfft.execute(bucket_sets[r]);
  }
  // Correct estimator (with phase): exact.
  const cplx with_phase =
      sfft::estimate_coef(f, perms, bucket_sets, filter.freq, n, B);
  EXPECT_NEAR(std::abs(with_phase - c), 0.0, 1e-3);

  // Algorithm 5 as printed (no phase): median of rotated values.
  cvec vals(L);
  for (std::size_t r = 0; r < L; ++r) {
    const auto h = sfft::hash_location(f, perms[r], n, B);
    vals[r] = bucket_sets[r][h.bucket] * static_cast<double>(n) /
              filter.freq[h.freq_index];
  }
  const cplx without_phase = sfft::median_complex(vals);
  EXPECT_GT(std::abs(without_phase - c), 0.1);
}

TEST(SfftEndToEnd, ZeroSignalYieldsOnlyNegligibleValues) {
  const std::size_t n = 1 << 13, k = 8;
  Params p = small_params(n, k);
  SerialPlan plan(p);
  const cvec zeros(n, cplx{});
  const auto got = plan.execute(zeros);
  for (const auto& c : got)
    EXPECT_LT(std::abs(c.val), 1e-12) << c.loc;
}

TEST(SfftEndToEnd, ConstPlanIsThreadSafe) {
  // execute() is const and uses only locals: two threads sharing one plan
  // must produce identical, correct results.
  const std::size_t n = 1 << 13, k = 8;
  Params p = small_params(n, k);
  SerialPlan plan(p);
  Rng rng(808);
  auto sig_a = signal::make_sparse_signal(n, k, rng);
  auto sig_b = signal::make_sparse_signal(n, k, rng);
  SparseSpectrum ra, rb;
  {
    std::thread ta([&] { ra = plan.execute(sig_a.x); });
    std::thread tb([&] { rb = plan.execute(sig_b.x); });
    ta.join();
    tb.join();
  }
  EXPECT_DOUBLE_EQ(location_recall(ra, densify(sig_a.truth, n), k), 1.0);
  EXPECT_DOUBLE_EQ(location_recall(rb, densify(sig_b.truth, n), k), 1.0);
}

}  // namespace
}  // namespace cusfft
