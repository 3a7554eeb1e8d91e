// Unit + property tests for src/fft: plan correctness against the naive DFT
// oracle, round trips, linearity, shift theorem, batching, parallel paths,
// Bluestein sizes; bit-exact oracles against the stage-by-stage radix-2 loop
// the depth-first order replaced; the shared plan cache.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>

#include "core/modmath.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "fft/dft.hpp"
#include "fft/fft.hpp"

namespace cusfft {
namespace {

cvec random_signal(std::size_t n, u64 seed) {
  Rng rng(seed);
  cvec x(n);
  for (auto& v : x) v = cplx{rng.next_normal(), rng.next_normal()};
  return x;
}

double max_abs_diff(const cvec& a, const cvec& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(NaiveDft, MatchesClosedFormImpulse) {
  cvec x(8, cplx{});
  x[0] = {1.0, 0.0};
  cvec X = fft::dft_naive(x);
  for (const auto& v : X) EXPECT_NEAR(std::abs(v - cplx{1.0, 0.0}), 0.0, 1e-12);
}

TEST(NaiveDft, SingleToneLandsAtItsBin) {
  const std::size_t n = 16;
  cvec x(n);
  const std::size_t f = 3;
  for (std::size_t t = 0; t < n; ++t) {
    const double ang = kTwoPi * f * t / n;
    x[t] = cplx{std::cos(ang), std::sin(ang)};
  }
  cvec X = fft::dft_naive(x);
  EXPECT_NEAR(std::abs(X[f]), static_cast<double>(n), 1e-9);
  for (std::size_t i = 0; i < n; ++i) {
    if (i != f) {
      EXPECT_NEAR(std::abs(X[i]), 0.0, 1e-9);
    }
  }
}

TEST(NaiveDft, InverseRoundTrip) {
  cvec x = random_signal(12, 5);
  EXPECT_LT(max_abs_diff(fft::idft_naive(fft::dft_naive(x)), x), 1e-10);
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  cvec x = random_signal(n, 100 + n);
  cvec expect = fft::dft_naive(x);
  cvec got = fft::fft(x);
  EXPECT_LT(max_abs_diff(got, expect), 1e-8 * std::sqrt(double(n)))
      << "n=" << n;
}

TEST_P(FftSizes, InverseRoundTrip) {
  const std::size_t n = GetParam();
  cvec x = random_signal(n, 200 + n);
  EXPECT_LT(max_abs_diff(fft::ifft(fft::fft(x)), x), 1e-9) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024));
INSTANTIATE_TEST_SUITE_P(Bluestein, FftSizes,
                         ::testing::Values(3, 5, 6, 7, 12, 100, 243, 1000));

TEST(FftPlan, RejectsZeroSize) {
  EXPECT_THROW(fft::Plan(0, fft::Direction::kForward), std::invalid_argument);
}

TEST(FftPlan, RejectsSizeMismatch) {
  fft::Plan p(8, fft::Direction::kForward);
  cvec x(4);
  EXPECT_THROW(p.execute(x), std::invalid_argument);
}

TEST(FftPlan, OutOfPlaceLeavesInputIntact) {
  cvec x = random_signal(64, 7);
  cvec keep = x;
  cvec out(64);
  fft::Plan p(64, fft::Direction::kForward);
  p.execute(x, out);
  EXPECT_EQ(x, keep);
  EXPECT_LT(max_abs_diff(out, fft::dft_naive(keep)), 1e-8);
}

TEST(FftPlan, PlanIsReusable) {
  fft::Plan p(128, fft::Direction::kForward);
  for (int rep = 0; rep < 3; ++rep) {
    cvec x = random_signal(128, 300 + rep);
    cvec out(128);
    p.execute(x, out);
    EXPECT_LT(max_abs_diff(out, fft::dft_naive(x)), 1e-8) << rep;
  }
}

TEST(FftProperties, Linearity) {
  const std::size_t n = 256;
  cvec a = random_signal(n, 1), b = random_signal(n, 2);
  const cplx alpha{1.5, -0.5};
  cvec mix(n);
  for (std::size_t i = 0; i < n; ++i) mix[i] = alpha * a[i] + b[i];
  cvec fa = fft::fft(a), fb = fft::fft(b), fmix = fft::fft(mix);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(fmix[i] - (alpha * fa[i] + fb[i])), 0.0, 1e-8);
}

TEST(FftProperties, ParsevalEnergyPreserved) {
  const std::size_t n = 512;
  cvec x = random_signal(n, 3);
  cvec X = fft::fft(x);
  double et = 0, ef = 0;
  for (const auto& v : x) et += std::norm(v);
  for (const auto& v : X) ef += std::norm(v);
  EXPECT_NEAR(ef, et * n, et * n * 1e-12);
}

TEST(FftProperties, TimeShiftIsLinearPhase) {
  const std::size_t n = 128, s = 5;
  cvec x = random_signal(n, 4);
  cvec xs(n);
  for (std::size_t t = 0; t < n; ++t) xs[t] = x[(t + s) % n];
  cvec X = fft::fft(x), Xs = fft::fft(xs);
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = kTwoPi * static_cast<double>(k * s) / n;
    const cplx phase{std::cos(ang), std::sin(ang)};
    EXPECT_NEAR(std::abs(Xs[k] - X[k] * phase), 0.0, 1e-8) << k;
  }
}

TEST(FftBatch, MatchesPerTransform) {
  const std::size_t n = 64, batch = 5;
  cvec data = random_signal(n * batch, 6);
  cvec expect = data;
  fft::Plan p(n, fft::Direction::kForward);
  for (std::size_t b = 0; b < batch; ++b)
    p.execute(std::span<cplx>(expect).subspan(b * n, n));
  p.execute_batch(data, batch);
  EXPECT_LT(max_abs_diff(data, expect), 0.0 + 1e-12);
}

TEST(FftBatch, ParallelMatchesSerial) {
  const std::size_t n = 64, batch = 9;
  cvec a = random_signal(n * batch, 8);
  cvec b = a;
  fft::Plan p(n, fft::Direction::kForward);
  p.execute_batch(a, batch);
  ThreadPool pool(4);
  p.execute_batch(b, batch, pool);
  EXPECT_LT(max_abs_diff(a, b), 1e-12);
}

bool same_bytes(const cvec& a, const cvec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

TEST(FftParallel, LargeTransformMatchesSerial) {
  ThreadPool pool(4);
  for (const std::size_t n : {std::size_t{1} << 12, std::size_t{1} << 20}) {
    for (const auto dir : {fft::Direction::kForward, fft::Direction::kInverse}) {
      cvec a = random_signal(n, 9);
      cvec b = a;
      const auto p = fft::get_plan(n, dir);
      p->execute(a);
      p->execute_parallel(b, pool);
      EXPECT_TRUE(same_bytes(a, b)) << "n=" << n;
    }
  }
}

TEST(FftParallel, InverseParallelRoundTrip) {
  const std::size_t n = 1 << 10;
  cvec x = random_signal(n, 10);
  cvec y = x;
  ThreadPool pool(3);
  fft::Plan fwd(n, fft::Direction::kForward);
  fft::Plan inv(n, fft::Direction::kInverse);
  fwd.execute_parallel(y, pool);
  inv.execute_parallel(y, pool);
  EXPECT_LT(max_abs_diff(x, y), 1e-9);
}

TEST(FftCost, GrowsNLogN) {
  fft::Plan small(1 << 10, fft::Direction::kForward);
  fft::Plan big(1 << 20, fft::Direction::kForward);
  const auto cs = small.cost(), cb = big.cost();
  EXPECT_GT(cs.flops, 0.0);
  EXPECT_NEAR(cb.flops / cs.flops, (20.0 * (1 << 20)) / (10.0 * (1 << 10)),
              1e-9);
  EXPECT_GT(cb.bytes, cs.bytes);
}


TEST(FftCost, BluesteinCostsMoreThanPow2) {
  fft::Plan pow2(1024, fft::Direction::kForward);
  fft::Plan blue(1000, fft::Direction::kForward);
  EXPECT_GT(blue.cost().flops, pow2.cost().flops);
  EXPECT_GT(blue.cost().bytes, pow2.cost().bytes);
}

TEST(FftPlan, MoveTransfersOwnership) {
  fft::Plan a(64, fft::Direction::kForward);
  fft::Plan b = std::move(a);
  cvec x = random_signal(64, 11);
  cvec out(64);
  b.execute(x, out);
  EXPECT_LT(max_abs_diff(out, fft::dft_naive(x)), 1e-8);
}

TEST(FftProperties, ImpulseAndDcPairs) {
  // FFT of a constant is an impulse at bin 0 and vice versa.
  const std::size_t n = 128;
  cvec ones(n, cplx{1.0, 0.0});
  cvec F = fft::fft(ones);
  EXPECT_NEAR(std::abs(F[0] - cplx{double(n), 0.0}), 0.0, 1e-9);
  for (std::size_t i = 1; i < n; ++i)
    ASSERT_NEAR(std::abs(F[i]), 0.0, 1e-9) << i;
  cvec impulse(n, cplx{});
  impulse[0] = {1.0, 0.0};
  cvec G = fft::fft(impulse);
  for (const auto& v : G)
    ASSERT_NEAR(std::abs(v - cplx{1.0, 0.0}), 0.0, 1e-12);
}

TEST(FftProperties, ConjugateSymmetryForRealInput) {
  const std::size_t n = 256;
  Rng rng(12);
  cvec x(n);
  for (auto& v : x) v = cplx{rng.next_normal(), 0.0};
  cvec X = fft::fft(x);
  for (std::size_t k = 1; k < n; ++k)
    ASSERT_NEAR(std::abs(X[k] - std::conj(X[n - k])), 0.0, 1e-8) << k;
}

// --- Bit-exact oracle: the stage-by-stage radix-2 loop with one n/2-entry
// twiddle table and a bit-reversal table, as src/fft ran it before the
// depth-first order. execute() must match it byte for byte.

std::vector<u32> ref_bitrev(std::size_t n) {
  std::vector<u32> rev(n);
  const unsigned logn = log2_floor(n);
  for (std::size_t i = 0; i < n; ++i) {
    u32 r = 0;
    for (unsigned b = 0; b < logn; ++b)
      if (i >> b & 1) r |= 1u << (logn - 1 - b);
    rev[i] = r;
  }
  return rev;
}

cvec ref_twiddles(std::size_t n, double sign) {
  cvec tw(std::max<std::size_t>(n / 2, 1));
  for (std::size_t j = 0; j < tw.size(); ++j) {
    const double ang = sign * kTwoPi * static_cast<double>(j) /
                       static_cast<double>(n);
    tw[j] = cplx{std::cos(ang), std::sin(ang)};
  }
  return tw;
}

double ref_sign(fft::Direction dir) {
  return dir == fft::Direction::kForward ? -1.0 : 1.0;
}

void ref_radix2(cvec& a, fft::Direction dir) {
  const std::size_t n = a.size();
  if (n == 1) return;
  const std::vector<u32> bitrev = ref_bitrev(n);
  const cvec twiddles = ref_twiddles(n, ref_sign(dir));
  for (std::size_t i = 0; i < n; ++i) {
    const u32 r = bitrev[i];
    if (i < r) std::swap(a[i], a[r]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    const std::size_t step = n / len;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t j = 0; j < half; ++j) {
        const cplx w = twiddles[j * step];
        const cplx u = a[i + j];
        const cplx v = a[i + j + half] * w;
        a[i + j] = u + v;
        a[i + j + half] = u - v;
      }
    }
  }
  if (dir == fft::Direction::kInverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& x : a) x *= inv_n;
  }
}

/// Bluestein's chirp-z on the reference radix-2 loop.
void ref_bluestein(cvec& a, fft::Direction dir) {
  const std::size_t n = a.size();
  const std::size_t m = next_pow2(2 * n - 1);
  const double sign = ref_sign(dir);
  cvec chirp(n);
  for (std::size_t t = 0; t < n; ++t) {
    const u64 t2 = mod_mul(t, t, 2 * n);
    const double ang = sign * kPi * static_cast<double>(t2) /
                       static_cast<double>(n);
    chirp[t] = cplx{std::cos(ang), std::sin(ang)};
  }
  cvec bfreq(m, cplx{});
  bfreq[0] = std::conj(chirp[0]);
  for (std::size_t t = 1; t < n; ++t) {
    bfreq[t] = std::conj(chirp[t]);
    bfreq[m - t] = std::conj(chirp[t]);
  }
  ref_radix2(bfreq, fft::Direction::kForward);
  cvec av(m, cplx{});
  for (std::size_t t = 0; t < n; ++t) av[t] = a[t] * chirp[t];
  ref_radix2(av, fft::Direction::kForward);
  for (std::size_t t = 0; t < m; ++t) av[t] *= bfreq[t];
  ref_radix2(av, fft::Direction::kInverse);
  const double scale =
      dir == fft::Direction::kInverse ? 1.0 / static_cast<double>(n) : 1.0;
  for (std::size_t k = 0; k < n; ++k) a[k] = av[k] * chirp[k] * scale;
}

void expect_matches_reference(std::size_t n) {
  for (const auto dir : {fft::Direction::kForward, fft::Direction::kInverse}) {
    cvec want = random_signal(n, 400 + n);
    cvec got = want;
    if (is_pow2(n))
      ref_radix2(want, dir);
    else
      ref_bluestein(want, dir);
    fft::get_plan(n, dir)->execute(got);
    EXPECT_TRUE(same_bytes(got, want))
        << "n=" << n << (dir == fft::Direction::kForward ? " fwd" : " inv");
  }
}

TEST(FftOracle, Pow2UpTo2e20MatchesReferenceBytes) {
  for (unsigned logn = 1; logn <= 20; ++logn)
    expect_matches_reference(std::size_t{1} << logn);
}

// The two largest sizes run as their own tests so ctest -j overlaps them.
TEST(FftOracle, Pow2e21MatchesReferenceBytes) {
  expect_matches_reference(std::size_t{1} << 21);
}

TEST(FftOracle, Pow2e22MatchesReferenceBytes) {
  expect_matches_reference(std::size_t{1} << 22);
}

// 18915 is the longest Dolph-Chebyshev window the benchmark's cold jobs build.
TEST(FftOracle, BluesteinMatchesReferenceBytes) {
  for (const std::size_t n : {3, 5, 12, 100, 243, 1000, 10000, 18915})
    expect_matches_reference(n);
}

// --- The process-wide plan cache.

TEST(FftPlanCache, OnePlanPerSizeAndDirection) {
  const auto a = fft::get_plan(1024, fft::Direction::kForward);
  const auto b = fft::get_plan(1024, fft::Direction::kForward);
  const auto c = fft::get_plan(1024, fft::Direction::kInverse);
  const auto d = fft::get_plan(1000, fft::Direction::kForward);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(d.get(), fft::get_plan(1000, fft::Direction::kForward).get());
  EXPECT_EQ(a->size(), 1024u);
  EXPECT_EQ(c->direction(), fft::Direction::kInverse);
}

TEST(FftPlanCache, ConcurrentFirstTouchGivesIdenticalBytes) {
  const std::vector<std::size_t> sizes = {1 << 10, 1 << 13, 1 << 16, 1000,
                                          18915};
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<cvec>> out(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (const std::size_t n : sizes) {
        const cvec x = random_signal(n, 500 + n);
        out[t].push_back(fft::fft(x));
        out[t].push_back(fft::ifft(x));
      }
    });
  for (auto& th : threads) th.join();
  for (std::size_t t = 1; t < kThreads; ++t)
    for (std::size_t i = 0; i < out[0].size(); ++i)
      EXPECT_TRUE(same_bytes(out[t][i], out[0][i])) << "thread " << t;
  for (const std::size_t n : sizes) {
    const auto p = fft::get_plan(n, fft::Direction::kForward);
    EXPECT_EQ(p.get(), fft::get_plan(n, fft::Direction::kForward).get());
  }
}

TEST(FftPlanCache, RetainedBytesStayWithinBudget) {
  std::weak_ptr<const fft::Plan> largest;
  for (unsigned logn = 10; logn <= 22; ++logn) {
    const auto p = fft::get_plan(std::size_t{1} << logn,
                                 fft::Direction::kForward);
    EXPECT_LE(fft::plan_cache_stats().cost, fft::kPlanCacheBudgetBytes);
    largest = p;
  }
  EXPECT_TRUE(largest.expired()) << "a 2^22 plan outlived its last user";
  EXPECT_LE(fft::plan_cache_stats().cost, fft::kPlanCacheBudgetBytes);
  // Everything up to 2^16 fits at once in both directions.
  for (unsigned logn = 1; logn <= 16; ++logn)
    for (const auto dir : {fft::Direction::kForward, fft::Direction::kInverse})
      fft::get_plan(std::size_t{1} << logn, dir);
  const auto before = fft::plan_cache_stats();
  for (unsigned logn = 1; logn <= 16; ++logn)
    for (const auto dir : {fft::Direction::kForward, fft::Direction::kInverse})
      fft::get_plan(std::size_t{1} << logn, dir);
  EXPECT_EQ(fft::plan_cache_stats().misses, before.misses);
}

}  // namespace
}  // namespace cusfft
