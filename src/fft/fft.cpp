#include "fft/fft.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <compare>
#include <cstdint>
#include <stdexcept>

#include "core/modmath.hpp"

namespace cusfft::fft {

namespace {

/// Twiddle table of the radix-2 stage of length len:
/// tw[j] = exp(sign * 2*pi*i * j / len), j in [0, len/2). A length-n loop
/// that reads tw_n[j * n/len] at this stage reads the same doubles: n/len
/// and n are powers of two, so both angles round identically.
cvec make_twiddles(std::size_t len, double sign) {
  cvec tw(std::max<std::size_t>(len / 2, 1));
  for (std::size_t j = 0; j < tw.size(); ++j) {
    const double ang = sign * kTwoPi * static_cast<double>(j) /
                       static_cast<double>(len);
    tw[j] = cplx{std::cos(ang), std::sin(ang)};
  }
  return tw;
}

/// Points whose stages run back to back while they sit in cache.
constexpr std::size_t kBlock = 1024;

constexpr std::array<std::uint8_t, 256> kReversedByte = [] {
  std::array<std::uint8_t, 256> r{};
  for (unsigned i = 0; i < 256; ++i)
    for (unsigned b = 0; b < 8; ++b)
      if (i >> b & 1) r[i] |= static_cast<std::uint8_t>(0x80u >> b);
  return r;
}();

/// Swaps a[i] and a[rev(i)] for every i in [b, e) with i < rev(i), where
/// rev reverses the low logn bits. Each pair is swapped by the range that
/// holds its lower index, so disjoint ranges touch disjoint elements.
void bit_reverse(cplx* a, unsigned logn, std::size_t b, std::size_t e) {
  const unsigned pad = (logn + 7) / 8 * 8 - logn;
  for (std::size_t i = b; i < e; ++i) {
    std::size_t r = 0;
    for (unsigned k = 0; k < logn; k += 8)
      r = r << 8 | kReversedByte[i >> k & 0xff];
    r >>= pad;
    if (i < r) std::swap(a[i], a[r]);
  }
}

/// Butterflies j in [j0, j1) of one stage over a[0, 2*half).
void butterflies(cplx* a, std::size_t half, const cplx* tw, std::size_t j0,
                 std::size_t j1) {
  for (std::size_t j = j0; j < j1; ++j) {
    const cplx u = a[j];
    const cplx v = a[j + half] * tw[j];
    a[j] = u + v;
    a[j + half] = u - v;
  }
}

/// Stages 2..len of the bit-reversed block a[0, len), depth-first: a block
/// of at most kBlock points runs its stages in order, a larger one
/// transforms its halves and then combines them. stages[s] is the table of
/// the stage of length 2^s. The butterflies of one stage are independent,
/// so their order does not change a bit of the result.
void depth_first(cplx* a, std::size_t len, const cplx* const* stages) {
  if (len <= kBlock) {
    for (std::size_t s = 1, m = 2; m <= len; ++s, m <<= 1)
      for (std::size_t i = 0; i < len; i += m)
        butterflies(a + i, m / 2, stages[s], 0, m / 2);
    return;
  }
  const std::size_t half = len / 2;
  depth_first(a, half, stages);
  depth_first(a + half, half, stages);
  butterflies(a, half, stages[log2_floor(len)], 0, half);
}

}  // namespace

struct Plan::Impl {
  std::size_t n = 0;
  Direction dir = Direction::kForward;
  bool pow2 = false;

  // --- power-of-two path ---
  unsigned logn = 0;
  cvec twiddles;                     // table of the stage of length n
  std::shared_ptr<const Plan> half;  // plan (n/2, dir): the stages below
  std::vector<const cplx*> stages;   // [s]: table of the stage 2^s, s >= 1

  // --- Bluestein path (arbitrary n) ---
  std::size_t m = 0;                  // padded power-of-two size >= 2n-1
  cvec chirp;                         // c[t] = exp(sign*pi*i*t^2/n), length n
  cvec bfreq;                         // FFT_m of the chirp-conjugate kernel
  std::shared_ptr<const Plan> fwd_m;  // forward plan of size m
  std::shared_ptr<const Plan> inv_m;  // inverse plan of size m

  double sign() const { return dir == Direction::kForward ? -1.0 : 1.0; }

  void scale_inverse(cplx* a, std::size_t b, std::size_t e) const {
    if (dir != Direction::kInverse) return;
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = b; i < e; ++i) a[i] *= inv_n;
  }

  void radix2(cplx* a) const {
    bit_reverse(a, logn, 0, n);
    depth_first(a, n, stages.data());
    scale_inverse(a, 0, n);
  }

  void radix2_parallel(cplx* a, ThreadPool& pool) const {
    pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
      bit_reverse(a, logn, b, e);
    });
    const std::size_t parts = std::min<std::size_t>(
        next_pow2(pool.size()), std::max<std::size_t>(n / kBlock, 1));
    const std::size_t sub = n / parts;
    pool.parallel_for(parts, [&](std::size_t b, std::size_t e) {
      for (std::size_t t = b; t < e; ++t)
        depth_first(a + t * sub, sub, stages.data());
    });
    for (std::size_t len = 2 * sub; len <= n; len <<= 1) {
      const std::size_t h = len / 2;
      const cplx* tw = stages[log2_floor(len)];
      pool.parallel_for(n / 2, [&](std::size_t b, std::size_t e) {
        while (b < e) {  // flattened butterfly index f = block * h + j
          const std::size_t j = b % h, stop = std::min(h, j + (e - b));
          butterflies(a + b / h * len, h, tw, j, stop);
          b += stop - j;
        }
      });
    }
    pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
      scale_inverse(a, b, e);
    });
  }

  void bluestein(std::span<cplx> a) const {
    // y[k] = conj(c[k]) * sum_t x[t] c[t] * conj(c[k-t]) ... expressed as a
    // circular convolution of length m computed with power-of-two FFTs.
    cvec av(m, cplx{});
    for (std::size_t t = 0; t < n; ++t) av[t] = a[t] * chirp[t];
    fwd_m->execute(av);
    for (std::size_t t = 0; t < m; ++t) av[t] *= bfreq[t];
    inv_m->execute(av);
    const double scale =
        dir == Direction::kInverse ? 1.0 / static_cast<double>(n) : 1.0;
    for (std::size_t k = 0; k < n; ++k) a[k] = av[k] * chirp[k] * scale;
  }
};

Plan::Plan(std::size_t n, Direction dir) : impl_(std::make_unique<Impl>()) {
  if (n == 0) throw std::invalid_argument("fft::Plan: n must be >= 1");
  Impl& p = *impl_;
  p.n = n;
  p.dir = dir;
  p.pow2 = is_pow2(n);
  if (p.pow2) {
    if (n == 1) return;
    p.logn = log2_floor(n);
    p.twiddles = make_twiddles(n, p.sign());
    if (n > 2) {
      p.half = get_plan(n / 2, dir);
      p.stages = p.half->impl_->stages;
    } else {
      p.stages.assign(1, nullptr);  // no stage of length 1
    }
    p.stages.push_back(p.twiddles.data());
    return;
  }
  // Bluestein setup. chirp[t] = exp(sign*pi*i*t^2/n); t^2 taken mod 2n keeps
  // the angle argument small (exp is 2n-periodic in t^2/n * pi).
  p.m = next_pow2(2 * n - 1);
  p.chirp.resize(n);
  const double sign = p.sign();
  for (std::size_t t = 0; t < n; ++t) {
    const u64 t2 = mod_mul(t, t, 2 * n);
    const double ang = sign * kPi * static_cast<double>(t2) /
                       static_cast<double>(n);
    p.chirp[t] = cplx{std::cos(ang), std::sin(ang)};
  }
  p.fwd_m = get_plan(p.m, Direction::kForward);
  p.inv_m = get_plan(p.m, Direction::kInverse);
  cvec b(p.m, cplx{});
  b[0] = std::conj(p.chirp[0]);
  for (std::size_t t = 1; t < n; ++t) {
    b[t] = std::conj(p.chirp[t]);
    b[p.m - t] = std::conj(p.chirp[t]);
  }
  p.fwd_m->execute(b);
  p.bfreq = std::move(b);
}

Plan::~Plan() = default;
Plan::Plan(Plan&&) noexcept = default;
Plan& Plan::operator=(Plan&&) noexcept = default;

std::size_t Plan::size() const { return impl_->n; }
Direction Plan::direction() const { return impl_->dir; }

void Plan::execute(std::span<const cplx> in, std::span<cplx> out) const {
  if (in.size() != impl_->n || out.size() != impl_->n)
    throw std::invalid_argument("fft::Plan::execute: size mismatch");
  if (in.data() != out.data()) std::copy(in.begin(), in.end(), out.begin());
  if (impl_->n == 1) return;
  if (impl_->pow2)
    impl_->radix2(out.data());
  else
    impl_->bluestein(out);
}

void Plan::execute_batch(std::span<cplx> data, std::size_t batch) const {
  if (data.size() != batch * impl_->n)
    throw std::invalid_argument("fft::Plan::execute_batch: size mismatch");
  for (std::size_t b = 0; b < batch; ++b)
    execute(data.subspan(b * impl_->n, impl_->n));
}

void Plan::execute_batch(std::span<cplx> data, std::size_t batch,
                         ThreadPool& pool) const {
  if (data.size() != batch * impl_->n)
    throw std::invalid_argument("fft::Plan::execute_batch: size mismatch");
  pool.parallel_for(batch, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
      execute(data.subspan(i * impl_->n, impl_->n));
  });
}

void Plan::execute_parallel(std::span<cplx> data, ThreadPool& pool) const {
  if (data.size() != impl_->n)
    throw std::invalid_argument("fft::Plan::execute_parallel: size mismatch");
  if (impl_->n == 1) return;
  if (impl_->pow2)
    impl_->radix2_parallel(data.data(), pool);
  else
    impl_->bluestein(data);  // Bluestein recurses into pow2 plans; keep serial
}

PlanCost Plan::cost() const {
  const double n = static_cast<double>(impl_->pow2 ? impl_->n : impl_->m);
  const double stages = n > 1 ? static_cast<double>(log2_floor(
                                    static_cast<u64>(n)))
                              : 0.0;
  PlanCost c;
  // Classic radix-2 count: 5 n log2 n flops; one read+write sweep of the
  // 16-byte complex array per stage plus the permutation pass.
  c.flops = 5.0 * n * stages;
  c.bytes = 32.0 * n * (stages + 1.0);
  if (!impl_->pow2) {
    c.flops *= 3.0;  // two forward + one inverse FFT of size m
    c.bytes *= 3.0;
  }
  return c;
}

std::size_t Plan::bytes() const {
  const Impl& p = *impl_;
  std::size_t b =
      sizeof(cplx) * (p.twiddles.size() + p.chirp.size() + p.bfreq.size());
  for (const Plan* q : {p.half.get(), p.fwd_m.get(), p.inv_m.get()})
    if (q) b += q->bytes();
  return b;
}

namespace {

struct PlanKey {
  std::size_t n;
  Direction dir;
  auto operator<=>(const PlanKey&) const = default;
};

using PlanCache = LruCache<PlanKey, Plan>;

PlanCache& plan_cache() {
  static PlanCache* c = new PlanCache(  // leaked: exit-order safe
      kPlanCacheBudgetBytes, [](const Plan& p) { return p.bytes(); });
  return *c;
}

}  // namespace

std::shared_ptr<const Plan> get_plan(std::size_t n, Direction dir) {
  return plan_cache().get(PlanKey{n, dir}, [&] {
    return std::make_shared<const Plan>(n, dir);
  });
}

LruStats plan_cache_stats() { return plan_cache().stats(); }

cvec fft(std::span<const cplx> x) {
  cvec out(x.size());
  get_plan(x.size(), Direction::kForward)->execute(x, out);
  return out;
}

cvec ifft(std::span<const cplx> x) {
  cvec out(x.size());
  get_plan(x.size(), Direction::kInverse)->execute(x, out);
  return out;
}

}  // namespace cusfft::fft
