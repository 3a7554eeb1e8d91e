#include "sfft/comb.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/modmath.hpp"
#include "fft/fft.hpp"
#include "sfft/steps.hpp"

namespace cusfft::sfft {

std::size_t comb_width(std::size_t n, std::size_t k, double comb_cst) {
  const u64 cap = n / 2;  // a power of two whenever n is
  const double want = comb_cst * static_cast<double>(k);
  // Clamp before the u64 cast — past 2^63 the cast is UB (comb_cst =
  // 1e300 wrapped instead of saturating at n/2).
  if (!(want < static_cast<double>(cap)))
    return static_cast<std::size_t>(cap);
  const u64 raw = next_pow2(std::max<u64>(16, static_cast<u64>(want)));
  return static_cast<std::size_t>(std::min<u64>(raw, cap));
}

CombFilter run_comb_filter(std::span<const cplx> x, std::size_t W,
                           std::size_t keep, std::span<const u64> taus) {
  const std::size_t n = x.size();
  if (!is_pow2(n) || !is_pow2(W) || W == 0 || W > n)
    throw std::invalid_argument("run_comb_filter: need pow2 W <= pow2 n");
  if (taus.empty())
    throw std::invalid_argument("run_comb_filter: need at least one round");
  keep = std::min(keep, W);

  CombFilter out;
  out.W = W;
  out.approved.assign(W, 0);
  const std::size_t stride = n / W;
  const auto plan = fft::get_plan(W, fft::Direction::kForward);
  cvec y(W);
  for (const u64 tau : taus) {
    for (std::size_t i = 0; i < W; ++i)
      y[i] = x[(i * stride + tau) % n];
    plan->execute(y);
    for (const u32 j : top_buckets(y, keep)) out.approved[j] = 1;
  }
  return out;
}

}  // namespace cusfft::sfft
