#include "signal/filter.hpp"

#include <algorithm>
#include <cmath>
#include <compare>
#include <stdexcept>

#include "core/lru_cache.hpp"
#include "core/modmath.hpp"
#include "fft/fft.hpp"

namespace cusfft::signal {

namespace {
void check_filter_args(std::size_t n, std::size_t B) {
  if (!is_pow2(n)) throw std::invalid_argument("make_flat_filter: n not 2^m");
  if (!is_pow2(B) || B == 0 || B > n)
    throw std::invalid_argument("make_flat_filter: B must be 2^m, <= n");
}
}  // namespace

std::pair<std::size_t, std::size_t> flat_filter_sizes(
    std::size_t n, std::size_t B, const FlatFilterParams& p) {
  check_filter_args(n, B);
  const double lobefrac = p.lobefrac_scale / static_cast<double>(B);
  std::size_t w = window_length(p.kind, lobefrac, p.tolerance);
  if (w > n) w = n;
  std::size_t w_pad = std::min(next_pow2(w), n);
  if (w_pad < B) w_pad = B;
  return {w, w_pad};
}

FlatFilter make_flat_filter(std::size_t n, std::size_t B,
                            const FlatFilterParams& p) {
  check_filter_args(n, B);

  const double lobefrac = p.lobefrac_scale / static_cast<double>(B);
  std::vector<double> win = make_window(p.kind, lobefrac, p.tolerance);
  std::size_t w = win.size();
  if (w > n) {  // degenerate tiny-n case: fall back to the whole signal
    win.resize(n);
    w = n;
  }

  // Memory note: length-n complex temporaries are reused aggressively so
  // at most two of them are live at any moment (a 2^27 plan would otherwise
  // need six 2 GB arrays at once), and only one while the inverse plan is:
  // plans too large for the plan cache live only as long as their users.

  // Place the window centered at t=0 (mod n) so its spectrum is ~real and
  // the boxcar sum below adds in phase.
  cvec G(n, cplx{});
  for (std::size_t j = 0; j < w; ++j)
    G[(j + n - w / 2) % n] = cplx{win[j], 0.0};
  const auto fwd = fft::get_plan(n, fft::Direction::kForward);
  fwd->execute(G);  // in place: G now holds the window spectrum

  // Flatten: H[f] = sum over the width-b boxcar centered on f of G.
  std::size_t b = static_cast<std::size_t>(
      std::llround(p.boxcar_scale * static_cast<double>(n) /
                   static_cast<double>(B)));
  b = std::clamp<std::size_t>(b, 1, n);
  cvec H(n);
  cplx s{};
  for (std::size_t i = 0; i < b; ++i) s += G[i];
  // After the loop below, H[f] = sum_{j=f-b/2}^{f+b-1-b/2} G[j mod n].
  const std::size_t offset = b / 2;
  for (std::size_t i = 0; i < n; ++i) {
    H[(i + offset) % n] = s;
    s += G[(i + b) % n] - G[i];
  }

  G = cvec();
  // In place: H now holds the flattened time response.
  fft::get_plan(n, fft::Direction::kInverse)->execute(H);

  // Truncate back to w_pad taps around t=0 and store them in "applied"
  // order: tap j multiplies the sample at time offset j.
  std::size_t w_pad = std::min(next_pow2(w), n);
  if (w_pad < B) w_pad = B;  // guarantee rounds = w_pad / B >= 1
  FlatFilter out;
  out.w_active = w;
  out.b = b;
  out.time.assign(w_pad, cplx{});
  for (std::size_t j = 0; j < w_pad; ++j)
    out.time[j] = H[(j + n - w_pad / 2) % n];

  // Final frequency response of exactly the taps applied, peak-normalized.
  // G is the padded tap buffer, transformed into H's storage.
  G.assign(n, cplx{});
  std::copy(out.time.begin(), out.time.end(), G.begin());
  fwd->execute(G, H);
  out.freq = std::move(H);
  double peak = 0.0;
  for (const auto& v : out.freq) peak = std::max(peak, std::abs(v));
  if (peak <= 0.0) throw std::runtime_error("make_flat_filter: zero filter");
  const double inv_peak = 1.0 / peak;
  for (auto& v : out.time) v *= inv_peak;
  for (auto& v : out.freq) v *= inv_peak;
  return out;
}

namespace {

struct FilterKey {
  std::size_t n, B;
  WindowKind kind;
  double tolerance, lobefrac_scale, boxcar_scale;
  auto operator<=>(const FilterKey&) const = default;
};

using FilterCache = LruCache<FilterKey, FlatFilter>;

// Entries hold a length-n frequency response each, so keep few.
constexpr std::size_t kFilterCacheCapacity = 8;

FilterCache& filter_cache() {
  static FilterCache* c = new FilterCache(  // leaked: exit-order safe
      kFilterCacheCapacity, [](const FlatFilter&) -> std::size_t { return 1; });
  return *c;
}

}  // namespace

std::shared_ptr<const FlatFilter> get_flat_filter(std::size_t n,
                                                  std::size_t B,
                                                  const FlatFilterParams& p) {
  check_filter_args(n, B);
  // Built outside the lock on a miss (seconds at large n).
  return filter_cache().get(
      FilterKey{n, B, p.kind, p.tolerance, p.lobefrac_scale, p.boxcar_scale},
      [&] {
        return std::make_shared<const FlatFilter>(make_flat_filter(n, B, p));
      });
}

FilterCacheStats flat_filter_cache_stats() {
  const LruStats s = filter_cache().stats();
  return {s.hits, s.misses, s.entries};
}

void flat_filter_cache_clear() { filter_cache().clear(); }

}  // namespace cusfft::signal
