// The flat window function (paper Section III, step 2): a Dolph-Chebyshev
// (or Gaussian) window whose spectrum is convolved with a width-b boxcar so
// the response is nearly flat across one bucket (n/B bins) and decays
// exponentially outside. Both representations the algorithm needs are kept
// consistent by construction:
//   * `time` — the w_pad taps actually applied in the binning loop
//     (bucket[i % B] += x[index(i)] * time[i]), zero-padded to a power of
//     two >= B so the GPU loop-partition kernel gets an integral number of
//     rounds (the paper notes filter_size and B are both powers of two);
//   * `freq` — the full length-n DFT of exactly those taps, used by the
//     estimation step's complex division (Algorithm 5, filter_freq[dist]).
#pragma once

#include <compare>
#include <cstddef>
#include <memory>
#include <utility>

#include "core/types.hpp"
#include "signal/window.hpp"

namespace cusfft::signal {

struct FlatFilter {
  cvec time;            // length w_pad; taps applied at offsets 0..w_pad-1
  cvec freq;            // length n; DFT of the padded taps, peak-normalized
  std::size_t w_active = 0;  // taps before zero padding
  std::size_t b = 0;         // boxcar (flattening) width in bins
};

struct FlatFilterParams {
  WindowKind kind = WindowKind::kDolphChebyshev;
  double tolerance = 1e-8;   // sidelobe level
  double lobefrac_scale = 0.5;  // transition half-width = scale / B
  double boxcar_scale = 1.3;    // b = round(scale * n / B)

  auto operator<=>(const FlatFilterParams&) const = default;
};

/// Builds the flat filter for signal size n (power of two) and B buckets.
/// Plan-time cost is O(n log n) (two length-n FFTs), mirroring the reference
/// implementation; execution-time cost of using the filter is O(w_pad).
FlatFilter make_flat_filter(std::size_t n, std::size_t B,
                            const FlatFilterParams& p = {});

/// Cached variant: repeated plans with the same (n, B, window) share one
/// immutable filter and skip the two plan-time length-n FFTs entirely. An
/// LRU of a few entries bounds host memory (one length-n response per
/// entry); cache hits cost a map lookup. Thread-safe.
std::shared_ptr<const FlatFilter> get_flat_filter(
    std::size_t n, std::size_t B, const FlatFilterParams& p = {});

struct FilterCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t entries = 0;
};
FilterCacheStats flat_filter_cache_stats();
void flat_filter_cache_clear();

/// The {w_active, w_pad} the filter for (n, B, p) will have, without
/// building it — used for device-memory planning before any allocation.
std::pair<std::size_t, std::size_t> flat_filter_sizes(
    std::size_t n, std::size_t B, const FlatFilterParams& p = {});

}  // namespace cusfft::signal
