// The serial sparse FFT (paper Section III; MIT SODA'12 sFFT 1.0 style).
// This is the reference implementation every parallel backend is tested
// against, and the subject of the Figure 2 per-step profile.
#pragma once

#include <memory>
#include <span>

#include "core/timer.hpp"
#include "core/types.hpp"
#include "fft/fft.hpp"
#include "sfft/params.hpp"
#include "sfft/steps.hpp"
#include "signal/filter.hpp"

namespace cusfft::sfft {

/// StepTimers keys used by every backend — one per paper step group, the
/// exact breakdown Figure 2 plots.
namespace step {
inline constexpr const char* kComb = "0 comb prefilter";
inline constexpr const char* kPermFilter = "1-2 perm+filter";
inline constexpr const char* kSubFft = "3 subsampled fft";
inline constexpr const char* kCutoff = "4 cutoff";
inline constexpr const char* kLocRecover = "5 reverse hash";
inline constexpr const char* kEstimate = "6 estimate";
}  // namespace step

class SerialPlan {
 public:
  /// Builds the flat filter and the B-point FFT plan. O(n log n) once.
  explicit SerialPlan(Params p);

  const Params& params() const { return p_; }
  std::size_t buckets() const { return B_; }
  const signal::FlatFilter& filter() const { return *filter_; }

  /// Runs the full algorithm on x (length n). Deterministic for a fixed
  /// Params::seed. Optionally accumulates per-step wall time into `timers`.
  SparseSpectrum execute(std::span<const cplx> x,
                         StepTimers* timers = nullptr) const;

 private:
  Params p_;
  std::size_t B_ = 0;
  std::shared_ptr<const signal::FlatFilter> filter_;
  std::shared_ptr<const fft::Plan> bfft_;
};

}  // namespace cusfft::sfft
