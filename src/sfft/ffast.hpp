// FFAST-style sparse FFT (Pawar & Ramchandran: sparse-graph alias codes —
// subsample, alias, peel). The classic construction needs n to be a product
// of pairwise-coprime subsampling factors; our n is always a power of two,
// where every affine spectral permutation preserves the residue classes
// mod F, so coprime-style stage decorrelation is impossible. This
// power-of-two adaptation gets its decoding redundancy from two other
// levers instead:
//
//   * a geometric chain of per-stage bin counts F_s = F * 2^s (frequencies
//     colliding mod F split apart mod 2F or 4F), and
//   * kFfastShifts = 6 shift taps per stage: plane c subsamples at offset c,
//     so bucket j of stage s holds
//       z_c[j] = (F_s/n) * sum_{f : f mod F_s == j} X[f] * e^(2*pi*i*f*c/n)
//     — a sum of at most a few complex exponentials in c. A singleton
//     reveals f through the ratio z_1/z_0 = e^(2*pi*i*f/n); buckets holding
//     up to kFfastMaxTon = 3 colliding frequencies are solved directly by a
//     small Prony system (linear recurrence -> root polynomial -> integer
//     frequency snap -> amplitude solve), each verified against all six
//     planes before acceptance.
//
// The peeling decoder subtracts every accepted coefficient from all stages'
// buckets, cascading until the residual is empty. Recovery on
// exactly-k-sparse signals is exact unless >= 4 planted frequencies agree
// mod the largest stage (probability ~ k^4 / (24 * (4F)^3), negligible at
// the sizes we run); the all-plane verification makes the decoder fail soft
// — stop peeling — rather than hallucinate. Cost: 6 subsampled FFTs per
// stage, O(sum_s F_s log F_s) total, versus cusFFT's O(B log B + loops *
// n/B) — the backend the auto-picker prefers at low k (cusfft/autopick.hpp).
#pragma once

#include <span>
#include <vector>

#include "core/timer.hpp"
#include "core/types.hpp"
#include "fft/fft.hpp"
#include "sfft/params.hpp"

namespace cusfft::sfft {

/// StepTimers keys for the FFAST pipeline (the Figure-2-style breakdown of
/// this backend).
namespace ffast_step {
inline constexpr const char* kSubsample = "1 stage subsample";
inline constexpr const char* kStageFft = "2 stage fft";
inline constexpr const char* kPeel = "3 peel decode";
}  // namespace ffast_step

/// Shift taps per stage. 2T planes let the Prony solver resolve buckets of
/// up to T colliding frequencies; 6 planes -> 3-ton resolution.
inline constexpr std::size_t kFfastShifts = 6;
inline constexpr std::size_t kFfastMaxTon = kFfastShifts / 2;

/// One aliasing stage: bin count (power of two dividing n) and the offset
/// of its first plane in the flattened bucket buffer (kFfastShifts planes
/// of `bins` entries each, shift-major).
struct FfastStage {
  std::size_t bins = 0;
  std::size_t offset = 0;
};

/// The stage chain FfastPlan uses: bins_s = min(base_bins * 2^s, n),
/// deduplicated once the clamp collapses neighbours. Exposed so the GPU
/// backend builds the identical layout (tests pin identical support and
/// values to FFT rounding — the GPU stage FFTs run through cufftsim).
/// Returns at least one stage; total buffer size is
/// stages.back().offset + kFfastShifts * stages.back().bins.
std::vector<FfastStage> ffast_stage_chain(std::size_t n,
                                          std::size_t base_bins,
                                          std::size_t stages);

/// Decodes stage buckets into a sparse spectrum by peeling; `buckets` is
/// the flattened plane layout described on FfastStage and is consumed
/// (peeled in place). Shared by the CPU plan and the GPU backend's
/// host-side decode.
SparseSpectrum ffast_peel(std::span<cplx> buckets,
                          std::span<const FfastStage> stages, std::size_t n);

class FfastPlan {
 public:
  /// Validates p and builds the per-stage FFT plans. Fully deterministic —
  /// the stage chain is derived, not drawn, so Params::seed is unused.
  explicit FfastPlan(Params p);

  const Params& params() const { return p_; }
  const std::vector<FfastStage>& stages() const { return stages_; }

  /// Runs subsample + stage FFTs + peeling on x (length n). Optionally
  /// accumulates per-step wall time into `timers`.
  SparseSpectrum execute(std::span<const cplx> x,
                         StepTimers* timers = nullptr) const;

 private:
  Params p_;
  std::vector<FfastStage> stages_;
  std::vector<std::shared_ptr<const fft::Plan>> ffts_;  // one per stage
};

}  // namespace cusfft::sfft
