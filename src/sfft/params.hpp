// Shared parameter derivation for every sparse-FFT implementation in the
// repo (serial, PsFFT, cusFFT). Keeping it in one place guarantees the CPU
// and GPU algorithms run identical configurations, so the paper's
// cross-implementation speedup comparisons are apples-to-apples.
#pragma once

#include <compare>
#include <cstddef>
#include <optional>
#include <string_view>

#include "core/types.hpp"
#include "signal/filter.hpp"

namespace cusfft::sfft {

/// Which sparse-FFT backend a plan runs. kCusfft is the paper's
/// bucket-hashing sFFT (the default); kFfast is the FFAST-style
/// aliasing/peeling backend (sfft/ffast.hpp), which wins at low k; kAuto
/// defers the choice to the crossover picker (cusfft/autopick.hpp) and is
/// resolved per signal inside MultiGpuPlan::execute_mixed — GpuPlan itself
/// only accepts a resolved algorithm.
enum class Algorithm { kCusfft = 0, kFfast = 1, kAuto = 2 };

/// Stable lowercase name ("cusfft" / "ffast" / "auto") — the spelling used
/// by CUSFFT_ALGO, --algo, metrics labels, and crossover.csv.
const char* to_string(Algorithm a);

/// Inverse of to_string; nullopt for anything else (callers own the
/// error convention: usage-exit in the benches, typed throw in the
/// library, CUSFFT_INVALID_ARGUMENT in the C API).
std::optional<Algorithm> parse_algorithm(std::string_view name);

struct Params {
  std::size_t n = 0;  // signal size, power of two
  std::size_t k = 0;  // target sparsity (number of large coefficients)

  /// Bucket constant: B = pow2(round(bcst * sqrt(n*k / log2 n))) — the
  /// paper's B = O(sqrt(nk/log n)) with a tunable constant.
  double bcst = 4.0;

  /// Number of location loops L (steps 1-5 repeat L times; Section III).
  std::size_t loops_loc = 6;

  /// Additional estimation-only loops; their buckets join the median in
  /// step 6 but cast no location votes. Total loops = loops_loc + loops_est.
  std::size_t loops_est = 8;

  /// Votes required before a location is accepted (0 = derive as
  /// max(2, loops_loc/2 + 1), the paper's "at least twice / majority" rule).
  std::size_t loc_threshold = 0;

  /// Location loops keep the d*k largest buckets ("slightly more than k" —
  /// Section V.B); d = cutoff_mult.
  double cutoff_mult = 2.0;

  signal::FlatFilterParams filter;

  /// sFFT 2.0 mode: run the Comb aliasing prefilter and let the location
  /// loops vote only on frequencies whose residue (mod comb width) was
  /// approved (see sfft/comb.hpp). Off = plain sFFT 1.0 (the paper's
  /// Algorithms 1-6).
  bool comb = false;
  double comb_cst = 8.0;        // aliasing width W = next_pow2(comb_cst * k)
  std::size_t comb_rounds = 2;  // independent tau rounds unioned
  double comb_keep_mult = 2.0;  // approve keep = mult*k bins per round

  u64 seed = 0xC0FFEE;  // seeds the per-execution permutation draws

  /// Backend selection. Part of every plan-cache shape key: two configs
  /// that differ only here must never share a plan.
  Algorithm algo = Algorithm::kCusfft;

  /// FFAST backend: number of aliasing stages d (geometric bin-doubling
  /// chain F, 2F, 4F, ...; see sfft/ffast.hpp).
  std::size_t ffast_stages = 3;

  /// FFAST backend: per-stage bin constant — each stage subsamples to
  /// F = next_pow2(ffast_bin_mult * k) bins, clamped to [8, n].
  double ffast_bin_mult = 4.0;

  /// Derived bucket count B (power of two, clamped to [4, n]).
  std::size_t buckets() const;

  /// Derived vote threshold.
  std::size_t threshold() const;

  /// Derived per-loop cutoff count, clamped to [1, B].
  std::size_t cutoff() const;

  std::size_t total_loops() const { return loops_loc + loops_est; }

  /// Derived comb aliasing width (0 when comb mode is off).
  std::size_t comb_w() const;

  /// Bins approved per comb round.
  std::size_t comb_keep() const;

  /// Derived FFAST per-stage bin count F (power of two in [8, n]).
  std::size_t ffast_bins() const;

  /// Throws std::invalid_argument unless the configuration is usable.
  void validate() const;

  /// Memberwise, so every field (the backend and the FFAST knobs
  /// included) tells two shapes apart: plan caches and the crossover
  /// table key on Params itself.
  auto operator<=>(const Params&) const = default;
};

/// Permutation parameters of one inner loop: time-domain stride `ai`
/// (Algorithm 1), its modular inverse `a` (the frequency-domain stride used
/// by Algorithms 4-5), and the offset tau.
struct LoopPerm {
  u64 ai = 1;
  u64 a = 1;
  u64 tau = 0;
};

}  // namespace cusfft::sfft
