// Backend auto-picker: resolves sfft::Algorithm::kAuto to a concrete
// backend (kCusfft or kFfast) per signal, following the crossover
// methodology of the empirical sparse-FFT comparisons in PAPERS.md — the
// winner flips with (n, k): cusFFT's bucket hashing amortizes at large k,
// FFAST's O(sum_s F_s log F_s) stage chain wins at low k.
//
// Two modes, chosen by CUSFFT_AUTOPICK (re-read on every resolution, never
// latched; malformed values throw std::invalid_argument naming the
// variable):
//
//   * measured (the default): a one-shot calibration per table cell — run
//     BOTH backends once on a deterministic synthetic signal of the
//     requested shape and cache the argmin of the modeled execute time in
//     a process-wide table. Picks are consistent with an oracle that runs
//     both backends by construction (same quantity, same determinism).
//   * modeled: no execution — compare the analytic per-signal costs from
//     modeled_signal_cost_s (free, but only as good as the cost model).
//
// CUSFFT_ALGO (same unlatched convention) overrides the Params field
// entirely: "cusfft" / "ffast" force that backend, "auto" forces the
// picker even for plans that asked for a fixed backend.
#pragma once

#include <cstddef>
#include <optional>

#include "cusfft/multi_plan.hpp"
#include "sfft/params.hpp"

namespace cusfft::gpu {

enum class AutopickMode {
  kMeasured = 0,  ///< calibrate cells by running both backends once
  kModeled = 1,   ///< compare modeled_signal_cost_s, never execute
};

/// Stable lowercase name ("measured" / "modeled") — the CUSFFT_AUTOPICK
/// spelling.
const char* to_string(AutopickMode m);

/// Reads CUSFFT_AUTOPICK. Unset -> kMeasured. Re-read per call; malformed
/// values throw std::invalid_argument naming the variable (bench frontends
/// convert that to a usage exit).
AutopickMode autopick_mode_from_env();

/// Reads CUSFFT_ALGO. Unset -> nullopt (no override). Re-read per call;
/// malformed values throw std::invalid_argument naming the variable.
std::optional<sfft::Algorithm> algo_override_from_env();

/// One crossover-table cell: both backends' measured modeled time for one
/// shape on one device spec, and the winner.
struct CrossoverCell {
  std::size_t n = 0;
  std::size_t k = 0;
  double noise = 0.0;
  double cusfft_ms = 0.0;
  double ffast_ms = 0.0;
  sfft::Algorithm winner = sfft::Algorithm::kCusfft;
};

/// Measured calibration for p's shape at `noise` on a scratch device with
/// `spec`: runs both backends once on the same deterministic synthetic
/// signal (seeded from p.seed) and caches the cell process-wide (keyed by
/// every Params field but algo, all of Options, the noise level and the
/// spec name). Thread-safe.
CrossoverCell calibrate_cell(const sfft::Params& p,
                             const perfmodel::GpuSpec& spec,
                             const Options& opts, double noise = 0.0);

/// Resolves the backend for one signal of shape p on `spec`: applies the
/// CUSFFT_ALGO override first, returns fixed backends as-is, and sends
/// kAuto through the CUSFFT_AUTOPICK-selected picker. Never returns
/// kAuto. Each picker decision is recorded in
/// cusfft_algo_picks_total{algo=...} (overrides and fixed backends are
/// not "picks" and stay uncounted).
sfft::Algorithm resolve_algorithm(const sfft::Params& p,
                                  const perfmodel::GpuSpec& spec,
                                  const Options& opts);

}  // namespace cusfft::gpu
