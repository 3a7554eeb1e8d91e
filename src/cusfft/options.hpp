// Feature flags selecting between the paper's baseline GPU algorithm
// (Section IV) and the optimized one (Section V), plus the alternative
// kernels Section IV.C argues against — all individually selectable for
// the ablation benches.
#pragma once

#include <compare>

#include "custhrust/sort.hpp"

namespace cusfft::gpu {

/// How steps 1-2 (permute + filter + bin) run on the device.
enum class Binning {
  /// Algorithm 2: one thread per bucket, collision-free rounds — the
  /// paper's baseline kernel (requires the Fig. 3 index mapping).
  kLoopPartition,

  /// Section V.A: remap + execute kernel pairs pipelined across CUDA
  /// streams (32-deep on GK110) — the optimized kernel.
  kAsyncTransform,

  /// The conventional histogram: one thread per filter tap, atomicAdd into
  /// the shared bucket array in global memory.
  kGlobalAtomicHist,

  /// Per-block sub-histograms in on-chip shared memory, merged with global
  /// atomics — the approach Section IV.C rules out because B complex
  /// doubles rarely fit the 48 KB of shared memory (GpuPlan refuses the
  /// configuration when they don't).
  kSharedHist,

  /// No index mapping: the loop-carried index chain of Algorithm 1, which
  /// admits no parallelism and runs as one dependent thread.
  kSerialChain,
};

struct Options {
  Binning binning = Binning::kLoopPartition;

  /// Section V.B: threshold-based linear k-selection instead of the
  /// Thrust-style sort & select cutoff (Algorithm 6 vs Algorithm 3).
  bool fast_selection = false;

  /// Step 3: single batched B-dimensional FFT across all loops (shared
  /// twiddles) instead of one FFT launch per loop.
  bool batched_fft = true;

  /// Sort used by the sort&select cutoff when fast_selection is off.
  custhrust::SortAlgo sort_algo = custhrust::SortAlgo::kRadix;

  /// Include the host-to-device transfer of the input signal in the modeled
  /// time (the paper includes it when comparing against CPU PsFFT, Fig. 5e,
  /// and excludes it for the GPU-resident cuFFT comparisons).
  bool include_transfer = false;

  /// The paper's baseline configuration (Section IV).
  static Options baseline() { return Options{}; }

  /// The paper's optimized configuration (Section V).
  static Options optimized() {
    Options o;
    o.binning = Binning::kAsyncTransform;
    o.fast_selection = true;
    return o;
  }

  auto operator<=>(const Options&) const = default;
};

}  // namespace cusfft::gpu
