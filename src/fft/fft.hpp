// Planned fast Fourier transforms — the from-scratch stand-in for FFTW on
// the CPU side (signal synthesis, the flat window, the CPU sFFT comparators
// and the "parallel FFTW" baseline). Plan once, execute many times
// (FFTW/cuFFT idiom), and plans are shared process-wide: get_plan() returns
// the one immutable plan for (n, direction), kept in an LRU cache whose
// retained bytes stay within kPlanCacheBudgetBytes. A plan too large for the
// budget is freed when its last user releases it.
//
// Supported sizes: any n >= 1. Powers of two use radix-2 decimation in time,
// run depth-first: each block of up to 1024 points runs all of its small
// stages while it sits in cache, then the recursion combines halves. Each
// stage reads a contiguous twiddle table held by the plan of that stage's
// length, so a plan reaches its lower stages through the cached plan of
// half its size. Other sizes go through Bluestein's chirp-z algorithm on two
// cached power-of-two plans.
//
// Conventions match fft/dft.hpp: forward unnormalized, inverse carries 1/n.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/lru_cache.hpp"
#include "core/thread_pool.hpp"
#include "core/types.hpp"

namespace cusfft::fft {

enum class Direction { kForward, kInverse };

/// Host bytes the process-wide plan cache may retain. Every transform size
/// the benchmarks and the sFFT shapes up to n = 2^16 use stays warm; a plan
/// of 2^22 points does not fit and lives only as long as its users.
inline constexpr std::size_t kPlanCacheBudgetBytes = std::size_t{16} << 20;

/// Analytic work estimate for one execution of a plan; feeds the CPU roofline
/// model (perfmodel) so modeled FFTW times use the real operation counts.
struct PlanCost {
  double flops = 0.0;   // floating-point operations per transform
  double bytes = 0.0;   // global (DRAM-level) bytes moved per transform
};

/// A reusable transform descriptor for fixed (n, direction).
class Plan {
 public:
  Plan(std::size_t n, Direction dir);
  ~Plan();
  Plan(Plan&&) noexcept;
  Plan& operator=(Plan&&) noexcept;
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  std::size_t size() const;
  Direction direction() const;

  /// Out-of-place execute. in.size() == out.size() == n. in may alias out.
  void execute(std::span<const cplx> in, std::span<cplx> out) const;

  /// In-place execute.
  void execute(std::span<cplx> data) const { execute(data, data); }

  /// Batched execute over `batch` contiguous transforms laid out
  /// back-to-back (data.size() == batch * n). This mirrors cuFFT's batched
  /// mode that the paper exploits in Step 3 (twiddles shared across a batch).
  void execute_batch(std::span<cplx> data, std::size_t batch) const;

  /// Batched execute parallelized over `pool` (one transform per task chunk);
  /// the "parallel FFTW" configuration.
  void execute_batch(std::span<cplx> data, std::size_t batch,
                     ThreadPool& pool) const;

  /// Single large transform: the independent subtrees of the depth-first
  /// order run on `pool`, and only the stages above them split their
  /// butterflies across workers. Bit-identical to execute().
  void execute_parallel(std::span<cplx> data, ThreadPool& pool) const;

  /// Work estimate per single transform (see PlanCost).
  PlanCost cost() const;

  /// Host bytes this plan keeps alive: its twiddle table, or its chirp and
  /// kernel spectrum, plus the plans it builds on.
  std::size_t bytes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The process-wide plan for (n, dir), built on first use. Thread-safe.
std::shared_ptr<const Plan> get_plan(std::size_t n, Direction dir);

/// Hits, misses, retained plans and their summed bytes().
LruStats plan_cache_stats();

/// One-shot conveniences over the shared plans.
cvec fft(std::span<const cplx> x);
cvec ifft(std::span<const cplx> x);

}  // namespace cusfft::fft
