#include "psfft/fftw_baseline.hpp"

#include <algorithm>
#include <cmath>

#include "core/timer.hpp"
#include "fft/fft.hpp"

namespace cusfft::psfft {

DenseFftResult dense_fft_parallel(std::span<const cplx> x,
                                  std::span<cplx> out, ThreadPool& pool,
                                  const perfmodel::CpuSpec& spec) {
  // Planned before the clock starts, as FFTW plans once per size.
  const auto plan = fft::get_plan(x.size(), fft::Direction::kForward);
  DenseFftResult r;
  WallTimer wall;
  std::copy(x.begin(), x.end(), out.begin());
  plan->execute_parallel(out, pool);
  r.host_ms = wall.ms();

  // FFTW's cache-oblivious decomposition streams the array through DRAM
  // only ceil(log n / log cache_fit) times, not once per radix-2 stage —
  // model DRAM traffic accordingly (flops stay the full 5 n log2 n).
  const auto c = plan->cost();
  const double n = static_cast<double>(x.size());
  const double cache_elems =
      std::max(2.0, static_cast<double>(spec.l3_bytes) / 16.0);
  const double passes =
      std::max(1.0, std::ceil(std::log2(n) / std::log2(cache_elems)));
  // FFTW sustains ~15% of the Sandy Bridge AVX peak on large double-complex
  // transforms (twiddle loads, shuffles, no FMA); scale the flop roof so the
  // modeled rate matches the ~12 GFLOP/s measured in the FFTW literature.
  const double fftw_flop_efficiency = 0.15;
  perfmodel::CpuWork w{"dense_fft", 32.0 * n * (passes + 1.0), 0, 0,
                       c.flops / fftw_flop_efficiency,
                       static_cast<double>(spec.cores)};
  r.model_ms = perfmodel::CpuModel(spec).phase_cost_s(w) * 1e3;
  return r;
}

}  // namespace cusfft::psfft
