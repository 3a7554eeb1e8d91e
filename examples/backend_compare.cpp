// Backend comparison: runs the same workload through every implementation
// in the repository — serial reference, multicore PsFFT, GPU cusFFT
// (baseline and optimized) — and checks them against the dense-FFT oracle.
// A compact tour of the whole public API.
//
//   ./backend_compare [log2_n] [k]
//
// A malformed CUSFFT_GRAPH or CUSFFT_THREADS is a usage error: the message
// goes to stderr and the exit status is 2, as in the benches.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "cusfft/plan.hpp"
#include "cusim/device.hpp"
#include "fft/fft.hpp"
#include "psfft/psfft.hpp"
#include "sfft/serial.hpp"
#include "signal/generate.hpp"

using namespace cusfft;

int main(int argc, char** argv) try {
  const std::size_t logn = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 17;
  const std::size_t k = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 24;
  const std::size_t n = 1ULL << logn;

  Rng rng(90210);
  const auto sig = signal::make_sparse_signal(n, k, rng);
  const cvec oracle = densify(sig.truth, n);

  sfft::Params params;
  params.n = n;
  params.k = k;

  std::printf("n = 2^%zu, k = %zu\n\n", logn, k);
  std::printf("%-26s %10s %12s %12s %10s\n", "backend", "coeffs", "recall",
              "L1/coeff", "time(ms)");

  auto report = [&](const char* name, const SparseSpectrum& got,
                    double time_ms) {
    std::printf("%-26s %10zu %12.4f %12.3e %10.2f\n", name, got.size(),
                location_recall(got, oracle, k),
                l1_error_per_coeff(got, oracle, k), time_ms);
  };

  {
    sfft::SerialPlan plan(params);
    WallTimer t;
    const auto got = plan.execute(sig.x);
    report("serial sFFT (host ms)", got, t.ms());
  }
  {
    ThreadPool pool;
    psfft::PsfftPlan plan(params, pool);
    psfft::CpuExecStats stats;
    const auto got = plan.execute(sig.x, &stats);
    report("PsFFT (modeled E5-2640)", got, stats.model_ms);
  }
  {
    cusim::Device dev;
    gpu::GpuPlan plan(dev, params, gpu::Options::baseline());
    gpu::GpuBatchStats stats;
    const auto got = plan.execute(sig.x, &stats);
    report("cusFFT base (modeled K20x)", got, stats.model_ms);
  }
  {
    cusim::Device dev;
    gpu::GpuPlan plan(dev, params, gpu::Options::optimized());
    gpu::GpuBatchStats stats;
    const auto got = plan.execute(sig.x, &stats);
    report("cusFFT opt (modeled K20x)", got, stats.model_ms);
  }
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "backend_compare: %s\n", e.what());
  return 2;
}
