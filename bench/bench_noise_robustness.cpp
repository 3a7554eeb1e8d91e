// Extension experiment (not a paper figure): accuracy of cusFFT-optimized
// as additive white Gaussian noise rises. The paper evaluates exactly-
// sparse signals only; practical deployments ("background noises add to
// the signal spectra", Section III step 4) care about the SNR at which
// location recall and L1 error degrade.
#include <cmath>
#include <iostream>

#include "common.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "cusfft/plan.hpp"
#include "cusim/device.hpp"
#include "signal/generate.hpp"

using namespace cusfft;
using namespace cusfft::bench;

int main(int argc, char** argv) {
  const BenchOpts o = BenchOpts::parse(argc, argv);
  const std::size_t n = 1ULL << std::min<std::size_t>(o.fixed_logn, 20);
  const std::size_t k = std::min<std::size_t>(o.k, 64);
  std::cout << "Noise robustness at n=2^"
            << std::min<std::size_t>(o.fixed_logn, 20) << ", k=" << k
            << " (cusFFT optimized)\n\n";

  // Per-sample tone amplitude is ~sqrt(k)/n; sweep noise sigma relative to
  // it and report the resulting spectral SNR.
  const double tone_rms = std::sqrt(static_cast<double>(k)) /
                          static_cast<double>(n);
  ResultTable t({"noise/tone_rms", "spectral_snr_db", "recall",
                 "l1_per_coeff", "candidates"});
  for (double rel : {0.0, 0.01, 0.03, 0.1, 0.3, 1.0}) {
    Rng rng(o.seed ^ static_cast<u64>(rel * 1000));
    signal::SparseSignalParams sp;
    sp.noise_sigma = rel * tone_rms;
    const auto sig = signal::make_sparse_signal(n, k, rng, sp);
    const cvec oracle = densify(sig.truth, n);

    cusim::Device dev;
    gpu::GpuPlan plan(dev, paper_params(n, k, o.seed),
                      gpu::Options::optimized());
    gpu::GpuBatchStats stats;
    const auto got = plan.execute(sig.x, &stats);

    // Spectral SNR: per-coefficient signal power 1 vs noise power per bin
    // = 2*sigma^2*n.
    const double snr_db =
        rel == 0.0 ? 999.0
                   : 10.0 * std::log10(1.0 / (2.0 * sp.noise_sigma *
                                              sp.noise_sigma *
                                              static_cast<double>(n)));
    t.add_row({ResultTable::num(rel), ResultTable::num(snr_db, 3),
               ResultTable::num(location_recall(got, oracle, k), 4),
               ResultTable::num(l1_error_per_coeff(got, oracle, k), 3),
               std::to_string(stats.candidates)});
    std::cerr << "  [noise] rel=" << rel << " done\n";
  }
  emit(o, "noise_robustness", t);
  return 0;
}
