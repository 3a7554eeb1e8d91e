// Spectrum sensing (cognitive radio — one of the paper's motivating
// applications): a wideband capture in which only a few channels carry
// transmissions. The sparse FFT finds the occupied channels without
// computing the full spectrum; we run it on the simulated GPU and report
// both the detection result and the modeled K20x timing.
//
//   ./spectrum_sensing [log2_n] [channels] [occupied]
//
// A malformed CUSFFT_GRAPH or CUSFFT_THREADS is a usage error: the message
// goes to stderr and the exit status is 2, as in the benches.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>

#include "core/rng.hpp"
#include "cusfft/plan.hpp"
#include "cusim/device.hpp"
#include "signal/generate.hpp"

using namespace cusfft;

int main(int argc, char** argv) try {
  const std::size_t logn = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 18;
  const std::size_t channels =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 64;
  const std::size_t occupied =
      argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 5;
  const std::size_t n = 1ULL << logn;
  const std::size_t chan_width = n / channels;

  // Build the capture: each occupied channel carries a handful of tones.
  Rng rng(777);
  const std::size_t tones_per_channel = 4;
  SparseSpectrum truth;
  std::set<std::size_t> truth_channels;
  while (truth_channels.size() < occupied)
    truth_channels.insert(rng.next_below(channels));
  for (std::size_t ch : truth_channels) {
    for (std::size_t t = 0; t < tones_per_channel; ++t) {
      const u64 f = ch * chan_width + rng.next_below(chan_width);
      const double phase = rng.next_double() * kTwoPi;
      truth.push_back({f, cplx{std::cos(phase), std::sin(phase)}});
    }
  }
  const cvec x = signal::synthesize(truth, n);
  const std::size_t k = truth.size();

  // Sense with the GPU sparse FFT.
  sfft::Params params;
  params.n = n;
  params.k = k;
  cusim::Device dev;  // the simulated Tesla K20x
  gpu::GpuPlan plan(dev, params, gpu::Options::optimized());
  gpu::GpuBatchStats stats;
  const SparseSpectrum got = plan.execute(x, &stats);

  // Aggregate recovered energy per channel.
  std::vector<double> energy(channels, 0.0);
  for (const auto& c : got)
    energy[static_cast<std::size_t>(c.loc) / chan_width] += std::norm(c.val);

  std::printf("wideband capture: n = 2^%zu, %zu channels, %zu occupied, "
              "k = %zu tones\n\n",
              logn, channels, occupied, k);
  std::printf("%8s %12s %10s %8s\n", "channel", "energy", "detected",
              "truth");
  std::size_t correct = 0;
  const double floor = 1e-6;
  for (std::size_t ch = 0; ch < channels; ++ch) {
    const bool det = energy[ch] > floor;
    const bool tru = truth_channels.count(ch) > 0;
    if (det == tru) ++correct;
    if (det || tru)
      std::printf("%8zu %12.4f %10s %8s\n", ch, energy[ch],
                  det ? "BUSY" : "idle", tru ? "BUSY" : "idle");
  }
  std::printf("\nchannel decisions correct: %zu / %zu\n", correct, channels);
  std::printf("modeled K20x time: %.3f ms  (functional sim on host: %.1f "
              "ms)\n",
              stats.model_ms, stats.host_ms);
  std::printf("candidate coefficients examined: %zu\n", stats.candidates);
  return correct == channels ? 0 : 1;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "spectrum_sensing: %s\n", e.what());
  return 2;
}
