// GPU per-step profile — the device-side analog of Fig. 2: where the
// modeled K20x time goes per paper step as n grows, plus an nvprof-style
// per-kernel table at the largest size. Reported both as summed solo
// kernel durations (attribution) and as overlap-aware timeline phase spans.
#include <iostream>

#include "common.hpp"
#include "cusfft/plan.hpp"
#include "cusim/device.hpp"
#include "cusim/report.hpp"
#include "sfft/serial.hpp"

using namespace cusfft;
using namespace cusfft::bench;

int main(int argc, char** argv) {
  const BenchOpts o = BenchOpts::parse(argc, argv);
  std::cout << "GPU (modeled K20x) per-step profile, cusFFT optimized, k="
            << o.k << "\n\n";

  const std::vector<const char*> steps = {
      sfft::step::kPermFilter, sfft::step::kSubFft, sfft::step::kCutoff,
      sfft::step::kLocRecover, sfft::step::kEstimate};

  std::vector<std::string> header{"logn"};
  for (const char* s : steps) header.emplace_back(s);
  header.emplace_back("makespan_ms");
  ResultTable t(header);

  cusim::Device last_dev;  // keeps the largest run's report for the table
  for (std::size_t logn = o.min_logn; logn <= o.max_logn; ++logn) {
    const std::size_t n = 1ULL << logn;
    const std::size_t k = std::min(o.k, n / 8);
    const cvec x = make_signal(n, k, o.seed);

    cusim::Device dev;
    gpu::GpuPlan plan(dev, paper_params(n, k, o.seed),
                      gpu::Options::optimized());
    gpu::GpuBatchStats stats;
    plan.execute(x, &stats);
    const std::map<std::string, double> step_ms = gpu::step_model_ms(dev);

    std::vector<std::string> row{std::to_string(logn)};
    for (const char* s : steps) {
      auto it = step_ms.find(s);
      row.push_back(ResultTable::num(it == step_ms.end() ? 0 : it->second));
    }
    row.push_back(ResultTable::num(stats.model_ms));
    t.add_row(row);
    std::cerr << "  [gpuprof] logn=" << logn << " done\n";

    if (logn == o.max_logn) {
      std::cout << "per-kernel counters at n=2^" << logn
                << " (nvprof-style):\n"
                << cusim::report_table(dev).to_ascii() << "\n";
      if (!o.profile.empty())
        write_profile_artifact(dev.end_capture(), o.profile);
    }
  }
  emit(o, "gpu_profile_vs_n", t);
  return 0;
}
