// Architecture sensitivity (the paper's conclusion gestures at "other
// emerging parallel architectures"): re-run cusFFT-optimized on simulated
// devices with scaled memory bandwidth, PCIe bandwidth, and SM count to
// show which resource actually bounds the algorithm. On the K20x the
// binning is DRAM-bound, so bandwidth scales the runtime almost linearly
// while extra SMs do nearly nothing.
#include <iostream>

#include "common.hpp"
#include "cusfft/plan.hpp"
#include "cusim/device.hpp"

using namespace cusfft;
using namespace cusfft::bench;

namespace {

RunResult run_on(const perfmodel::GpuSpec& spec, std::size_t n,
                 std::size_t k, u64 seed, const cvec& x, bool transfer) {
  cusim::Device dev(spec);
  gpu::Options opts = gpu::Options::optimized();
  opts.include_transfer = transfer;
  gpu::GpuPlan plan(dev, paper_params(n, k, seed), opts);
  gpu::GpuBatchStats stats;
  plan.execute(x, &stats);
  return {stats.model_ms, stats.host_ms};
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOpts o = BenchOpts::parse(argc, argv);
  const std::size_t n = 1ULL << std::min<std::size_t>(o.fixed_logn, 22);
  const std::size_t k = std::min(o.k, n / 8);
  const cvec x = make_signal(n, k, o.seed);
  std::cout << "Architecture sweep at n=2^"
            << std::min<std::size_t>(o.fixed_logn, 22) << ", k=" << k
            << " (cusFFT optimized)\n\n";

  const perfmodel::GpuSpec base = perfmodel::GpuSpec::k20x();
  ResultTable t({"device variant", "no-transfer ms", "with-transfer ms"});

  auto row = [&](const char* name, const perfmodel::GpuSpec& s) {
    const auto plain = run_on(s, n, k, o.seed, x, false);
    const auto xfer = run_on(s, n, k, o.seed, x, true);
    t.add_row({name, ResultTable::num(plain.model_ms),
               ResultTable::num(xfer.model_ms)});
    std::cerr << "  [arch] " << name << " done\n";
  };

  row("Tesla K20x (Table I)", base);
  {
    perfmodel::GpuSpec s = base;
    s.mem_bandwidth_Bps *= 2;
    s.name = "2x memory bandwidth";
    row("2x memory bandwidth", s);
  }
  {
    perfmodel::GpuSpec s = base;
    s.mem_bandwidth_Bps /= 2;
    row("1/2 memory bandwidth", s);
  }
  {
    perfmodel::GpuSpec s = base;
    s.sm_count *= 2;
    s.max_resident_warps *= 2;
    row("2x SMs (same bandwidth)", s);
  }
  {
    perfmodel::GpuSpec s = base;
    s.pcie_bandwidth_Bps = 12e9;  // Gen3-class link
    row("PCIe Gen3 (12 GB/s)", s);
  }
  {
    perfmodel::GpuSpec s = base;
    s.random_bw_efficiency = s.coalesced_bw_efficiency;
    row("perfect scatter coalescing", s);
  }
  emit(o, "arch_sensitivity", t);
  return 0;
}
