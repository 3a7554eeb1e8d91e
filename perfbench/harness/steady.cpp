// steady_batch: the warm path. One optimized cusFFT GpuPlan at the paper's
// n/k ≈ 256 ratio (n = 2^16, k = 256) on one Device, called in a closed
// loop with pipelined execute_many batches of 8 signals drawn in turn from
// a pool of 32 distinct noisy inputs. After the warm-up batch, graph replay
// serves nearly every launch and the filter cache and buffer pool are warm.
#include <memory>
#include <span>

#include "closed_loop.hpp"
#include "core/timer.hpp"
#include "cusfft/plan.hpp"
#include "cusim/device.hpp"
#include "signal/filter.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace cusfft;

namespace {

class SteadyBatch final : public ClosedLoop {
 public:
  explicit SteadyBatch(u64 seed) : seed_(seed) {}

  void setup(Tracer* t) override {
    plan_.reset();
    dev_.reset();
    pool_.clear();
    Tracer::Scope setup(t, "setup", 0);
    Rng rng(seed_);
    for (std::size_t i = 0; i < kPool; ++i) {
      Tracer::Scope gen(t, "gen", i);
      pool_.push_back(make_input(kN, kK, kRel, rng));
    }
    if (t != nullptr) {
      Tracer::Scope filter(t, "filter_build", 0);
      signal::make_flat_filter(kN, params().buckets(), params().filter);
    }
    dev_ = std::make_unique<cusim::Device>();
    {
      Tracer::Scope build(t, "build", 0);
      plan_ = std::make_unique<gpu::GpuPlan>(*dev_, params(),
                                             gpu::Options::optimized());
    }
    Tracer::Scope warmup(t, "warmup", 0);
    plan_->execute_many(batch(0), nullptr, gpu::BatchMode::kPipelined);
  }

  Call call(std::size_t i, Tracer* t, Layers* layers) override {
    Call c;
    const std::vector<std::span<const cplx>> xs = batch(i);
    std::vector<SparseSpectrum> out;
    gpu::GpuBatchStats st;
    WallTimer wall;
    try {
      Tracer::Scope call(t, "call", i);
      {
        Tracer::Scope exec(t, "execute", i);
        out = plan_->execute_many(xs, &st, gpu::BatchMode::kPipelined);
      }
      if (layers != nullptr) {
        Tracer::Scope capture(t, "capture", i);
        layers->add_capture(dev_->end_capture(), kBatch);
      }
    } catch (const std::exception&) {
      out.clear();
    }
    c.host_ms = wall.ms();
    c.model_ms = st.model_ms;
    if (out.size() != kBatch) {
      for (std::size_t j = 0; j < kBatch; ++j) c.tally.add_error();
      c.hashes.assign(kBatch, 0);
      return c;
    }
    for (std::size_t j = 0; j < kBatch; ++j) {
      c.tally.add(score(out[j], pool_[index(i, j)].truth));
      c.hashes.push_back(spectrum_hash(out[j]));
      if (layers != nullptr)
        layers->add_signal(st.per_signal[j], out[j].empty());
    }
    if (layers != nullptr) dev_->publish_metrics();
    return c;
  }

  double nominal_rate() const override { return 50.0; }
  double latency_limit_ms() const override { return 25.0; }

 private:
  static constexpr std::size_t kN = 1 << 16;
  static constexpr std::size_t kK = 256;
  static constexpr std::size_t kBatch = 8;
  static constexpr std::size_t kPool = 32;
  static constexpr double kRel = 0.01;

  static const sfft::Params& params() {
    static const sfft::Params p =
        paper_params(kN, kK, sfft::Algorithm::kCusfft);
    return p;
  }
  static std::size_t index(std::size_t call, std::size_t j) {
    return (call * kBatch + j) % kPool;
  }
  std::vector<std::span<const cplx>> batch(std::size_t call) const {
    std::vector<std::span<const cplx>> xs;
    for (std::size_t j = 0; j < kBatch; ++j)
      xs.emplace_back(pool_[index(call, j)].x);
    return xs;
  }

  u64 seed_;
  std::vector<Input> pool_;
  std::unique_ptr<cusim::Device> dev_;
  std::unique_ptr<gpu::GpuPlan> plan_;
};

}  // namespace

Result run_steady_batch(const RunConfig& cfg) {
  SteadyBatch w(cfg.seed);
  return run_closed_loop(w, cfg);
}

}  // namespace perfbench
