// cold_mixed: one-shot jobs. Each call builds a one-device DeviceGroup and
// a MultiGpuPlan, runs execute_mixed on four signals of one shape with the
// picker left to choose (Algorithm::kAuto), and tears everything down. The
// vocabulary is n = 2^12 ... 2^16 with k = n/1024, n/256 and n/64, every
// shape at tone-relative noise 0, 0.01 and 0.1; calls sweep all 45 cells
// once per round, drawn in a seeded order per round, on inputs drawn from
// the seed. The vocabulary itself is fixed: drawing k per seed made the
// run-to-run spread of every host figure exceed its bound. Plan build, the
// flat filter, first-sight warp tracing and the picker's calibration (each
// call is a job with its own plan seed) dominate, and replay does little.
#include <algorithm>
#include <exception>
#include <memory>

#include "closed_loop.hpp"
#include "core/timer.hpp"
#include "cusfft/autopick.hpp"
#include "cusim/device_group.hpp"
#include "signal/filter.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace cusfft;

namespace {

struct Cell {
  std::size_t n = 0;
  std::size_t k = 0;
  std::vector<Input> inputs;  // kBatch of them
};

class ColdMixed final : public ClosedLoop {
 public:
  explicit ColdMixed(u64 seed) : seed_(seed) {}

  void setup(Tracer* t) override {
    cells_.clear();
    Tracer::Scope setup(t, "setup", 0);
    Rng rng(seed_);
    u64 id = 0;
    for (std::size_t logn = 12; logn <= 16; ++logn) {
      const std::size_t n = std::size_t{1} << logn;
      for (const std::size_t k : {n / 1024, n / 256, n / 64}) {
        if (t != nullptr) {
          Tracer::Scope filter(t, "filter_build", id);
          const sfft::Params p = paper_params(n, k, sfft::Algorithm::kCusfft);
          signal::make_flat_filter(n, p.buckets(), p.filter);
        }
        for (const double rel : {0.0, 0.01, 0.1}) {
          Cell c;
          c.n = n;
          c.k = k;
          for (std::size_t j = 0; j < kBatch; ++j) {
            Tracer::Scope gen(t, "gen", id++);
            c.inputs.push_back(make_input(n, k, rel, rng));
          }
          cells_.push_back(std::move(c));
        }
      }
    }
    // Round r visits every cell once, in its own seeded order.
    order_.clear();
    for (std::size_t r = 0; r < kOrderRounds; ++r) {
      std::vector<std::size_t> perm(cells_.size());
      for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
      for (std::size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[rng.next_below(i)]);
      order_.insert(order_.end(), perm.begin(), perm.end());
    }
  }

  Call call(std::size_t i, Tracer* t, Layers* layers) override {
    const Cell& cell = cells_[order_[i % order_.size()]];
    // Every call is a fresh job with its own plan seed, so the picker
    // calibrates it like a first sighting: with one seed per shape only
    // the first round calibrates, and host figures would depend on how
    // many rounds fit in the run.
    sfft::Params p = paper_params(cell.n, cell.k, sfft::Algorithm::kAuto);
    p.seed = Rng(seed_ * 0x9E3779B97F4A7C15ULL + i).next_u64();
    const gpu::Options opts = gpu::Options::optimized();
    std::vector<gpu::MixedSignal> mix;
    for (const Input& in : cell.inputs) mix.push_back({in.x, p});

    Call c;
    std::vector<SparseSpectrum> out;
    gpu::GpuFleetStats fs;
    WallTimer wall;
    try {
      Tracer::Scope call(t, "call", i);
      std::unique_ptr<cusim::DeviceGroup> group;
      std::unique_ptr<gpu::MultiGpuPlan> plan;
      {
        Tracer::Scope build(t, "build", i);
        group = std::make_unique<cusim::DeviceGroup>(1);
        plan = std::make_unique<gpu::MultiGpuPlan>(*group, p, opts);
      }
      if (t != nullptr) {
        // Resolving ahead of execute moves the picker's work (first-sight
        // calibration included) into its own span; execute_mixed then hits
        // the picker's table.
        Tracer::Scope resolve(t, "resolve", i);
        gpu::resolve_algorithm(p, group->device(0).spec(), opts);
      }
      {
        Tracer::Scope exec(t, "execute", i);
        out = plan->execute_mixed(mix, &fs, gpu::BatchMode::kAuto);
      }
      if (layers != nullptr) {
        Tracer::Scope capture(t, "capture", i);
        layers->add_capture(group->end_capture(), mix.size());
      }
      Tracer::Scope teardown(t, "teardown", i);
      plan.reset();
      group.reset();
    } catch (const std::exception&) {
      out.clear();
    }
    c.host_ms = wall.ms();
    c.model_ms = fs.model_ms;
    if (out.size() != mix.size()) {
      for (std::size_t j = 0; j < mix.size(); ++j) c.tally.add_error();
      c.hashes.assign(mix.size(), 0);
      return c;
    }
    for (std::size_t j = 0; j < mix.size(); ++j) {
      c.tally.add(score(out[j], cell.inputs[j].truth));
      c.hashes.push_back(spectrum_hash(out[j]));
      if (layers != nullptr) {
        layers->add_signal(fs.per_signal[j], out[j].empty());
        ++layers->picks[sfft::to_string(fs.per_signal[j].algo)];
      }
    }
    if (layers != nullptr) layers->add_fleet(fs);
    return c;
  }

  std::size_t round() const override { return kCells; }
  double nominal_rate() const override { return 700.0; }
  double latency_limit_ms() const override { return 5.0; }

 private:
  // Four inputs per cell average out the data-dependent decode cost; with
  // two, host figures moved ~10 % between seeds.
  static constexpr std::size_t kBatch = 4;
  static constexpr std::size_t kCells = 5 * 3 * 3;  // n × k × noise
  static constexpr std::size_t kOrderRounds = 64;   // order repeats after

  u64 seed_;
  std::vector<Cell> cells_;
  std::vector<std::size_t> order_;
};

}  // namespace

Result run_cold_mixed(const RunConfig& cfg) {
  ColdMixed w(cfg.seed);
  return run_closed_loop(w, cfg);
}

}  // namespace perfbench
