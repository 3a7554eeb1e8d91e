#include "cusfft/autopick.hpp"

#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/rng.hpp"
#include "cusfft/plan.hpp"
#include "cusim/metrics.hpp"
#include "signal/generate.hpp"

namespace cusfft::gpu {

const char* to_string(AutopickMode m) {
  switch (m) {
    case AutopickMode::kMeasured: return "measured";
    case AutopickMode::kModeled: return "modeled";
  }
  return "measured";
}

AutopickMode autopick_mode_from_env() {
  // One getenv per resolution — latching the first value in a static
  // would make later setenv() calls silently ineffective for embedders
  // and tests.
  const char* e = std::getenv("CUSFFT_AUTOPICK");
  if (e == nullptr || e[0] == '\0') return AutopickMode::kMeasured;
  const std::string_view v(e);
  if (v == "measured") return AutopickMode::kMeasured;
  if (v == "modeled") return AutopickMode::kModeled;
  throw std::invalid_argument(
      "CUSFFT_AUTOPICK: expected 'measured' or 'modeled', got '" +
      std::string(v) + "'");
}

std::optional<sfft::Algorithm> algo_override_from_env() {
  const char* e = std::getenv("CUSFFT_ALGO");
  if (e == nullptr || e[0] == '\0') return std::nullopt;
  const auto a = sfft::parse_algorithm(e);
  if (!a)
    throw std::invalid_argument(
        "CUSFFT_ALGO: expected 'cusfft', 'ffast' or 'auto', got '" +
        std::string(e) + "'");
  return a;
}

namespace {

/// Cache key: the whole shape (seed included — it draws the calibration
/// signal and the cusFFT permutations), the options, the noise level and
/// the device spec. The shape's algo is normalized away: a cell measures
/// both backends, so a kAuto picker shares the cell a fixed-backend
/// oracle calibrated.
using CellKey = std::tuple<sfft::Params, Options, double, std::string>;

CellKey cell_key(const sfft::Params& p, const perfmodel::GpuSpec& spec,
                 const Options& opts, double noise) {
  sfft::Params shape = p;
  shape.algo = sfft::Algorithm::kCusfft;
  return {shape, opts, noise, spec.name};
}

std::mutex g_table_mu;
std::map<CellKey, CrossoverCell>& table() {
  static std::map<CellKey, CrossoverCell> t;
  return t;
}

double measure_backend(const sfft::Params& p, sfft::Algorithm algo,
                       const perfmodel::GpuSpec& spec, const Options& opts,
                       std::span<const cplx> x) {
  sfft::Params q = p;
  q.algo = algo;
  cusim::Device dev(spec);
  GpuPlan plan(dev, q, opts);
  GpuBatchStats st;
  plan.execute(x, &st);
  return st.model_ms;
}

}  // namespace

CrossoverCell calibrate_cell(const sfft::Params& p,
                             const perfmodel::GpuSpec& spec,
                             const Options& opts, double noise) {
  const CellKey key = cell_key(p, spec, opts, noise);
  {
    std::lock_guard<std::mutex> lock(g_table_mu);
    auto it = table().find(key);
    if (it != table().end()) return it->second;
  }
  // Calibrate outside the lock (a cell runs both backends end to end);
  // concurrent first-touch of the same cell just measures twice and
  // inserts the identical deterministic result.
  Rng rng(p.seed);
  const signal::SparseSignal sig = signal::make_sparse_signal(
      p.n, p.k, rng, {signal::MagnitudeDist::kUnit, noise});
  CrossoverCell cell;
  cell.n = p.n;
  cell.k = p.k;
  cell.noise = noise;
  cell.cusfft_ms =
      measure_backend(p, sfft::Algorithm::kCusfft, spec, opts, sig.x);
  cell.ffast_ms =
      measure_backend(p, sfft::Algorithm::kFfast, spec, opts, sig.x);
  cell.winner = cell.ffast_ms < cell.cusfft_ms ? sfft::Algorithm::kFfast
                                               : sfft::Algorithm::kCusfft;
  std::lock_guard<std::mutex> lock(g_table_mu);
  const auto [it, inserted] = table().emplace(key, cell);
  cusim::MetricsRegistry::global()
      .gauge("cusfft_algo_crossover_cells")
      .set(static_cast<double>(table().size()));
  return it->second;
}

sfft::Algorithm resolve_algorithm(const sfft::Params& p,
                                  const perfmodel::GpuSpec& spec,
                                  const Options& opts) {
  sfft::Algorithm algo = p.algo;
  if (const auto ov = algo_override_from_env()) algo = *ov;
  if (algo != sfft::Algorithm::kAuto) return algo;

  sfft::Algorithm picked;
  if (autopick_mode_from_env() == AutopickMode::kModeled) {
    sfft::Params q = p;
    q.algo = sfft::Algorithm::kCusfft;
    const double cus = modeled_signal_cost_s(q, spec, opts);
    q.algo = sfft::Algorithm::kFfast;
    const double ffa = modeled_signal_cost_s(q, spec, opts);
    picked = ffa < cus ? sfft::Algorithm::kFfast : sfft::Algorithm::kCusfft;
  } else {
    picked = calibrate_cell(p, spec, opts).winner;
  }
  cusim::MetricsRegistry::global()
      .counter(cusim::MetricsRegistry::label("cusfft_algo_picks_total",
                                             "algo", sfft::to_string(picked)))
      .inc();
  return picked;
}

}  // namespace cusfft::gpu
