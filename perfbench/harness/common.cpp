#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "cusim/metrics.hpp"
#include "cusim/pool.hpp"
#include "signal/filter.hpp"
#include "signal/generate.hpp"

namespace perfbench {

using namespace cusfft;

namespace {

// The canonical metric lists; BENCHMARK.json declares the same names.
const std::vector<std::pair<const char*, const char*>>& e2e_list() {
  static const std::vector<std::pair<const char*, const char*>> l = {
      {"host_sps", "1/s"},         {"host_ms_p50", "ms"},
      {"host_ms_p90", "ms"},       {"model_sps", "1/s"},
      {"recall", "ratio"},         {"l1_per_coeff", "amplitude"},
      {"recovered_frac", "ratio"}, {"serve_p50_ms", "ms"},
      {"serve_p99_ms", "ms"},      {"serve_qps_max", "1/s"},
      {"setup_s", "s"},            {"peak_rss_mb", "MB"},
  };
  return l;
}

const std::vector<std::pair<const char*, const char*>>& layer_list() {
  static const std::vector<std::pair<const char*, const char*>> l = {
      {"signal.gen_ms", "ms"},
      {"signal.filter_build_ms", "ms"},
      {"signal.filter_cache_hit_ratio", "ratio"},
      {"signal.filter_cache_lookups", "count"},
      {"plan.build_ms", "ms"},
      {"plan.execute_ms", "ms"},
      {"plan.phase_ms.transfer", "ms"},
      {"plan.phase_ms.bin", "ms"},
      {"plan.phase_ms.vote", "ms"},
      {"plan.phase_ms.estimate", "ms"},
      {"plan.phase_ms.ffast_bin", "ms"},
      {"plan.phase_ms.ffast_d2h", "ms"},
      {"plan.phase_ms.ffast_peel", "ms"},
      {"plan.candidates_per_signal", "count"},
      {"autopick.resolve_ms", "ms"},
      {"autopick.calibrated_cells", "count"},
      {"autopick.picks.cusfft", "count"},
      {"autopick.picks.ffast", "count"},
      {"sfft.signals.cusfft", "count"},
      {"sfft.signals.ffast", "count"},
      {"sfft.empty_frac.cusfft", "ratio"},
      {"sfft.empty_frac.ffast", "ratio"},
      {"cusim.graph_replay_ratio", "ratio"},
      {"cusim.graph_launches", "count"},
      {"cusim.graph_records", "count"},
      {"cusim.launches_per_signal", "count"},
      {"cusim.mem_bytes_per_signal", "B"},
      {"cusim.coalesced_frac", "ratio"},
      {"cusim.occupancy_frac", "ratio"},
      {"cusim.pool_hit_ratio", "ratio"},
      {"cusim.pool_acquires", "count"},
      {"cusim.pool_bytes_allocated", "B"},
      {"cusim.arena_reserved_bytes", "B"},
      {"cusim.capture_ms", "ms"},
      {"fleet.imbalance", "ratio"},
      {"fleet.utilization", "ratio"},
      {"fleet.pcie_stall_ms", "ms"},
      {"fleet.pcie_queue_ms", "ms"},
      {"cluster.nic_bytes_per_signal", "B"},
      {"cluster.nic_stall_ms", "ms"},
      {"cluster.nic_queue_ms", "ms"},
      {"serve.batches", "count"},
      {"serve.batch_fill", "ratio"},
      {"serve.queue_depth_max", "count"},
      {"serve.batch_wait_ms_p50", "ms"},
      {"serve.shed", "count"},
      {"serve.rejected", "count"},
      {"serve.submit_ms", "ms"},
      {"serve.drain_ms", "ms"},
      {"serve.replay_mismatch", "count"},
      {"serve.generator_lateness_ms", "ms"},
      {"bench.self_ms", "ms"},
      {"failed_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
      {"trace.spans", "count"},
      {"trace.calls", "count"},
  };
  return l;
}

// Per-signal phase spans (GpuSignalStats::phase_span_ms keys) under their
// per-layer names.
const char* phase_metric(const std::string& phase) {
  static const std::map<std::string, const char*> m = {
      {"a transfer+reset", "transfer"},
      {"b comb+bin+fft", "bin"},
      {"c cutoff+vote", "vote"},
      {"d estimate+d2h", "estimate"},
      {"b ffast subsample+fft", "ffast_bin"},
      {"c ffast d2h", "ffast_d2h"},
      {"d ffast peel", "ffast_peel"},
  };
  const auto it = m.find(phase);
  return it == m.end() ? nullptr : it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

Report::Report(Kind kind) {
  for (const auto& [name, unit] :
       kind == Kind::kEndToEnd ? e2e_list() : layer_list())
    m_.emplace(name, Metric{0.0, unit});
}

void Report::set(const std::string& name, double value) {
  const auto it = m_.find(name);
  if (it == m_.end())
    throw std::logic_error("perfbench: undeclared metric " + name);
  it->second.value = value;
}

Input make_input(std::size_t n, std::size_t k, double rel, Rng& rng) {
  signal::SparseSignalParams sp;
  sp.noise_sigma =
      rel * std::sqrt(static_cast<double>(k)) / static_cast<double>(n);
  signal::SparseSignal s = signal::make_sparse_signal(n, k, rng, sp);
  std::sort(s.truth.begin(), s.truth.end(),
            [](const SparseCoef& a, const SparseCoef& b) {
              return a.loc < b.loc;
            });
  return {std::move(s.x), std::move(s.truth)};
}

sfft::Params paper_params(std::size_t n, std::size_t k,
                          sfft::Algorithm algo) {
  sfft::Params p;
  p.n = n;
  p.k = k;
  p.seed = 20160523;
  p.bcst = 1.0;
  p.loops_loc = 4;
  p.loops_est = 8;
  p.filter.tolerance = 1e-6;
  p.algo = algo;
  return p;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Counters Counters::read() {
  const cusim::MetricsRegistry::Snapshot s =
      cusim::MetricsRegistry::global().snapshot();
  auto counter = [&s](const char* name) {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto gauge = [&s](const char* name) {
    const auto it = s.gauges.find(name);
    return it == s.gauges.end() ? 0.0 : it->second;
  };
  const cusim::BufferPool::Stats pool = cusim::BufferPool::global().stats();
  const signal::FilterCacheStats fc = signal::flat_filter_cache_stats();
  Counters c;
  c.graph_records = counter("cusfft_graph_records_total");
  c.graph_replays = counter("cusfft_graph_replays_total");
  c.pool_allocations = static_cast<double>(pool.allocations);
  c.pool_reuses = static_cast<double>(pool.reuses);
  c.pool_bytes_allocated = static_cast<double>(pool.bytes_allocated);
  c.filter_hits = static_cast<double>(fc.hits);
  c.filter_misses = static_cast<double>(fc.misses);
  c.arena_reserved_bytes = gauge("cusfft_arena_reserved_bytes");
  c.calibrated_cells = gauge("cusfft_algo_crossover_cells");
  return c;
}

Counters Counters::since(const Counters& before) const {
  Counters d = *this;
  d.graph_records -= before.graph_records;
  d.graph_replays -= before.graph_replays;
  d.pool_allocations -= before.pool_allocations;
  d.pool_reuses -= before.pool_reuses;
  d.pool_bytes_allocated -= before.pool_bytes_allocated;
  d.filter_hits -= before.filter_hits;
  d.filter_misses -= before.filter_misses;
  return d;
}

void Layers::add_signal(const gpu::GpuSignalStats& s, bool empty) {
  for (const auto& [phase, ms] : s.phase_span_ms)
    if (const char* name = phase_metric(phase)) phase_ms[name].add(ms);
  candidates.add(static_cast<double>(s.candidates));
  const std::string algo = sfft::to_string(s.algo);
  ++signals[algo];
  if (empty) ++empties[algo];
}

void Layers::add_capture(const cusim::CaptureProfile& p,
                         std::size_t signals_in_capture) {
  for (const cusim::KernelProfile& k : p.kernels) {
    launches += static_cast<double>(k.launches);
    coalesced_tx += k.counters.coalesced_transactions;
    random_tx += k.counters.random_transactions;
  }
  capture_signals += signals_in_capture;
  occupancy.add(p.occupancy_frac);
}

void Layers::add_fleet(const gpu::GpuFleetStats& fs) {
  imbalance.add(fs.imbalance);
  Mean util;
  for (const gpu::GpuDeviceShardStats& d : fs.per_device)
    if (d.signals > 0) util.add(d.utilization);
  utilization.add(util.get());
  pcie_stall_ms.add(fs.pcie_stall_ms);
  pcie_queue_ms.add(fs.pcie_queue_ms);
  if (fs.nodes > 1) {
    nic_stall_ms.add(fs.nic_stall_ms);
    nic_queue_ms.add(fs.nic_queue_ms);
    nic_bytes += fs.nic_bytes;
    nic_signals += fs.signals;
  }
}

void Layers::fill(Report& r, const Counters& delta, const Tracer& tracer,
                  const Tally& tally) const {
  // Host time: mean self time per span of each layer.
  const std::map<std::string, double> self = self_ms(tracer.spans());
  std::map<std::string, std::size_t> count;
  for (const Span& s : tracer.spans()) ++count[s.name];
  auto per_span = [&](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : ratio(it->second, count.at(span));
  };
  r.set("signal.gen_ms", per_span("gen"));
  r.set("signal.filter_build_ms", per_span("filter_build"));
  r.set("plan.build_ms", per_span("build"));
  r.set("plan.execute_ms", per_span("execute"));
  r.set("autopick.resolve_ms", per_span("resolve"));
  r.set("cusim.capture_ms", per_span("capture"));
  r.set("serve.submit_ms", per_span("submit"));
  r.set("serve.drain_ms", per_span("drain"));
  r.set("bench.self_ms", per_span("call"));
  r.set("trace.spans", static_cast<double>(tracer.spans().size()));

  for (const auto& [name, m] : phase_ms)
    r.set(std::string("plan.phase_ms.") + name, m.get());
  r.set("plan.candidates_per_signal", candidates.get());
  for (const char* algo : {"cusfft", "ffast"}) {
    const auto pk = picks.find(algo);
    r.set(std::string("autopick.picks.") + algo,
          pk == picks.end() ? 0.0 : static_cast<double>(pk->second));
    const auto sg = signals.find(algo);
    const auto em = empties.find(algo);
    const double ran = sg == signals.end() ? 0.0 : sg->second;
    r.set(std::string("sfft.signals.") + algo, ran);
    r.set(std::string("sfft.empty_frac.") + algo,
          ratio(em == empties.end() ? 0.0 : em->second, ran));
  }
  r.set("autopick.calibrated_cells", delta.calibrated_cells);

  const double launches_traced = delta.graph_records + delta.graph_replays;
  r.set("cusim.graph_replay_ratio",
        ratio(delta.graph_replays, launches_traced));
  r.set("cusim.graph_launches", launches_traced);
  r.set("cusim.graph_records", delta.graph_records);
  r.set("cusim.launches_per_signal", ratio(launches, capture_signals));
  const double tx_bytes = perfmodel::GpuSpec::k20x().mem_transaction_bytes;
  r.set("cusim.mem_bytes_per_signal",
        ratio((coalesced_tx + random_tx) * tx_bytes, capture_signals));
  r.set("cusim.coalesced_frac", ratio(coalesced_tx, coalesced_tx + random_tx));
  r.set("cusim.occupancy_frac", occupancy.get());
  const double acquires = delta.pool_allocations + delta.pool_reuses;
  r.set("cusim.pool_hit_ratio", ratio(delta.pool_reuses, acquires));
  r.set("cusim.pool_acquires", acquires);
  r.set("cusim.pool_bytes_allocated", delta.pool_bytes_allocated);
  r.set("cusim.arena_reserved_bytes", delta.arena_reserved_bytes);
  const double lookups = delta.filter_hits + delta.filter_misses;
  r.set("signal.filter_cache_hit_ratio", ratio(delta.filter_hits, lookups));
  r.set("signal.filter_cache_lookups", lookups);

  r.set("fleet.imbalance", imbalance.get());
  r.set("fleet.utilization", utilization.get());
  r.set("fleet.pcie_stall_ms", pcie_stall_ms.get());
  r.set("fleet.pcie_queue_ms", pcie_queue_ms.get());
  r.set("cluster.nic_bytes_per_signal", ratio(nic_bytes, nic_signals));
  r.set("cluster.nic_stall_ms", nic_stall_ms.get());
  r.set("cluster.nic_queue_ms", nic_queue_ms.get());

  r.set("failed_frac", tally.failed_frac());
}

double rel_diff(double a, double b) {
  const double m = std::max(std::abs(a), std::abs(b));
  return m > 0 ? std::abs(a - b) / m : 0.0;
}

}  // namespace perfbench
