// Pieces every workload shares: the run configuration, the metric report
// with the canonical end-to-end and per-layer names, input generation with
// planted truth, and the per-layer collectors fed from the library's own
// counters (graph replay, buffer pool, filter cache, capture profiles,
// fleet stats).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"
#include "cusfft/multi_plan.hpp"
#include "cusim/profiler.hpp"
#include "sfft/params.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  cusfft::u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  // traced runs write their spans here if set
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// Metrics by name, restricted to one canonical list: a report starts with
/// every listed metric at 0, and set() refuses names outside the list, so
/// each workload prints exactly the declared metrics.
class Report {
 public:
  enum class Kind { kEndToEnd, kPerLayer };
  explicit Report(Kind kind);
  void set(const std::string& name, double value);
  const std::map<std::string, Metric>& metrics() const { return m_; }

 private:
  std::map<std::string, Metric> m_;
};

/// What one invocation prints as its last line.
struct Result {
  bool correct = true;
  std::size_t attempted = 0;  // calls or requests
  std::size_t failed = 0;     // calls that threw, requests shed or rejected
  Report e2e{Report::Kind::kEndToEnd};
  Report layer{Report::Kind::kPerLayer};
  std::vector<std::string> notes;  // human-readable lines printed first
};

/// One generated input with the tones planted in it (truth sorted by
/// location).
struct Input {
  cusfft::cvec x;
  cusfft::SparseSpectrum truth;
};

/// k unit-magnitude tones plus complex Gaussian noise of σ = rel·√k/n per
/// component — noise relative to the tone RMS, as bench_noise_robustness
/// defines it.
Input make_input(std::size_t n, std::size_t k, double rel, cusfft::Rng& rng);

/// The paper's parameter regime every repo bench runs (bcst 1, 4 location
/// + 8 estimation loops, 1e-6 filter tolerance) with a fixed plan seed, so
/// the plans — and the picker's calibration cells — depend on the shape
/// only, never on the benchmark seed.
cusfft::sfft::Params paper_params(std::size_t n, std::size_t k,
                                  cusfft::sfft::Algorithm algo);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

struct Mean {
  double sum = 0;
  std::size_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double get() const { return n ? sum / static_cast<double>(n) : 0.0; }
};

/// Process-wide counters the library keeps (metrics registry, buffer pool,
/// filter cache); since() turns two reads into the traffic in between.
struct Counters {
  double graph_records = 0;
  double graph_replays = 0;
  double pool_allocations = 0;
  double pool_reuses = 0;
  double pool_bytes_allocated = 0;
  double filter_hits = 0;
  double filter_misses = 0;
  double arena_reserved_bytes = 0;  // high-water gauge: kept, not diffed
  double calibrated_cells = 0;      // picker table size: kept, not diffed

  static Counters read();
  Counters since(const Counters& before) const;
};

/// Per-layer collector for one traced pass. Workloads feed it per signal,
/// per capture and per fleet batch; fill() writes the per-layer report.
/// Host times per layer come from the tracer's spans, not from here.
struct Layers {
  std::map<std::string, Mean> phase_ms;  // by per-layer phase name
  Mean candidates;
  std::map<std::string, std::size_t> picks, signals, empties;  // by algo
  // Capture-profile totals (closed-loop workloads; the server keeps its
  // captures private).
  double launches = 0, coalesced_tx = 0, random_tx = 0;
  std::size_t capture_signals = 0;
  Mean occupancy;
  // Fleet and cluster batches.
  Mean imbalance, utilization, pcie_stall_ms, pcie_queue_ms, nic_stall_ms,
      nic_queue_ms;
  double nic_bytes = 0;
  std::size_t nic_signals = 0;

  void add_signal(const cusfft::gpu::GpuSignalStats& s, bool empty);
  void add_capture(const cusfft::cusim::CaptureProfile& p,
                   std::size_t signals);
  void add_fleet(const cusfft::gpu::GpuFleetStats& fs);

  /// Writes every collected figure plus the counter deltas, each layer's
  /// mean self time per span from the tracer, and the pass's failure
  /// fraction.
  void fill(Report& r, const Counters& delta, const Tracer& tracer,
            const Tally& tally) const;
};

/// Relative difference |a − b| / max(|a|, |b|), 0 when both are 0.
double rel_diff(double a, double b);

}  // namespace perfbench
