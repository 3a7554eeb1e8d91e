// Always-on fleet telemetry: a process-wide registry of named counters,
// gauges, and log-bucketed latency histograms. Where CaptureProfile
// (profiler.hpp) answers "what happened inside this one capture", the
// registry answers "what has this process been doing across thousands of
// executes" — cheap enough to stay enabled under sustained fleet traffic.
//
// Hot-path contract: an increment is one relaxed atomic add on a
// per-thread shard cell (cache-line padded, so concurrent writers never
// bounce a line); registration / lookup by name takes a mutex and is meant
// to happen once, with the returned handle cached by the caller.
// Aggregation across shards happens only at snapshot() time.
//
// Two exposition formats, both deterministic (identical state produces
// byte-identical output): Prometheus text format (expose_text) and a JSON
// document (expose_json) that tools/metrics_check validates with the
// in-repo core/json_lite reader. Metric naming scheme, label convention,
// and the capture-vs-continuous split are documented in docs/PROFILING.md.
//
// Family prefixes currently registered here: cusfft_batches_total /
// cusfft_signals_total / cusfft_signal_latency_ms / cusfft_phase_ms
// (per-plan batches; a single execute is a batch of one),
// cusfft_fleet_* / cusfft_device_* (MultiGpuPlan sharding), cusfft_pool_*
// / cusfft_arena_* / cusfft_graph_* (allocator and replay substrate), and
// cusfft_serve_* (the multi-tenant serving tier — requests/completed/
// shed/rejected/batches counters with a {class="latency"|"throughput"}
// split on requests and latency histograms; see cusfft/server.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace cusfft::cusim {

namespace metrics_detail {

/// Shard count for all sharded instruments (power of two). Eight cells is
/// enough to keep the fleet's shard threads (one per device) plus their
/// lane workers off each other's cache lines.
inline constexpr std::size_t kShards = 8;

/// This thread's shard slot: threads are assigned round-robin on first
/// use, so up to kShards concurrent writers touch distinct cells.
std::size_t shard_index();

/// Relaxed compare-exchange add for doubles (fetch_add on atomic<double>
/// is C++20-library-dependent; the CAS loop is portable and, on a
/// per-thread shard, almost always succeeds on the first try).
inline void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

inline void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

inline void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace metrics_detail

/// Monotonic counter. add() is the hot path: one relaxed fetch_add on the
/// calling thread's shard cell.
class Counter {
 public:
  void add(u64 n = 1) {
    cells_[metrics_detail::shard_index()].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  void inc() { add(1); }

  /// Sum over shards. Concurrent adds may or may not be included (each
  /// cell is read once); the value never goes backwards between calls
  /// that happen-after the adds they observe.
  u64 value() const {
    u64 s = 0;
    for (const Cell& c : cells_) s += c.v.load(std::memory_order_relaxed);
    return s;
  }

 private:
  friend class MetricsRegistry;
  void zero() {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }
  struct alignas(64) Cell {
    std::atomic<u64> v{0};
  };
  std::array<Cell, metrics_detail::kShards> cells_;
};

/// Last-write-wins instantaneous value (utilization, bytes parked, ...).
/// set_max keeps a high-water mark instead.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double v) { metrics_detail::atomic_add(v_, v); }
  void set_max(double v) { metrics_detail::atomic_max(v_, v); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void zero() { v_.store(0, std::memory_order_relaxed); }
  std::atomic<double> v_{0};
};

/// Aggregated view of one histogram: exact count/sum/min/max plus the
/// non-empty buckets (upper bound, count), ascending.
struct HistogramSnapshot {
  u64 count = 0;
  double sum = 0;
  double min = 0;  // exact (not bucketed); 0 when count == 0
  double max = 0;
  std::vector<std::pair<double, u64>> buckets;

  /// Value at quantile q in [0, 1]: the upper bound of the bucket holding
  /// the rank-ceil(q*count) observation, clamped to the exact max — so
  /// percentile(1) == max exactly, and any percentile is within one
  /// bucket's width (<= 1/kSubBuckets relative) above the true order
  /// statistic. 0 when the histogram is empty.
  double percentile(double q) const;
};

/// Log-bucketed latency histogram: power-of-two octaves, kSubBuckets
/// linear sub-buckets per octave (HdrHistogram-style), so the relative
/// bucket width — and thereby the percentile error — is bounded by
/// 1/kSubBuckets. observe() is two relaxed adds plus min/max CAS on the
/// calling thread's shard.
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;  // 12.5% relative resolution
  static constexpr int kMinExp = -20;    // first octave: [2^-20, 2^-19) ms
  static constexpr int kMaxExp = 30;     // values >= 2^30 ms overflow
  /// Underflow bucket (v < 2^kMinExp, including 0) + the octave grid +
  /// overflow bucket.
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  Histogram();

  void observe(double v);

  /// Bucket index for a value (total order: underflow, grid, overflow).
  static std::size_t bucket_index(double v);
  /// Inclusive upper bound of a grid/underflow bucket; +infinity for the
  /// overflow bucket.
  static double bucket_upper(std::size_t index);

  HistogramSnapshot snapshot() const;

 private:
  friend class MetricsRegistry;
  void zero();
  struct alignas(64) Shard {
    std::atomic<u64> count{0};
    std::atomic<double> sum{0};
    std::atomic<double> min{0};  // valid only when count > 0
    std::atomic<double> max{0};
    std::array<std::atomic<u64>, kBuckets> buckets{};
  };
  std::array<Shard, metrics_detail::kShards> shards_;
};

class MetricsRegistry {
 public:
  /// Instrument lookup-or-create by name. Names follow Prometheus rules
  /// ([a-zA-Z_:][a-zA-Z0-9_:]*), optionally carrying a label set appended
  /// with label() — e.g. `cusfft_signal_latency_ms{device="0"}`. Returned
  /// references are stable for the registry's lifetime; hot paths should
  /// cache them. Looking a name up as two different instrument kinds
  /// throws std::logic_error.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// `name{key="value"}`, merging into an existing label set — the
  /// convention every labeled metric in the repo uses.
  static std::string label(const std::string& name, const std::string& key,
                           const std::string& value);

  /// Point-in-time aggregation of every instrument plus the pull
  /// collectors' samples. Deterministic ordering (by name).
  struct Snapshot {
    std::map<std::string, u64> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /// JSON document (`{"schema": "cusfft-metrics-v1", ...}`); schema in
    /// docs/PROFILING.md, validated by tools/metrics_check.
    std::string to_json() const;
    /// Prometheus text exposition format (counter/gauge/histogram
    /// families; histogram buckets are cumulative with a +Inf bound).
    std::string to_prometheus() const;
  };

  /// Pull-style collector, run at every snapshot(): writes samples for
  /// state that already maintains its own atomics (BufferPool) instead of
  /// double-accounting on the hot path. Counter samples written by
  /// collectors are reported relative to the last reset().
  using Collector = std::function<void(Snapshot&)>;
  void add_collector(Collector c);

  Snapshot snapshot() const;
  std::string expose_json() const { return snapshot().to_json(); }
  std::string expose_text() const { return snapshot().to_prometheus(); }

  /// Zeroes every instrument in place (registered handles stay valid) and
  /// re-baselines collector-sourced counters so they restart from zero.
  void reset();

  /// The process-wide registry every always-on instrument lives in. The
  /// first use registers the default collectors (BufferPool).
  static MetricsRegistry& global();

 private:
  void run_collectors(Snapshot& s) const;

  mutable std::mutex mu_;
  // std::map: pointer-stable nodes + deterministic iteration by name.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::vector<Collector> collectors_;
  std::map<std::string, u64> collector_base_;  // reset() baseline
};

}  // namespace cusfft::cusim
