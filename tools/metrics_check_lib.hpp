// Validator for the always-on metrics artifacts (cusim::MetricsRegistry
// expositions). Four checks, each usable on its own:
//   - check_metrics_json: schema + internal consistency of one JSON
//     snapshot (bucket counts sum to the histogram count, percentiles are
//     ordered min <= p50 <= p95 <= p99 <= max, sum within [count*min,
//     count*max], bucket bounds ascending);
//   - check_metrics_monotonic: counters and histogram counts never
//     decrease between two snapshots of the same process;
//   - check_metrics_prometheus: the Prometheus text exposition agrees
//     with the JSON snapshot (same counter values, same histogram counts,
//     cumulative buckets non-decreasing and ending at the count);
//   - check_device_histograms: the per-device execute-latency
//     histograms exist with observations for every expected device.
// Library + CLI split so tests can feed synthetic documents — same layout
// as profile_check_lib / bench_gate_lib.
#pragma once

#include <string>
#include <vector>

#include "core/types.hpp"

namespace cusfft::tools {

struct MetricsCheckResult {
  bool ok = false;
  std::vector<std::string> errors;

  // Summary counts for reporting (filled by check_metrics_json).
  std::size_t counters = 0;
  std::size_t gauges = 0;
  std::size_t histograms = 0;
};

/// Validates one "cusfft-metrics-v1" JSON document.
MetricsCheckResult check_metrics_json(const std::string& text);

/// Validates that every counter and histogram count in `prev` is <= its
/// value in `next` (both "cusfft-metrics-v1" documents from the same
/// process). Instruments present only in `next` are fine (registered
/// later); instruments that disappeared are errors.
MetricsCheckResult check_metrics_monotonic(const std::string& prev,
                                           const std::string& next);

/// Cross-checks a Prometheus text exposition against the JSON snapshot it
/// was taken with.
MetricsCheckResult check_metrics_prometheus(const std::string& json_text,
                                            const std::string& prom_text);

/// Requires `cusfft_signal_latency_ms{device="i"}` with count > 0 for
/// every i in [0, devices).
MetricsCheckResult check_device_histograms(const std::string& json_text,
                                           std::size_t devices);

/// Serving-tier coverage for a drained cusfft::serve::Server snapshot:
/// the cusfft_serve_* instruments must exist, request accounting must
/// conserve (requests_total summed over both SLO classes == completed +
/// shed + rejected — only valid between batches, which any drained
/// snapshot is), the per-class latency histogram counts must sum to the
/// completed count, and the batch-size histogram count must equal
/// batches_total.
MetricsCheckResult check_serve_metrics(const std::string& json_text);

/// Cluster-tier coverage for a cusfft::gpu::ClusterPlan snapshot: the
/// cusfft_cluster_* counters and histograms must exist (each histogram's
/// count equal to cusfft_cluster_batches_total), every node in
/// [0, nodes) must expose its cusfft_node_signals_total /
/// cusfft_node_nic_bytes_total series, and the per-node signal split must
/// sum to cusfft_cluster_signals_total (cross-node conservation — no
/// signal double-counted or dropped by the node sharding).
MetricsCheckResult check_cluster_metrics(const std::string& json_text,
                                         std::size_t nodes);

/// Algorithm-picker coverage for a crossover run (bench_throughput
/// --algo auto): both backends' cusfft_algo_signals_total series must
/// have observations (calibration runs both), the per-algo signal split
/// must conserve cusfft_signals_total (every signal attributed to exactly
/// one backend), cusfft_algo_picks_total must show the picker actually
/// ran, and the cusfft_algo_crossover_cells gauge must report a non-empty
/// calibration table.
MetricsCheckResult check_algo_metrics(const std::string& json_text);

}  // namespace cusfft::tools
