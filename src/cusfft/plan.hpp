// cusFFT — the paper's contribution: the sparse FFT running as simulator
// kernels on the (simulated) GPU. One GpuPlan owns all device state: the
// uploaded flat filter (time taps + length-n frequency response), the
// permutation parameters, the stream pool, and every working buffer, so an
// execute() is exactly the kernel sequence of Sections IV-V.
//
// Numerical contract: identical Params (and seed) produce the same
// permutations as sfft::SerialPlan, so GPU and CPU outputs agree to FFT
// rounding — tests pin this.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/timer.hpp"
#include "core/types.hpp"
#include "cusfft/options.hpp"
#include "cusim/device.hpp"
#include "sfft/params.hpp"

namespace cusfft::cusim {
class MetricsRegistry;  // cusim/metrics.hpp
}

namespace cusfft::gpu {

/// How execute_many() schedules the batch on the modeled device.
enum class BatchMode {
  kAuto,        ///< pipelined for batches of >= 2 signals
  kSerialized,  ///< one signal at a time (device-wide sync between signals)
  kPipelined,   ///< stream-pipelined: signal i+1's transfer and binning
                ///< kernels overlap signal i's cutoff/vote/estimate on the
                ///< modeled timeline (two home streams, stream events
                ///< instead of device-wide syncs). Outputs are
                ///< bit-identical to the serialized schedule.
};

/// One signal's window of a batch, computed from that signal's own stream
/// events — the numbers stay coherent when signals overlap.
struct GpuSignalStats {
  double start_ms = 0;  // capture-relative [start, end) of this signal
  double end_ms = 0;
  std::map<std::string, double> phase_span_ms;  // same keys as GpuExecStats;
                                                // spans tile [start, end)
  std::size_t candidates = 0;
  /// Backend that ran this signal (resolved — never kAuto). Under
  /// MultiGpuPlan::execute_mixed each signal records its own pick.
  sfft::Algorithm algo = sfft::Algorithm::kCusfft;
};

/// Publishes one signal's window into the always-on registry: its
/// end-to-end latency into `cusfft_signal_latency_ms{device="<device>"}`
/// and each phase span into `cusfft_phase_ms{phase="..."}`. Shared by the
/// single-device batch path and the fleet adapter so the two can never
/// drift apart.
void observe_signal_metrics(cusim::MetricsRegistry& reg,
                            const GpuSignalStats& sig, std::size_t device);

/// Modeled timing and wall time for one execute_many() batch.
struct GpuBatchStats {
  double model_ms = 0;  // modeled makespan of the whole batch
  double host_ms = 0;   // wall time of the functional simulation
  std::size_t signals = 0;
  std::size_t candidates = 0;  // summed over the batch
  bool pipelined = false;      // schedule the batch actually ran under
  /// Backend this plan's batch ran (resolved — never kAuto).
  sfft::Algorithm algo = sfft::Algorithm::kCusfft;
  /// Always index-aligned with the input batch: per_signal[i] (like the
  /// returned spectra vector) describes xs[i] regardless of the schedule
  /// — serialized, pipelined, or sharded across a device fleet
  /// (MultiGpuPlan reorders shard results back to input order; tests pin
  /// this).
  std::vector<GpuSignalStats> per_signal;

  /// Folds this batch into the always-on registry (batch counters,
  /// model/host latency histograms, per-signal latencies + phase spans on
  /// `device`). execute_many() publishes automatically; the fleet path
  /// publishes once through GpuFleetStats::to_metrics instead.
  void to_metrics(cusim::MetricsRegistry& reg, std::size_t device = 0) const;
};

/// Modeled timing and counters for one execute().
struct GpuExecStats {
  double model_ms = 0;  // modeled makespan on the GpuSpec (incl. transfer
                        // when Options::include_transfer)
  double host_ms = 0;   // wall time of the functional simulation (for
                        // transparency; not a GPU time)
  std::map<std::string, double> step_model_ms;  // per paper step, summed
                                                // solo kernel durations
  std::map<std::string, double> phase_span_ms;  // true timeline spans
                                                // between phase boundaries
                                                // (overlap-aware)
  std::size_t candidates = 0;  // locations that survived voting
  /// Backend this execute ran (resolved — never kAuto). Also keys the
  /// cusfft_algo_executes_total{algo=...} counter in to_metrics.
  sfft::Algorithm algo = sfft::Algorithm::kCusfft;

  /// Folds this execute into the always-on registry (execute counter,
  /// model/host latency histograms, phase-span histograms). execute()
  /// publishes automatically.
  void to_metrics(cusim::MetricsRegistry& reg) const;
};

class GpuPlan {
 public:
  GpuPlan(cusim::Device& dev, sfft::Params params, Options opts);
  ~GpuPlan();
  GpuPlan(GpuPlan&&) noexcept;
  GpuPlan& operator=(GpuPlan&&) noexcept;
  GpuPlan(const GpuPlan&) = delete;
  GpuPlan& operator=(const GpuPlan&) = delete;

  const sfft::Params& params() const;
  const Options& options() const;
  std::size_t buckets() const;

  /// Runs the full GPU algorithm on x (length n). Returns the recovered
  /// sparse spectrum sorted by location.
  SparseSpectrum execute(std::span<const cplx> x,
                         GpuExecStats* stats = nullptr);

  /// Throughput path: runs the algorithm on every signal of the batch in
  /// one capture, reusing all of the plan's device state (no per-signal
  /// setup, pooled buffers stay warm). The signals run on lanes — as many
  /// as the device's pool has workers, capped at the batch size — each
  /// with its own per-signal buffers, and their device calls reach the
  /// device in signal order, so results, modeled times and captures are
  /// the same at every lane count. Under BatchMode::kPipelined (the kAuto
  /// default for >= 2 signals) signals alternate between two home
  /// streams, so signal i+1's H2D transfer and binning kernels overlap
  /// signal i's cutoff/vote/estimate kernels on the modeled timeline;
  /// outputs are bit-identical to the serialized schedule either way.
  /// Each signal must have length n; the kernels read it in place.
  std::vector<SparseSpectrum> execute_many(
      std::span<const std::span<const cplx>> xs,
      GpuBatchStats* stats = nullptr, BatchMode mode = BatchMode::kAuto);

  /// execute_many() without opening a fresh capture: appends this batch to
  /// the capture already open on the device. Mixed-shape shards run one
  /// batch per shape-specific plan inside a single device capture (with a
  /// sync point between shape groups) so the shard's timeline covers all
  /// of them; execute_many() would reset the capture and erase the earlier
  /// groups. The caller owns begin_capture()/end_capture().
  std::vector<SparseSpectrum> execute_many_in_capture(
      std::span<const std::span<const cplx>> xs,
      GpuBatchStats* stats = nullptr, BatchMode mode = BatchMode::kAuto);

 private:
  std::vector<SparseSpectrum> run_batch(
      std::span<const std::span<const cplx>> xs, GpuBatchStats* stats,
      BatchMode mode, bool fresh_capture);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Maps a kernel name to the paper step it belongs to (the keys of
/// sfft::step::*); used for the per-step GPU profile and by tests.
const char* step_of_kernel(const std::string& kernel_name);

}  // namespace cusfft::gpu
