// cusFFT — the paper's contribution: the sparse FFT running as simulator
// kernels on the (simulated) GPU. One GpuPlan owns all device state: the
// uploaded flat filter (time taps + length-n frequency response), the
// permutation parameters, the stream pool, and every working buffer, so
// each signal of a batch is exactly the kernel sequence of Sections IV-V.
// A single execute() is a batch of one.
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
  std::map<std::string, double> phase_span_ms;  // one span per phase;
                                                // spans tile [start, end)
  std::size_t candidates = 0;
  /// Backend that ran this signal (resolved — never kAuto). Under
  /// MultiGpuPlan::execute_mixed each signal records its own pick.
  sfft::Algorithm algo = sfft::Algorithm::kCusfft;
};

/// Modeled timing and wall time for one execute() or execute_many() batch.
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
  /// device 0). execute() and execute_many() publish automatically; the
  /// fleet path publishes once through GpuFleetStats::to_metrics instead.
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

  /// Runs the full GPU algorithm on x (length n): execute_many() on a
  /// batch of one. Returns the recovered sparse spectrum sorted by
  /// location; `stats` describes the one-signal batch.
  SparseSpectrum execute(std::span<const cplx> x,
                         GpuBatchStats* stats = nullptr);

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

 private:
  friend class MultiGpuPlan;  // runs its shard batches through run_batch

  /// The one batch path behind execute() and execute_many(). With
  /// fresh_capture it opens a capture and publishes the batch to the
  /// registry. Without, the batch appends to the capture already open on
  /// the device — the caller owns begin_capture()/end_capture() and the
  /// publication — so a fleet shard's timeline covers all of its shape
  /// groups.
  std::vector<SparseSpectrum> run_batch(
      std::span<const std::span<const cplx>> xs, GpuBatchStats* stats,
      BatchMode mode, bool fresh_capture);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Maps a kernel name to the paper step it belongs to (the keys of
/// sfft::step::*); used for the per-step GPU profile and by tests.
const char* step_of_kernel(const std::string& kernel_name);

/// The per-step breakdown of the device's current capture, in ms: the
/// summed solo durations of Device::report() (kernels and transfers)
/// folded by step_of_kernel. Sums to the capture's total solo time, not to
/// its makespan.
std::map<std::string, double> step_model_ms(const cusim::Device& dev);

}  // namespace cusfft::gpu
