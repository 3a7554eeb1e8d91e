// The benchmark's own arithmetic, kept free of library calls so the unit
// tests can pin it: order statistics with the ten-samples-beyond rule,
// goodput counting against planted tones, and the serve_qps_max rate
// ladder with its backlog rule.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace perfbench {

// ---- order statistics ----------------------------------------------------

/// Nearest-rank quantile: the value at rank ceil(q * N) of the sorted
/// samples (q in (0, 1]). 0 for an empty sample.
double quantile(std::vector<double> samples, double q);

/// Samples ranked strictly above the nearest-rank q-quantile.
std::size_t samples_beyond(std::size_t n, double q);

/// The ten-beyond rule: a q-quantile of n samples is reported as a tail
/// figure only when at least ten samples lie beyond it (N = 100 for p90,
/// N = 1000 for p99).
bool tail_supported(std::size_t n, double q);

double median(std::vector<double> samples);

/// The median, over consecutive windows of `window` samples, of each
/// window's nearest-rank q-quantile. A trailing partial window is left
/// out; with no full window (or window 0) it is the plain q-quantile. A
/// burst of host load that slows a minority of the windows leaves it
/// unchanged, where it would move the quantile of the whole run.
double windowed_quantile(std::span<const double> samples, double q,
                         std::size_t window);

// ---- accuracy and goodput --------------------------------------------------

/// Accuracy of one recovered spectrum against the tones planted in its
/// input. `truth` holds exactly k unique locations, sorted by location.
struct Score {
  double recall = 0;  // |recovered locations ∩ planted| / k
  double l1 = 0;      // (1/k) · Σ |recovered − planted| over all bins
  bool empty = false;
};

/// `got` need not be sorted. Both spectra are treated as dense length-n
/// vectors that are zero off their listed locations.
Score score(const cusfft::SparseSpectrum& got,
            const cusfft::SparseSpectrum& truth);

/// Recall a signal needs to count as recovered.
inline constexpr double kRecallFloor = 0.9;

/// Running goodput tally. A signal fails when its call threw or was
/// refused, when its spectrum is empty, or when its recall is below
/// kRecallFloor; only recovered signals count towards goodput.
struct Tally {
  std::size_t attempted = 0;
  std::size_t errors = 0;  // threw, shed or rejected: no spectrum at all
  std::size_t recovered = 0;
  double recall_sum = 0;
  double l1_sum = 0;

  void add(const Score& s);
  void add_error();  // counts as recall 0 and no L1 contribution
  void merge(const Tally& o);

  std::size_t failed() const { return attempted - recovered; }
  double failed_frac() const;
  double recovered_frac() const;
  double mean_recall() const;
  /// Mean L1 per large coefficient over the signals that returned a
  /// spectrum (errors have none to score).
  double mean_l1() const;
  /// Recovered signals per second of `seconds`.
  double goodput(double seconds) const;
};

/// FNV-1a over every coefficient's location and value bits — equal hashes
/// are what "bit-identical spectra" is checked with.
cusfft::u64 spectrum_hash(const cusfft::SparseSpectrum& s);

// ---- rate ladder ---------------------------------------------------------

/// Sojourn of a failed (shed, rejected or thrown) request: over any limit.
inline constexpr double kFailedLatency = 1e300;

/// A load is building up when the mean sojourn of the last quarter of
/// requests (arrival order) exceeds the first quarter's by more than
/// `limit_ms`. Needs at least four requests; fewer never count as growing.
bool backlog_growing(std::span<const double> sojourn_ms, double limit_ms);

/// One rung of the ladder passes when the p99 of the latency-class
/// sojourns (failed requests at kFailedLatency) is within `limit_ms`, no
/// request of any class failed, and the backlog is not growing.
struct RungOutcome {
  double rate = 0;  // offered requests per modeled second
  double p99_ms = 0;
  std::size_t failed = 0;
  bool backlog = false;
  bool pass = false;
};
RungOutcome judge_rung(double rate, std::span<const double> latency_class_ms,
                       std::span<const double> all_sojourn_ms,
                       std::size_t failed, double limit_ms);

/// serve_qps_max: walks the fixed `ladder` (ascending rates) until the
/// first failing rung, then bisects geometrically between the last passing
/// and the first failing rate `refine` times. Returns the highest passing
/// rate seen: the top rung when every rung passes, 0 when the first rung
/// already fails. `evaluate` is called once per probed rate; every outcome
/// is appended to `probes` when non-null.
double qps_max(std::span<const double> ladder,
               const std::function<RungOutcome(double)>& evaluate,
               int refine, std::vector<RungOutcome>* probes = nullptr);

/// Arrival times (ms) of a Poisson stream of n arrivals at `rate` per
/// second. The same seed draws the same unit-rate gaps at every rate, so a
/// faster rung replays a slower one's pattern compressed in time.
std::vector<double> poisson_arrivals(std::size_t n, double rate,
                                     cusfft::u64 seed);

/// Modeled single-server queue for the closed-loop workloads: call i
/// arrives at arrival_ms[i] and is served first-come first-served for
/// service_ms[i] (Lindley recursion; the spans have equal length). Returns
/// each call's sojourn in ms.
std::vector<double> fifo_sojourns(std::span<const double> service_ms,
                                  std::span<const double> arrival_ms);

}  // namespace perfbench
