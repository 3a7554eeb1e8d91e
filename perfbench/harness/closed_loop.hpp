// The closed-loop runner shared by steady_batch and cold_mixed: one client
// calls the workload's entry point back to back, sending the next call
// only when the previous one returned.
#pragma once

#include <cstddef>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// One call into a closed-loop workload's entry point.
struct Call {
  double host_ms = 0;   // wall time of the call, scoring excluded
  double model_ms = 0;  // modeled makespan of the call
  std::vector<cusfft::u64> hashes;  // spectrum_hash per signal, input order
  Tally tally;
};

class ClosedLoop {
 public:
  virtual ~ClosedLoop() = default;
  /// Generates the inputs from the seed and builds whatever the calls
  /// reuse. Runs once per setup repetition and again before a second pass.
  virtual void setup(Tracer* t) = 0;
  /// Call i of the workload's deterministic call sequence: the same i
  /// always runs the same inputs. `layers` is non-null in the traced pass.
  virtual Call call(std::size_t i, Tracer* t, Layers* layers) = 0;
  /// Calls come in rounds that must complete together (cold_mixed: one
  /// sweep over its shape vocabulary); timed loops stop on a round
  /// boundary so every run sees the same mix.
  virtual std::size_t round() const { return 1; }
  /// Offered calls per modeled second at which serve_p50_ms and
  /// serve_p99_ms replay the calls as an open loop.
  virtual double nominal_rate() const = 0;
  /// Fixed modeled sojourn limit (ms) of the serve_qps_max ladder.
  virtual double latency_limit_ms() const = 0;
};

/// Runs the untraced measurement (--trace 0) or the traced per-layer pass
/// plus its untraced replay (--trace 1), and checks that both clocks'
/// outputs agree between traced and untraced calls.
Result run_closed_loop(ClosedLoop& w, const RunConfig& cfg);

}  // namespace perfbench
