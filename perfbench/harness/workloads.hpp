// The benchmark's three workloads. Each generates its inputs from
// cfg.seed, measures for about cfg.seconds, and returns either the
// end-to-end metrics (cfg.trace false) or the per-layer metrics of a
// traced pass (cfg.trace true).
#pragma once

#include "common.hpp"

namespace perfbench {

Result run_steady_batch(const RunConfig& cfg);
Result run_cold_mixed(const RunConfig& cfg);
Result run_serve_cluster(const RunConfig& cfg);

}  // namespace perfbench
