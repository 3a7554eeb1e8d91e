// CLI wrapper over metrics_check_lib: validates the metrics artifacts
// bench_throughput --metrics emits (CI's metrics-smoke gate).
//
//   metrics_check <metrics.json> [--prev <snap.json>] [--prom <file>]
//                 [--devices N] [--serve] [--cluster N] [--algo]
//
// Always runs the schema/consistency check on <metrics.json>. --prev adds
// the counter-monotonicity check (prev must be an earlier snapshot from
// the same process), --prom cross-checks the Prometheus exposition,
// --devices N requires per-device signal-latency histograms for devices
// 0..N-1, --serve validates the serving-tier instruments (request
// accounting conservation, per-class latency histograms, batch-size
// coverage — the snapshot must come from a drained server), and
// --cluster N validates the cluster-tier instruments for an N-node run
// (cusfft_cluster_* coverage plus cross-node signal conservation), and
// --algo validates the algorithm-picker instruments from a crossover run
// (both backends calibrated, the per-algo signal split conserving its
// total, picks recorded, non-empty calibration table). Exit 0 when every
// requested check passes, 1 on a failed check, 2 on usage/IO errors.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "metrics_check_lib.hpp"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::cerr << "metrics_check: " << msg << "\n"
            << "usage: metrics_check <metrics.json> [--prev <snap.json>]\n"
               "                     [--prom <file>] [--devices N] "
               "[--serve] [--cluster N] [--algo]\n";
  std::exit(2);
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::cerr << "metrics_check: cannot read " << path << "\n";
    std::exit(2);
  }
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

bool report(const char* what, const cusfft::tools::MetricsCheckResult& r) {
  if (r.ok) {
    std::cout << "[metrics_check] " << what << ": OK\n";
    return true;
  }
  for (const auto& e : r.errors)
    std::cout << "[metrics_check] " << what << ": FAIL: " << e << "\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, prev_path, prom_path;
  std::size_t devices = 0;
  std::size_t cluster = 0;
  bool serve = false;
  bool algo = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage((key + ": missing value").c_str());
      return argv[++i];
    };
    if (key == "--prev") {
      prev_path = value();
    } else if (key == "--prom") {
      prom_path = value();
    } else if (key == "--devices") {
      char* end = nullptr;
      const char* v = value();
      devices = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0')
        usage("--devices: expected an integer");
    } else if (key == "--cluster") {
      char* end = nullptr;
      const char* v = value();
      cluster = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || cluster == 0)
        usage("--cluster: expected a positive integer");
    } else if (key == "--serve") {
      serve = true;
    } else if (key == "--algo") {
      algo = true;
    } else if (key.rfind("--", 0) == 0) {
      usage(("unknown flag '" + key + "'").c_str());
    } else if (json_path.empty()) {
      json_path = key;
    } else {
      usage("more than one metrics.json argument");
    }
  }
  if (json_path.empty()) usage("missing <metrics.json> argument");

  const std::string json_text = slurp(json_path);
  bool ok = true;
  const auto base = cusfft::tools::check_metrics_json(json_text);
  ok = report("schema+consistency", base) && ok;
  if (base.ok)
    std::cout << "[metrics_check] " << base.counters << " counters, "
              << base.gauges << " gauges, " << base.histograms
              << " histograms\n";

  if (!prev_path.empty())
    ok = report("monotonic vs --prev", cusfft::tools::check_metrics_monotonic(
                                           slurp(prev_path), json_text)) &&
         ok;
  if (!prom_path.empty())
    ok = report("prometheus cross-check",
                cusfft::tools::check_metrics_prometheus(
                    json_text, slurp(prom_path))) &&
         ok;
  if (devices > 0)
    ok = report("per-device histograms",
                cusfft::tools::check_device_histograms(json_text, devices)) &&
         ok;
  if (serve)
    ok = report("serve-tier coverage",
                cusfft::tools::check_serve_metrics(json_text)) &&
         ok;
  if (cluster > 0)
    ok = report("cluster-tier coverage",
                cusfft::tools::check_cluster_metrics(json_text, cluster)) &&
         ok;
  if (algo)
    ok = report("algo-picker coverage",
                cusfft::tools::check_algo_metrics(json_text)) &&
         ok;

  return ok ? 0 : 1;
}
