// perfbench: the repository's end-to-end benchmark. Usage:
//
//   perfbench --workload steady_batch|cold_mixed|serve_cluster
//             --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Prints human-readable lines, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics of a traced pass with --trace 1
// (whose spans go to --spans PATH when given). Refuses to run when any
// CUSFFT_* or CUSIM_* variable is set: each would silently change the
// program being measured.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

extern char** environ;

namespace {

using perfbench::Result;
using perfbench::RunConfig;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "steady_batch|cold_mixed|serve_cluster --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n",
               why.c_str());
  std::exit(2);
}

double parse_number(const char* flag, const char* v) {
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || !std::isfinite(x) || x < 0)
    usage(std::string(flag) + ": expected a non-negative number, got '" + v +
          "'");
  return x;
}

cusfft::u64 parse_seed(const char* v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || errno != 0 || v[0] == '-')
    usage(std::string("--seed: expected a non-negative integer, got '") + v +
          "'");
  return x;
}

void print_json(const Result& r, bool trace) {
  const auto& metrics = trace ? r.layer.metrics() : r.e2e.metrics();
  bool finite = true;
  std::string body;
  char buf[64];
  for (const auto& [name, m] : metrics) {
    finite = finite && std::isfinite(m.value);
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    body += (body.empty() ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              r.correct && finite ? "true" : "false", r.attempted, r.failed,
              body.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CUSFFT_", 7) == 0 ||
        std::strncmp(*e, "CUSIM_", 6) == 0) {
      const std::string var(*e, std::strcspn(*e, "="));
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: it changes the "
                   "program being measured. Unset it and rerun.\n",
                   var.c_str());
      return 2;
    }
  }

  RunConfig cfg;
  std::string spans_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + ": missing value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = parse_seed(v);
    } else if (flag == "--seconds") {
      cfg.seconds = parse_number("--seconds", v);
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace: expected 0 or 1");
      cfg.trace = v[0] == '1';
    } else if (flag == "--spans") {
      spans_path = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  cfg.spans_path = spans_path;

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%u build=%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0,
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);
  try {
    Result r;
    if (cfg.workload == "steady_batch")
      r = perfbench::run_steady_batch(cfg);
    else if (cfg.workload == "cold_mixed")
      r = perfbench::run_cold_mixed(cfg);
    else if (cfg.workload == "serve_cluster")
      r = perfbench::run_serve_cluster(cfg);
    else
      usage("unknown workload '" + cfg.workload + "'");
    for (const std::string& line : r.notes) std::printf("# %s\n", line.c_str());
    for (const auto& [name, m] :
         (cfg.trace ? r.layer : r.e2e).metrics())
      std::printf("# %-34s %18.6f %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    print_json(r, cfg.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
