#include "capi/cusfft.h"
#include "capi/status.hpp"

#include <functional>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include <cstdio>
#include <cstring>

#include "core/spectrum.hpp"
#include "core/thread_pool.hpp"
#include "core/types.hpp"
#include "cusfft/autopick.hpp"
#include "cusfft/cluster_plan.hpp"
#include "cusfft/server.hpp"
#include "cusim/cluster.hpp"
#include "cusim/metrics.hpp"
#include "cusim/profiler.hpp"
#include "psfft/psfft.hpp"
#include "sfft/ffast.hpp"
#include "sfft/serial.hpp"

cusfft_status cusfft::capi::current_exception_status() {
  try {
    throw;
  } catch (const std::invalid_argument&) {
    return CUSFFT_INVALID_ARGUMENT;
  } catch (const std::bad_alloc&) {
    return CUSFFT_ALLOC_FAILED;
  } catch (const cusfft::cusim::OutOfDeviceMemory&) {
    return CUSFFT_ALLOC_FAILED;
  } catch (...) {
    return CUSFFT_INTERNAL_ERROR;
  }
}

namespace {

using cusfft::cplx;
using cusfft::SparseSpectrum;
using cusfft::capi::current_exception_status;

/// Integer value of a C enum argument, read without an enum-typed load: a
/// C caller may pass any int, and loading an out-of-range value through the
/// C++ enum type is undefined behavior. Range-check this, then convert.
template <class E>
long long c_enum(const E& e) {
  std::underlying_type_t<E> v;
  std::memcpy(&v, &e, sizeof v);
  return static_cast<long long>(v);
}

/// The cusfft_execute output protocol: writes the `cap` largest
/// coefficients of `s` (all of them when they fit) as locations plus
/// interleaved (re, im) values and returns how many were written.
size_t write_spectrum(SparseSpectrum s, size_t cap, uint64_t* locations,
                      double* values) {
  if (s.size() > cap) s = cusfft::trim_top_k(std::move(s), cap);
  for (size_t i = 0; i < s.size(); ++i) {
    locations[i] = s[i].loc;
    values[2 * i] = s[i].val.real();
    values[2 * i + 1] = s[i].val.imag();
  }
  return s.size();
}

using HostRun = std::function<SparseSpectrum(std::span<const cplx>)>;

template <class Plan>
HostRun host_run(std::shared_ptr<Plan> plan) {
  return [plan](std::span<const cplx> x) { return plan->execute(x); };
}

}  // namespace

/// Owns whichever backend the plan was created for. A CPU backend is one
/// host plan behind `cpu` (PsFFT shares the process-wide thread pool). A
/// GPU backend is one gpu::ClusterPlan on its own simulated
/// node_count x device_count cluster — 1 x 1 unless
/// cusfft_set_node_count / cusfft_set_device_count say otherwise — so
/// every GPU call runs the same executor whatever the topology.
struct cusfft_plan_t {
  cusfft::sfft::Params params;
  cusfft_backend backend = CUSFFT_BACKEND_SERIAL;
  int batch_pipeline = 1;  // cusfft_set_batch_pipeline; GPU batches only
  size_t device_count = 1;  // cusfft_set_device_count; per node
  size_t node_count = 1;    // cusfft_set_node_count
  cusfft::cusim::PcieStaging staging;  // cusfft_set_pcie_staging
  cusfft::gpu::ShardPolicy shard_policy =
      cusfft::gpu::ShardPolicy::kCostLpt;  // cusfft_set_shard_policy

  HostRun cpu;
  std::unique_ptr<cusfft::cusim::Cluster> cluster;
  std::unique_ptr<cusfft::gpu::ClusterPlan> gpu;

  /// Merged capture profile and stats of the most recent GPU run (null
  /// until then, and for CPU backends).
  std::unique_ptr<cusfft::cusim::CaptureProfile> profile;
  std::unique_ptr<cusfft::gpu::GpuFleetStats> fleet;

  std::vector<SparseSpectrum> run(std::span<const std::span<const cplx>> xs) {
    std::vector<SparseSpectrum> out;
    if (cpu) {
      out.reserve(xs.size());
      for (const auto& x : xs) out.push_back(cpu(x));
      return out;
    }
    if (!gpu)
      throw std::invalid_argument(
          "cusfft: the plan's last reconfiguration failed; it has no backend");
    auto st = std::make_unique<cusfft::gpu::GpuFleetStats>();
    out = gpu->execute_many(xs, st.get(),
                            batch_pipeline != 0
                                ? cusfft::gpu::BatchMode::kAuto
                                : cusfft::gpu::BatchMode::kSerialized);
    fleet = std::move(st);
    profile = std::make_unique<cusfft::cusim::CaptureProfile>(
        cluster->end_capture());
    return out;
  }

  cusfft_status rebuild() {
    try {
      cpu = nullptr;
      gpu.reset();
      cluster.reset();
      profile.reset();
      fleet.reset();
      // CUSFFT_ALGO is parsed here on every rebuild (never latched), so a
      // malformed value fails the configuring call instead of the first
      // execute.
      auto algo = params.algo;
      if (const auto ov = cusfft::gpu::algo_override_from_env()) algo = *ov;
      switch (backend) {
        case CUSFFT_BACKEND_SERIAL:
        case CUSFFT_BACKEND_PSFFT:
          // kAuto has no device spec to price against and falls back to
          // the default bucket hashing; FFAST runs the reference CPU
          // implementation on either backend.
          if (algo == cusfft::sfft::Algorithm::kFfast) {
            auto p = params;
            p.algo = cusfft::sfft::Algorithm::kFfast;
            cpu = host_run(std::make_shared<cusfft::sfft::FfastPlan>(p));
          } else if (backend == CUSFFT_BACKEND_SERIAL) {
            cpu = host_run(std::make_shared<cusfft::sfft::SerialPlan>(params));
          } else {
            cpu = host_run(std::make_shared<cusfft::psfft::PsfftPlan>(
                params, cusfft::ThreadPool::global()));
          }
          break;
        case CUSFFT_BACKEND_GPU_BASELINE:
        case CUSFFT_BACKEND_GPU_OPTIMIZED: {
          // prepare() builds the plans of the backend params resolve to
          // (CUSFFT_ALGO, then the kAuto picker); every execute still
          // resolves each signal, so the environment is never latched.
          const auto opts = backend == CUSFFT_BACKEND_GPU_OPTIMIZED
                                ? cusfft::gpu::Options::optimized()
                                : cusfft::gpu::Options::baseline();
          cluster = std::make_unique<cusfft::cusim::Cluster>(node_count,
                                                             device_count);
          cluster->set_staging(staging);
          gpu = std::make_unique<cusfft::gpu::ClusterPlan>(*cluster, params,
                                                           opts);
          gpu->set_shard_policy(shard_policy);
          gpu->prepare();  // a backend that cannot fit fails the plan call
          break;
        }
      }
    } catch (...) {
      // No half-built backend survives: later executes are refused.
      cpu = nullptr;
      gpu.reset();
      cluster.reset();
      return current_exception_status();
    }
    return CUSFFT_SUCCESS;
  }
};

extern "C" {

cusfft_status cusfft_plan(cusfft_handle* out, size_t n, size_t k,
                          cusfft_backend backend) {
  if (out == nullptr) return CUSFFT_INVALID_ARGUMENT;
  *out = nullptr;
  const long long be = c_enum(backend);
  if (be < CUSFFT_BACKEND_SERIAL || be > CUSFFT_BACKEND_GPU_OPTIMIZED)
    return CUSFFT_INVALID_ARGUMENT;
  try {
    auto plan = std::make_unique<cusfft_plan_t>();
    plan->params.n = n;
    plan->params.k = k;
    plan->backend = static_cast<cusfft_backend>(be);
    const cusfft_status st = plan->rebuild();
    if (st != CUSFFT_SUCCESS) return st;
    *out = plan.release();
  } catch (...) {
    return current_exception_status();
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_set_seed(cusfft_handle h, uint64_t seed) {
  if (h == nullptr) return CUSFFT_INVALID_ARGUMENT;
  h->params.seed = seed;
  return h->rebuild();
}

cusfft_status cusfft_set_algorithm(cusfft_handle h, cusfft_algorithm algo) {
  if (h == nullptr) return CUSFFT_INVALID_ARGUMENT;
  switch (c_enum(algo)) {
    case CUSFFT_ALGO_CUSFFT:
      h->params.algo = cusfft::sfft::Algorithm::kCusfft;
      break;
    case CUSFFT_ALGO_FFAST:
      h->params.algo = cusfft::sfft::Algorithm::kFfast;
      break;
    case CUSFFT_ALGO_AUTO:
      h->params.algo = cusfft::sfft::Algorithm::kAuto;
      break;
    default:
      return CUSFFT_INVALID_ARGUMENT;
  }
  return h->rebuild();
}

cusfft_status cusfft_set_batch_pipeline(cusfft_handle h, int enable) {
  if (h == nullptr) return CUSFFT_INVALID_ARGUMENT;
  h->batch_pipeline = enable;
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_execute(cusfft_handle h, const double* input,
                             uint64_t* locations, double* values,
                             size_t* count) {
  if (h == nullptr || input == nullptr || locations == nullptr ||
      values == nullptr || count == nullptr)
    return CUSFFT_INVALID_ARGUMENT;
  try {
    const std::span<const cplx> one[] = {
        {reinterpret_cast<const cplx*>(input), h->params.n}};
    *count = write_spectrum(std::move(h->run(one)[0]), *count, locations,
                            values);
  } catch (...) {
    return current_exception_status();
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_execute_many(cusfft_handle h, const double* inputs,
                                  size_t batch, size_t capacity,
                                  uint64_t* locations, double* values,
                                  size_t* counts) {
  if (h == nullptr || inputs == nullptr || locations == nullptr ||
      values == nullptr || counts == nullptr)
    return CUSFFT_INVALID_ARGUMENT;
  try {
    const size_t n = h->params.n;
    std::vector<std::span<const cplx>> xs(batch);
    for (size_t i = 0; i < batch; ++i)
      xs[i] = {reinterpret_cast<const cplx*>(inputs) + i * n, n};
    std::vector<SparseSpectrum> results = h->run(xs);
    for (size_t i = 0; i < batch; ++i)
      counts[i] = write_spectrum(std::move(results[i]), capacity,
                                 locations + i * capacity,
                                 values + 2 * i * capacity);
  } catch (...) {
    return current_exception_status();
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_get_size(cusfft_handle h, size_t* n, size_t* k) {
  if (h == nullptr || n == nullptr || k == nullptr)
    return CUSFFT_INVALID_ARGUMENT;
  *n = h->params.n;
  *k = h->params.k;
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_set_device_count(cusfft_handle h, size_t devices) {
  if (h == nullptr || devices == 0) return CUSFFT_INVALID_ARGUMENT;
  h->device_count = devices;
  return h->rebuild();
}

cusfft_status cusfft_set_node_count(cusfft_handle h, size_t nodes) {
  if (h == nullptr || nodes == 0) return CUSFFT_INVALID_ARGUMENT;
  h->node_count = nodes;
  return h->rebuild();
}

cusfft_status cusfft_get_cluster_stats(cusfft_handle h,
                                       cusfft_cluster_stats* out) {
  if (h == nullptr || out == nullptr) return CUSFFT_INVALID_ARGUMENT;
  if (h->fleet == nullptr) return CUSFFT_INVALID_ARGUMENT;
  out->model_ms = h->fleet->model_ms;
  out->imbalance = h->fleet->imbalance;
  out->nic_stall_ms = h->fleet->nic_stall_ms;
  out->nic_queue_ms = h->fleet->nic_queue_ms;
  out->nic_bytes = h->fleet->nic_bytes;
  out->nic_transfers = h->fleet->nic_transfers;
  out->nodes = h->fleet->nodes;
  out->devices = h->fleet->devices;
  out->signals = h->fleet->signals;
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_set_pcie_staging(cusfft_handle h,
                                      cusfft_pcie_staging policy,
                                      size_t max_inflight) {
  if (h == nullptr) return CUSFFT_INVALID_ARGUMENT;
  cusfft::cusim::PcieStaging s;
  switch (c_enum(policy)) {
    case CUSFFT_STAGING_UNLIMITED:
      s = cusfft::cusim::PcieStaging::Unlimited();
      break;
    case CUSFFT_STAGING_ROUND_ROBIN:
      s = cusfft::cusim::PcieStaging::RoundRobin();
      break;
    case CUSFFT_STAGING_MAX_INFLIGHT:
      if (max_inflight == 0) return CUSFFT_INVALID_ARGUMENT;
      s = cusfft::cusim::PcieStaging::MaxInflight(
          static_cast<unsigned>(max_inflight));
      break;
    default:
      return CUSFFT_INVALID_ARGUMENT;
  }
  h->staging = s;
  if (h->cluster != nullptr) h->cluster->set_staging(s);
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_set_shard_policy(cusfft_handle h,
                                      cusfft_shard_policy policy) {
  if (h == nullptr) return CUSFFT_INVALID_ARGUMENT;
  switch (c_enum(policy)) {
    case CUSFFT_SHARD_COST_LPT:
      h->shard_policy = cusfft::gpu::ShardPolicy::kCostLpt;
      break;
    case CUSFFT_SHARD_UNIT_GREEDY:
      h->shard_policy = cusfft::gpu::ShardPolicy::kUnitGreedy;
      break;
    default:
      return CUSFFT_INVALID_ARGUMENT;
  }
  if (h->gpu != nullptr) h->gpu->set_shard_policy(h->shard_policy);
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_get_fleet_stats(cusfft_handle h,
                                     cusfft_fleet_stats* out) {
  if (h == nullptr || out == nullptr) return CUSFFT_INVALID_ARGUMENT;
  if (h->fleet == nullptr) return CUSFFT_INVALID_ARGUMENT;
  out->model_ms = h->fleet->model_ms;
  out->imbalance = h->fleet->imbalance;
  out->pcie_stall_ms = h->fleet->pcie_stall_ms;
  out->devices = h->fleet->devices;
  out->signals = h->fleet->signals;
  out->pcie_queue_ms = h->fleet->pcie_queue_ms;
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_get_device_utilization(cusfft_handle h, size_t device,
                                            double* utilization) {
  if (h == nullptr || utilization == nullptr)
    return CUSFFT_INVALID_ARGUMENT;
  if (h->fleet == nullptr || device >= h->fleet->per_device.size())
    return CUSFFT_INVALID_ARGUMENT;
  *utilization = h->fleet->per_device[device].utilization;
  return CUSFFT_SUCCESS;
}

}  // extern "C"

namespace {

/// Shared buf/cap/len protocol of the document calls: `*len` always
/// receives the size incl. NUL; buf == NULL is a size query.
cusfft_status copy_out(const std::string& doc, char* buf, size_t cap,
                       size_t* len) {
  *len = doc.size() + 1;  // incl. NUL
  if (buf == nullptr) return CUSFFT_SUCCESS;  // size query
  if (cap < *len) return CUSFFT_INVALID_ARGUMENT;
  std::memcpy(buf, doc.c_str(), *len);
  return CUSFFT_SUCCESS;
}

}  // namespace

extern "C" {

cusfft_status cusfft_profile_json(cusfft_handle h, char* buf, size_t cap,
                                  size_t* len) {
  if (h == nullptr || len == nullptr) return CUSFFT_INVALID_ARGUMENT;
  if (h->profile == nullptr) return CUSFFT_INVALID_ARGUMENT;
  try {
    return copy_out(h->profile->chrome_trace_json(), buf, cap, len);
  } catch (...) {
    return current_exception_status();
  }
}

cusfft_status cusfft_profile_write(cusfft_handle h, const char* path) {
  if (h == nullptr || path == nullptr) return CUSFFT_INVALID_ARGUMENT;
  if (h->profile == nullptr) return CUSFFT_INVALID_ARGUMENT;
  try {
    if (!h->profile->write(path)) return CUSFFT_INTERNAL_ERROR;
  } catch (...) {
    return current_exception_status();
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_metrics_json(char* buf, size_t cap, size_t* len) {
  if (len == nullptr) return CUSFFT_INVALID_ARGUMENT;
  try {
    return copy_out(cusfft::cusim::MetricsRegistry::global().expose_json(),
                    buf, cap, len);
  } catch (...) {
    return current_exception_status();
  }
}

cusfft_status cusfft_metrics_text(char* buf, size_t cap, size_t* len) {
  if (len == nullptr) return CUSFFT_INVALID_ARGUMENT;
  try {
    return copy_out(cusfft::cusim::MetricsRegistry::global().expose_text(),
                    buf, cap, len);
  } catch (...) {
    return current_exception_status();
  }
}

cusfft_status cusfft_metrics_write(const char* path,
                                   cusfft_metrics_format format) {
  if (path == nullptr) return CUSFFT_INVALID_ARGUMENT;
  const long long fmt = c_enum(format);
  if (fmt != CUSFFT_METRICS_JSON && fmt != CUSFFT_METRICS_PROMETHEUS)
    return CUSFFT_INVALID_ARGUMENT;
  try {
    auto& reg = cusfft::cusim::MetricsRegistry::global();
    const std::string doc = fmt == CUSFFT_METRICS_JSON ? reg.expose_json()
                                                       : reg.expose_text();
    std::FILE* f = std::fopen(path, "wb");
    if (f == nullptr) return CUSFFT_INTERNAL_ERROR;
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    const bool closed = std::fclose(f) == 0;
    return ok && closed ? CUSFFT_SUCCESS : CUSFFT_INTERNAL_ERROR;
  } catch (...) {
    return current_exception_status();
  }
}

cusfft_status cusfft_metrics_reset(void) {
  try {
    cusfft::cusim::MetricsRegistry::global().reset();
  } catch (...) {
    return current_exception_status();
  }
  return CUSFFT_SUCCESS;
}

}  // extern "C"

/// Owns the serving tier behind the cusfft_server handle (the Server is
/// neither copyable nor movable, so the handle constructs it in place).
struct cusfft_server_t {
  cusfft::serve::Server impl;
  explicit cusfft_server_t(const cusfft::serve::ServerConfig& c) : impl(c) {}
};

extern "C" {

cusfft_status cusfft_server_config_default(cusfft_server_config* out) {
  if (out == nullptr) return CUSFFT_INVALID_ARGUMENT;
  try {
    const cusfft::serve::ServerConfig cfg =
        cusfft::serve::ServerConfig::from_env();
    out->devices = cfg.devices;
    out->max_batch = cfg.max_batch;
    out->tenant_queue_depth = cfg.tenant_queue_depth;
    out->max_wait_latency_ms = cfg.max_wait_latency_ms;
    out->max_wait_throughput_ms = cfg.max_wait_throughput_ms;
  } catch (...) {
    return current_exception_status();
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_server_create(cusfft_server* out,
                                   const cusfft_server_config* cfg) {
  if (out == nullptr) return CUSFFT_INVALID_ARGUMENT;
  *out = nullptr;
  try {
    cusfft::serve::ServerConfig c;
    if (cfg != nullptr) {
      c.devices = cfg->devices;
      c.max_batch = cfg->max_batch;
      c.tenant_queue_depth = cfg->tenant_queue_depth;
      c.max_wait_latency_ms = cfg->max_wait_latency_ms;
      c.max_wait_throughput_ms = cfg->max_wait_throughput_ms;
    } else {
      c = cusfft::serve::ServerConfig::from_env();
    }
    *out = new cusfft_server_t(c);
  } catch (...) {
    return current_exception_status();
  }
  return CUSFFT_SUCCESS;
}

namespace {

cusfft::serve::Server* unwrap(cusfft_server s) { return &s->impl; }

}  // namespace

cusfft_status cusfft_server_submit(cusfft_server s, const char* tenant,
                                   double arrival_ms, size_t n, size_t k,
                                   cusfft_slo_class slo, double deadline_ms,
                                   const double* input,
                                   uint64_t* request_id) {
  if (s == nullptr || tenant == nullptr || input == nullptr ||
      request_id == nullptr)
    return CUSFFT_INVALID_ARGUMENT;
  const long long cls = c_enum(slo);
  if (cls != CUSFFT_SLO_LATENCY && cls != CUSFFT_SLO_THROUGHPUT)
    return CUSFFT_INVALID_ARGUMENT;
  try {
    cusfft::serve::Request r;
    r.tenant = tenant;
    r.params.n = n;
    r.params.k = k;
    const auto* x = reinterpret_cast<const cplx*>(input);
    r.x.assign(x, x + n);
    r.slo = cls == CUSFFT_SLO_LATENCY
                ? cusfft::serve::SloClass::kLatency
                : cusfft::serve::SloClass::kThroughput;
    if (deadline_ms > 0) r.deadline_ms = deadline_ms;
    *request_id = unwrap(s)->submit_at(arrival_ms, std::move(r));
  } catch (...) {
    return current_exception_status();
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_server_advance(cusfft_server s, double t_ms) {
  if (s == nullptr) return CUSFFT_INVALID_ARGUMENT;
  try {
    unwrap(s)->advance(t_ms);
  } catch (...) {
    return current_exception_status();
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_server_drain(cusfft_server s) {
  if (s == nullptr) return CUSFFT_INVALID_ARGUMENT;
  try {
    unwrap(s)->drain();
  } catch (...) {
    return current_exception_status();
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_server_outcome(cusfft_server s, uint64_t request_id,
                                    cusfft_request_outcome* out) {
  if (s == nullptr || out == nullptr) return CUSFFT_INVALID_ARGUMENT;
  try {
    switch (unwrap(s)->response(request_id).outcome) {
      case cusfft::serve::Outcome::kPending:
        *out = CUSFFT_REQUEST_PENDING;
        break;
      case cusfft::serve::Outcome::kCompleted:
        *out = CUSFFT_REQUEST_COMPLETED;
        break;
      case cusfft::serve::Outcome::kShed:
        *out = CUSFFT_REQUEST_SHED;
        break;
      case cusfft::serve::Outcome::kRejected:
        *out = CUSFFT_REQUEST_REJECTED;
        break;
    }
  } catch (...) {
    return current_exception_status();
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_server_result(cusfft_server s, uint64_t request_id,
                                   uint64_t* locations, double* values,
                                   size_t* count, double* latency_ms) {
  if (s == nullptr || locations == nullptr || values == nullptr ||
      count == nullptr)
    return CUSFFT_INVALID_ARGUMENT;
  try {
    cusfft::serve::Response r = unwrap(s)->response(request_id);
    if (r.outcome != cusfft::serve::Outcome::kCompleted)
      return CUSFFT_INVALID_ARGUMENT;
    *count = write_spectrum(std::move(r.spectrum), *count, locations, values);
    if (latency_ms != nullptr) *latency_ms = r.latency_ms;
  } catch (...) {
    return current_exception_status();
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_server_stats(cusfft_server s, cusfft_serve_stats* out) {
  if (s == nullptr || out == nullptr) return CUSFFT_INVALID_ARGUMENT;
  try {
    const cusfft::serve::GpuServeStats st = unwrap(s)->stats();
    out->submitted = st.submitted;
    out->completed = st.completed;
    out->shed = st.shed;
    out->rejected = st.rejected;
    out->batches = st.batches;
    out->max_queue_depth = st.max_queue_depth;
    out->virtual_ms = st.virtual_ms;
    out->sustained_qps = st.sustained_qps;
    out->latency_p50_ms = st.latency.p50_ms;
    out->latency_p99_ms = st.latency.p99_ms;
    out->throughput_p50_ms = st.throughput.p50_ms;
    out->throughput_p99_ms = st.throughput.p99_ms;
  } catch (...) {
    return current_exception_status();
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_server_destroy(cusfft_server s) {
  delete s;
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_destroy(cusfft_handle h) {
  delete h;
  return CUSFFT_SUCCESS;
}

const char* cusfft_status_string(cusfft_status s) {
  switch (c_enum(s)) {
    case CUSFFT_SUCCESS:
      return "success";
    case CUSFFT_INVALID_ARGUMENT:
      return "invalid argument";
    case CUSFFT_ALLOC_FAILED:
      return "allocation failed";
    case CUSFFT_INTERNAL_ERROR:
      return "internal error";
  }
  return "unknown status";
}

}  // extern "C"
