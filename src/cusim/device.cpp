#include "cusim/device.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "cusim/metrics.hpp"
#include "cusim/profiler.hpp"

namespace cusfft::cusim {

GraphMode graph_mode_from_env() {
  const char* env = std::getenv("CUSFFT_GRAPH");
  if (env == nullptr || env[0] == '\0' || std::strcmp(env, "1") == 0)
    return GraphMode::kOn;
  if (std::strcmp(env, "0") == 0) return GraphMode::kOff;
  if (std::strcmp(env, "verify") == 0) return GraphMode::kVerify;
  throw std::invalid_argument(
      "CUSFFT_GRAPH: expected '0', '1' or 'verify', got '" +
      std::string(env) + "'");
}

Device::Device(perfmodel::GpuSpec spec)
    : model_(spec), timeline_(spec.max_concurrent_kernels) {
  graph_mode_ = graph_mode_from_env();
  pool_at_capture_ = BufferPool::global().stats();
}

Device::~Device() { publish_metrics(); }

void Device::publish_metrics() {
  MetricsRegistry& reg = MetricsRegistry::global();
  // Graph-replay counters are kept in graph_.stats for cheap per-launch
  // updates; the registry sees the delta since the last push, so totals
  // across transient devices accumulate without per-launch lookups.
  const LaunchGraph::Stats& s = graph_.stats;
  if (s.records > graph_pushed_.records)
    reg.counter("cusfft_graph_records_total")
        .add(s.records - graph_pushed_.records);
  if (s.replays > graph_pushed_.replays)
    reg.counter("cusfft_graph_replays_total")
        .add(s.replays - graph_pushed_.replays);
  if (s.verified > graph_pushed_.verified)
    reg.counter("cusfft_graph_verified_total")
        .add(s.verified - graph_pushed_.verified);
  graph_pushed_ = s;

  // Launch-arena footprint: high-water marks across every device so far.
  LaunchArena::Stats a = accum_.arena().stats();
  a.chunks = std::max(a.chunks, lane_arena_.chunks);
  a.bytes_reserved = std::max(a.bytes_reserved, lane_arena_.bytes_reserved);
  const LaunchArena::Stats deps = timeline_.arena_stats();
  a.chunks += deps.chunks;
  a.bytes_reserved += deps.bytes_reserved;
  reg.gauge("cusfft_arena_chunks").set_max(static_cast<double>(a.chunks));
  reg.gauge("cusfft_arena_reserved_bytes")
      .set_max(static_cast<double>(a.bytes_reserved));
}

std::size_t DeviceLog::event_id(std::size_t id) const {
  if (id & kLaneEvent) return events_.at(id & ~kLaneEvent);
  if (id & kImportedEvent) return imports_.at(id & ~kImportedEvent);
  return id;
}

Device::LaneScope::LaneScope(Device& dev, Lane& lane, DeviceLog& log)
    : binding_{&dev, &lane, &log, dev.graph_salt_},
      prev_(this_thread_binding()),
      pool_(BufferPool::lanes()) {
  log.clear();
  // Records the lane traced are valid while the device keeps its own.
  if (lane.device_ != &dev || lane.epoch_ != dev.graph_epoch_) {
    lane.traced_.clear();
    lane.device_ = &dev;
    lane.epoch_ = dev.graph_epoch_;
  }
  this_thread_binding() = &binding_;
}

Device::LaneScope::~LaneScope() {
  binding_.log->arena_ = binding_.lane->accum_.arena().stats();
  this_thread_binding() = prev_;
}

const LaunchRecord* Device::find_record(const DeviceLog::Entry& e,
                                        Binding* b) {
  const LaunchGraph::Key key = key_of(e);
  if (const auto it = graph_.records.find(key); it != graph_.records.end())
    return &it->second;
  if (b != nullptr)
    if (const auto it = b->lane->traced_.find(key);
        it != b->lane->traced_.end())
      return &it->second;
  return nullptr;
}

std::size_t Device::mark(std::string* name, bool scoped, StreamId s) {
  if (DeviceLog::Entry* e = logged(
          name != nullptr ? DeviceLog::Op::kPhase : DeviceLog::Op::kEvent, s)) {
    e->scoped = scoped;
    if (name != nullptr) e->phase = std::move(*name);
    return DeviceLog::kLaneEvent | bound()->log->lane_events_++;
  }
  const std::size_t ev =
      scoped ? timeline_.record_event(s) : timeline_.record_event();
  if (name != nullptr) {
    PhaseAnnotation a;
    a.name = std::move(*name);
    a.event_id = ev;
    a.stream = s;
    a.scoped = scoped;
    phases_.push_back(std::move(a));
  }
  return ev;
}

void Device::apply(DeviceLog& log, std::span<const std::size_t> imports) {
  log.events_.clear();
  log.imports_.assign(imports.begin(), imports.end());
  lane_arena_.chunks = std::max(lane_arena_.chunks, log.arena_.chunks);
  lane_arena_.bytes_reserved =
      std::max(lane_arena_.bytes_reserved, log.arena_.bytes_reserved);
  using Op = DeviceLog::Op;
  for (DeviceLog::Entry& e : log.entries_) {
    switch (e.op) {
      case Op::kKernel:
        apply_kernel(e);
        break;
      case Op::kCopy:
        submit_copy(e.name, e.amount, e.stream);
        break;
      case Op::kBarrier:
        timeline_.barrier();
        break;
      case Op::kEvent:
      case Op::kPhase:
        log.events_.push_back(mark(e.op == Op::kPhase ? &e.phase : nullptr,
                                   e.scoped, e.stream));
        break;
      case Op::kWait:
        timeline_.wait_event(e.stream, log.event_id(e.event));
        break;
      case Op::kClosePhase:
        close_phase(e.stream, log.event_id(e.event));
        break;
      case Op::kDomain:
        graph_salt_ = e.salt;
        break;
    }
  }
}

void Device::begin_capture() {
  publish_metrics();
  timeline_.clear();
  report_.clear();
  phases_.clear();
  pool_at_capture_ = BufferPool::global().stats();
}

CaptureProfile Device::end_capture() {
  publish_metrics();
  return collect_profile(*this);
}

double Device::elapsed_model_ms() { return timeline_.simulate() * 1e3; }

void Device::apply_kernel(const DeviceLog::Entry& e) {
  if (e.graph == DeviceLog::Graph::kNone) {
    submit_kernel_item(e, e.rec);
    return;
  }
  const auto [it, first] = graph_.records.try_emplace(key_of(e), e.rec);
  if (first) {
    ++graph_.stats.records;
  } else if (e.graph == DeviceLog::Graph::kTraced) {
    // A traced launch that finds a record: verify mode's cross-check, or a
    // lane that traced before an earlier signal's record was applied.
    const LaunchRecord& rec = it->second;
    const WarpTotals& t = e.rec.totals;
    const bool ok = t.coalesced_tx == rec.totals.coalesced_tx &&
                    t.random_tx == rec.totals.random_tx &&
                    t.useful_bytes == rec.totals.useful_bytes &&
                    t.atomic_ops == rec.totals.atomic_ops &&
                    t.shared_accesses == rec.totals.shared_accesses &&
                    e.rec.max_atomic_conflict == rec.max_atomic_conflict;
    if (!ok)
      throw std::runtime_error(
          std::string("cusim graph verify: counters diverged from captured "
                      "record for kernel '") +
          e.name +
          "' — the launch was marked cacheable but its access pattern is "
          "not determined by (name, graph_key, shape)");
    if (graph_mode_ == GraphMode::kVerify) {
      ++graph_.stats.verified;
    } else {
      ++graph_.stats.replays;
    }
  } else {
    ++graph_.stats.replays;
  }
  submit_kernel_item(e, graph_mode_ == GraphMode::kVerify ? e.rec
                                                          : it->second);
}

void Device::submit_kernel_item(const DeviceLog::Entry& e,
                                const LaunchRecord& r) {
  const WarpTotals& t = r.totals;
  perfmodel::KernelCounters c;
  c.name = e.name;
  c.blocks = static_cast<double>(e.blocks);
  c.threads = static_cast<double>(e.blocks) * e.threads_per_block;
  c.warps = c.blocks * std::ceil(static_cast<double>(e.threads_per_block) /
                                 spec().warp_size);
  c.coalesced_transactions = t.coalesced_tx;
  c.random_transactions = t.random_tx;
  c.bytes_useful = t.useful_bytes;
  c.flops = e.amount;
  c.atomic_ops = t.atomic_ops;
  c.max_atomic_conflict = r.max_atomic_conflict;
  c.shared_accesses = t.shared_accesses;

  const perfmodel::KernelCost cost = model_.kernel_cost(c);
  TimelineItem item;
  item.name = e.name;
  item.stream = e.stream;
  item.resource = Resource::kDeviceMemory;
  item.mem_s = cost.mem_s;
  item.compute_s = cost.compute_s + cost.atomic_s + cost.overhead_s;
  item.mem_bytes = cost.mem_bytes;
  item.useful_bytes = c.bytes_useful;
  item.transactions = c.coalesced_transactions + c.random_transactions;
  item.atomic_conflict = c.max_atomic_conflict;
  timeline_.submit(std::move(item));

  KernelReport& rep = report_[e.name];
  ++rep.launches;
  rep.counters.name = e.name;
  rep.counters.blocks += c.blocks;
  rep.counters.threads += c.threads;
  rep.counters.warps += c.warps;
  rep.counters.coalesced_transactions += c.coalesced_transactions;
  rep.counters.random_transactions += c.random_transactions;
  rep.counters.bytes_useful += c.bytes_useful;
  rep.counters.flops += c.flops;
  rep.counters.atomic_ops += c.atomic_ops;
  rep.counters.max_atomic_conflict =
      std::max(rep.counters.max_atomic_conflict, c.max_atomic_conflict);
  rep.counters.shared_accesses += c.shared_accesses;
  rep.solo_s += cost.total_s;
}

void Device::submit_copy(const char* name, double bytes, StreamId s) {
  TimelineItem item;
  item.name = name;
  item.stream = s;
  item.resource = Resource::kPcie;
  // Latency is part of the wire time: duration = latency + bytes/bw.
  item.mem_s = spec().pcie_latency_s + bytes / spec().pcie_bandwidth_Bps;
  item.compute_s = 0.0;
  item.mem_bytes = bytes;
  item.useful_bytes = bytes;
  timeline_.submit(std::move(item));

  KernelReport& r = report_[name];
  ++r.launches;
  r.counters.bytes_useful += bytes;
  r.solo_s += item.mem_s;
}

}  // namespace cusfft::cusim
