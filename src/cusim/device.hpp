// The simulated GPU. Kernels launch with a grid/block shape and execute
// functionally (every thread really runs, on real data) while sampled warps
// feed the transaction-level performance model. Results: bit-exact outputs
// plus modeled durations on the configured GpuSpec (default: the paper's
// Tesla K20x, Table I).
//
// Host execution model: a launch sweeps its grid on the calling thread,
// block after block, thread after thread. Host parallelism sits one level
// up, on the signals of a batch: a plan runs each signal's whole kernel
// sequence on a *lane* — a worker of the device's pool (pool()) that owns
// the signal's buffers and a Lane (warp tracer, accumulator). While a
// thread holds a LaneScope, every call it makes on the device goes into
// that signal's DeviceLog instead of the device; once the lanes finish, the
// owning thread apply()s the logs in signal order. Timeline items, event
// ids, phase annotations, report() and the captured-graph accounting are
// therefore the serial program's whatever the lane count: launch records
// are read-only while lanes run, and a launch a lane traced only because
// an earlier signal had not recorded it yet counts, when applied, as the
// replay the serial program made (its counters checked equal to the
// record).
#pragma once

#include <algorithm>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/thread_pool.hpp"
#include "core/types.hpp"
#include "cusim/buffer.hpp"
#include "cusim/thread_ctx.hpp"
#include "cusim/timeline.hpp"
#include "perfmodel/gpu_model.hpp"

namespace cusfft::cusim {

struct CaptureProfile;  // profiler.hpp

/// A plan's modeled working set exceeds the GpuSpec's global memory (where
/// cudaMalloc would fail). Kept apart from the other runtime errors
/// (deadlocked timelines, graph-verify divergence) so front ends can report
/// it as an allocation failure.
struct OutOfDeviceMemory : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A named phase boundary inside a capture (cudaEvent + label). A
/// device-wide annotation's phase spans from its event time to the next
/// device-wide annotation's (or the makespan). A stream-scoped annotation
/// (pipelined batches) spans to the next annotation on the same stream, or
/// to its explicit end event when one was set via Device::close_phase.
struct PhaseAnnotation {
  std::string name;
  std::size_t event_id = 0;
  StreamId stream = 0;
  bool scoped = false;
  std::ptrdiff_t end_event = -1;  // explicit close; -1 = next in scope
};

/// Kernel launch shape, CUDA-style <<<blocks, threads, stream>>>.
struct LaunchCfg {
  const char* name = "kernel";
  std::size_t blocks = 1;
  std::size_t threads_per_block = 256;
  StreamId stream = 0;

  /// Opt-in captured-graph replay. The first launch of a given
  /// (graph domain, name, graph_key, blocks, threads_per_block) tuple runs
  /// fully traced and its extrapolated memory counters are recorded; later
  /// identical launches skip warp tracing entirely — the functional sweep
  /// still runs on real data (outputs stay bit-exact) and the timeline item
  /// is rebuilt from the record. Only mark kernels whose *access pattern*
  /// is fully determined by shape + graph_key: pool buffers sit on
  /// 256B-aligned simulated addresses with guard gaps, so a rebind to a
  /// different buffer shifts every address by a multiple of the 128B
  /// transaction size and cannot change segment counts. Kernels whose
  /// addresses depend on data values must stay off this path.
  bool cacheable = false;
  /// Disambiguates same-name, same-shape launches whose access pattern
  /// differs through closure parameters (round index, chunk, stage width).
  u64 graph_key = 0;

  /// Fluent opt-in: `for_elements(...).cache(key)` marks the launch
  /// cacheable under `key`.
  LaunchCfg& cache(u64 key) {
    cacheable = true;
    graph_key = key;
    return *this;
  }

  /// Convenience: shape for one thread per element.
  static LaunchCfg for_elements(const char* name, std::size_t count,
                                std::size_t block = 256, StreamId s = 0) {
    LaunchCfg c;
    c.name = name;
    c.threads_per_block = block;
    c.blocks = (count + block - 1) / std::max<std::size_t>(1, block);
    c.stream = s;
    return c;
  }
};

/// Aggregated per-kernel-name statistics for a capture region.
struct KernelReport {
  std::size_t launches = 0;
  perfmodel::KernelCounters counters;  // summed
  double solo_s = 0;                   // summed isolated durations
};

/// Captured-graph replay mode (CUSFFT_GRAPH environment variable):
/// unset, empty or "1" enables replay, "0" disables the cache (every
/// launch traces), "verify" traces every launch anyway and cross-checks
/// cache hits against the fresh counters (throws on any mismatch — the CI
/// belt-and-braces mode).
enum class GraphMode { kOff, kOn, kVerify };

/// Reads CUSFFT_GRAPH (re-read on every call; each Device constructor
/// calls it). Any other value throws std::invalid_argument naming the
/// variable, so a mistyped "verify" cannot silently run with replay on.
GraphMode graph_mode_from_env();

/// One recorded launch: the trace-derived counters that replay restores
/// without re-tracing. Shape-derived counters (blocks/threads/warps) and
/// flops (recomputed by the functional sweep) are not stored.
struct LaunchRecord {
  WarpTotals totals;
  double max_atomic_conflict = 0;
};

/// The captured launch graph of one Device: records keyed by
/// (domain salt, kernel name, graph_key, blocks, threads_per_block), plus
/// hit/record counters for tests and diagnostics.
struct LaunchGraph {
  /// `const void*` is the kernel-name literal's address — stable for the
  /// process lifetime; literal duplication across TUs can only cause a
  /// redundant record, never a wrong hit (the bytes match the pointer).
  using Key = std::tuple<u64, const void*, u64, u64, u64>;

  struct Stats {
    u64 records = 0;   // first-sight captures
    u64 replays = 0;   // launches served from a record (tracing skipped)
    u64 verified = 0;  // verify-mode cross-checks that passed
  };

  std::map<Key, LaunchRecord> records;
  Stats stats;
};

/// Host state of one signal lane: a warp tracer and accumulator of its
/// own, plus the launch records the lane traced itself (records are
/// read-only while lanes run, so without these a lane would re-trace every
/// repeat of a launch it already traced). Owned by the plan running the
/// lane; see Device::LaneScope.
class Lane {
 private:
  friend class Device;
  KernelAccum accum_;
  std::map<LaunchGraph::Key, LaunchRecord> traced_;
  const void* device_ = nullptr;  // device and graph epoch traced_ is for
  u64 epoch_ = 0;
};

/// One signal's device calls, made on a lane and applied in program order
/// by Device::apply. Event ids the lane was handed resolve to the device's
/// ids through event_id() once the log is applied.
class DeviceLog {
 public:
  /// The device's id for `id`: an id a lane was handed, an imported one
  /// (Device::imported_event), or a plain device id (returned as is).
  std::size_t event_id(std::size_t id) const;

 private:
  friend class Device;
  /// Tags of the event ids a lane hands out and of imported ones.
  static constexpr std::size_t kLaneEvent = std::size_t{1} << 62;
  static constexpr std::size_t kImportedEvent = std::size_t{1} << 61;
  enum class Op : unsigned char {
    kKernel, kCopy, kBarrier, kEvent, kWait, kPhase, kClosePhase, kDomain
  };
  /// How a cacheable kernel met the launch graph on its lane.
  enum class Graph : unsigned char { kNone, kTraced, kReplayed };
  struct Entry {
    Op op;
    Graph graph = Graph::kNone;
    bool scoped = false;         // stream-scoped event or phase
    StreamId stream = 0;
    const char* name = nullptr;  // kernel or copy name
    std::size_t blocks = 0, threads_per_block = 0;
    double amount = 0;           // kernel flops, copy bytes
    std::size_t event = 0;       // kWait / kClosePhase target
    u64 salt = 0, graph_key = 0;  // kernel graph key; kDomain: the salt
    LaunchRecord rec;            // kernel counters (or the replayed record)
    std::string phase;           // kPhase name
  };
  void clear() {
    entries_.clear();
    events_.clear();
    lane_events_ = 0;
  }

  std::vector<Entry> entries_;
  std::size_t lane_events_ = 0;      // event ids handed out on the lane
  std::vector<std::size_t> events_;  // their device ids, once applied
  std::vector<std::size_t> imports_;
  LaunchArena::Stats arena_;         // the lane's tracer arena footprint
};

class Device {
  /// The lane the calling thread runs on a device (see LaneScope).
  struct Binding {
    Device* dev;
    Lane* lane;
    DeviceLog* log;
    u64 salt;  // the lane's graph domain
  };
  static Binding*& this_thread_binding() {
    static thread_local Binding* b = nullptr;
    return b;
  }

 public:
  /// Reads CUSFFT_GRAPH (graph_mode_from_env); throws
  /// std::invalid_argument on a malformed value.
  explicit Device(perfmodel::GpuSpec spec = perfmodel::GpuSpec::k20x());

  /// Publishes the final graph-stats delta and arena high-water marks to
  /// MetricsRegistry::global() (see publish_metrics).
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const perfmodel::GpuModel& model() const { return model_; }
  const perfmodel::GpuSpec& spec() const { return model_.spec(); }

  StreamId create_stream() { return next_stream_++; }

  /// Warp-sampling knob: a launch traces every stride-th warp, with
  /// stride = max(1, floor(total warps / v)), and counters extrapolate by
  /// the stride. A launch with more than v warps therefore traces between
  /// v and just under 2v of them (8191 warps under v = 4096 trace all
  /// 8191). Tests that need exact counts can raise it. Changing the stride
  /// changes extrapolated counters, so the captured launch graph is
  /// dropped.
  void set_max_traced_warps(u64 v) {
    max_traced_warps_ = std::max<u64>(1, v);
    clear_graph_cache();
  }

  /// Namespaces the captured launch graph: records taken under one salt are
  /// invisible under another. Plans hash their parameters/permutations into
  /// the salt, so a plan with different params never replays another plan's
  /// records even when kernel names and shapes coincide.
  void set_graph_domain(u64 salt) {
    if (DeviceLog::Entry* e = logged(DeviceLog::Op::kDomain)) {
      e->salt = bound()->salt = salt;
      return;
    }
    graph_salt_ = salt;
  }

  /// Replay mode override for tests (the constructor reads CUSFFT_GRAPH).
  void set_graph_mode(GraphMode m) { graph_mode_ = m; }
  GraphMode graph_mode() const { return graph_mode_; }

  /// Drops every captured record (explicit invalidation — use when modeled
  /// behavior outside the key changes).
  void clear_graph_cache() {
    graph_.records.clear();
    ++graph_epoch_;
  }
  const LaunchGraph::Stats& graph_stats() const { return graph_.stats; }

  /// The pool whose workers run this device's signal lanes: a private
  /// team (DeviceGroup gives each of its devices one when N > 1, so the
  /// shards' lanes do not queue behind each other), or
  /// ThreadPool::global() when none is set. A pool already busy with
  /// another caller runs the batch on one lane instead; results are
  /// bit-identical at every lane count. The caller keeps ownership.
  void set_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool& pool() const {
    return pool_ != nullptr ? *pool_ : ThreadPool::global();
  }

  /// Makes the calling thread run `lane` of this device until the scope
  /// ends: every call it makes on the device (kernel launches, copies,
  /// barriers, events, stream waits, phase marks, the graph-domain switch)
  /// goes into `log` instead, and device buffers it creates come from
  /// BufferPool::lanes(). Event ids it is handed are the log's own. Launch
  /// records and the device's settings are only read, so any number of
  /// lanes may run at once.
  class LaneScope {
   public:
    LaneScope(Device& dev, Lane& lane, DeviceLog& log);
    ~LaneScope();
    LaneScope(const LaneScope&) = delete;
    LaneScope& operator=(const LaneScope&) = delete;

   private:
    Binding binding_;
    Binding* prev_;
    BufferPool::PoolScope pool_;
  };

  /// Stand-in for imports[i] of the apply() call: how a lane waits on an
  /// event of an earlier signal, which has no device id while lanes run.
  static std::size_t imported_event(std::size_t i) {
    return DeviceLog::kImportedEvent | i;
  }

  /// Replays a lane's log on the device, in order, as if its calls had
  /// been made here (owning thread only, no lane running). Cacheable
  /// launches meet the launch graph now: the first in program order
  /// records; a later one the lane traced anyway counts as a replay, and
  /// its counters must equal the record (std::runtime_error otherwise, like
  /// GraphMode::kVerify). An exception leaves the entries before it
  /// applied, as the serial program would have.
  void apply(DeviceLog& log, std::span<const std::size_t> imports = {});

  /// Launches `body(ThreadCtx&)` for every thread in the grid, sweeping
  /// blocks in order on the calling thread. The modeled duration is queued
  /// on the timeline under cfg.stream (or logged, on a lane). Launches
  /// marked LaunchCfg::cacheable may skip warp tracing by replaying a
  /// captured record (the functional sweep always runs; outputs are
  /// bit-exact on every path).
  template <typename F>
  void launch(const LaunchCfg& cfg, F&& body) {
    Binding* b = bound();
    DeviceLog::Entry e;
    e.op = DeviceLog::Op::kKernel;
    e.stream = cfg.stream;
    e.name = cfg.name;
    e.blocks = cfg.blocks;
    e.threads_per_block = cfg.threads_per_block;
    e.salt = b != nullptr ? b->salt : graph_salt_;
    e.graph_key = cfg.graph_key;
    const bool graphed = cfg.cacheable && graph_mode_ != GraphMode::kOff;
    const LaunchRecord* rec =
        graphed && graph_mode_ == GraphMode::kOn ? find_record(e, b) : nullptr;
    if (rec != nullptr) {
      e.amount = replay_sweep(cfg, body);
      e.graph = DeviceLog::Graph::kReplayed;
      e.rec = *rec;
    } else {
      KernelAccum& acc = b != nullptr ? b->lane->accum_ : accum_;
      e.amount = traced_sweep(acc, cfg, body);
      e.rec.totals = acc.scaled_totals();
      e.rec.max_atomic_conflict = acc.max_atomic_conflict();
      if (graphed) {
        e.graph = DeviceLog::Graph::kTraced;
        if (b != nullptr && graph_mode_ == GraphMode::kOn)
          b->lane->traced_.emplace(key_of(e), e.rec);
      }
    }
    if (b != nullptr)
      b->log->entries_.push_back(std::move(e));
    else
      apply_kernel(e);
  }

  /// Host-to-device copy: functional copy plus a PCIe timeline entry.
  template <typename T>
  void upload(DeviceBuffer<T>& dst, std::span<const T> src, StreamId s = 0) {
    if (src.size() != dst.size())
      throw std::invalid_argument("cusim upload: size mismatch");
    std::copy(src.begin(), src.end(), dst.host().begin());
    note_transfer("h2d", static_cast<double>(src.size() * sizeof(T)), s);
  }

  /// Device-to-host copy.
  template <typename T>
  void download(std::span<T> dst, const DeviceBuffer<T>& src, StreamId s = 0) {
    if (src.size() != dst.size())
      throw std::invalid_argument("cusim download: size mismatch");
    std::copy(src.host().begin(), src.host().end(), dst.begin());
    note_transfer("d2h", static_cast<double>(dst.size() * sizeof(T)), s);
  }

  /// Models a PCIe transfer of `bytes` without moving data — for partial
  /// copies out of a larger buffer (e.g. downloading only the num_hits
  /// prefix of a capacity-sized result buffer). The caller moves the bytes
  /// itself via host().
  void note_transfer(const char* name, double bytes, StreamId s = 0) {
    if (DeviceLog::Entry* e = logged(DeviceLog::Op::kCopy, s)) {
      e->name = name;
      e->amount = bytes;
      return;
    }
    submit_copy(name, bytes, s);
  }

  /// Device-wide synchronization point in the modeled timeline
  /// (cudaDeviceSynchronize): later submissions wait for everything so far.
  /// Functional execution is eager, so this affects only modeled time.
  void sync_point() {
    if (logged(DeviceLog::Op::kBarrier) == nullptr) timeline_.barrier();
  }

  /// cudaEvent-style marker in the modeled timeline. Query with
  /// event_time_ms() after elapsed_model_ms().
  std::size_t record_event() { return mark(nullptr, false, 0); }

  /// Stream-scoped event (cudaEventRecord on a stream): completes when
  /// every item submitted to `s` so far has finished. Same id space as
  /// record_event().
  std::size_t record_event(StreamId s) { return mark(nullptr, true, s); }

  /// cudaStreamWaitEvent: later submissions on `s` wait for `event_id` —
  /// the cross-stream dependency edge the pipelined batch path is built on.
  void wait_event(StreamId s, std::size_t event_id) {
    if (DeviceLog::Entry* e = logged(DeviceLog::Op::kWait, s))
      e->event = event_id;
    else
      timeline_.wait_event(s, event_id);
  }

  double event_time_ms(std::size_t event_id) {
    timeline_.simulate();
    return timeline_.event_time_s(event_id) * 1e3;
  }

  /// Named phase boundary: records a timeline event and remembers the label
  /// so captures export per-phase spans (profiler.hpp). Returns the event
  /// id (usable with event_time_ms like a plain record_event()).
  std::size_t annotate_phase(std::string name) {
    return mark(&name, false, 0);
  }

  /// Stream-scoped phase boundary: the phase tracks one stream's work, so
  /// overlapping signals of a pipelined batch keep separate, coherent
  /// phase spans (one phase track per home stream in the trace).
  std::size_t annotate_phase(std::string name, StreamId s) {
    return mark(&name, true, s);
  }

  /// Closes the most recent scoped phase on `s` at `end_event` instead of
  /// at the next same-stream annotation — used after a signal's last item
  /// so its final phase does not absorb the idle gap before the stream's
  /// next signal.
  void close_phase(StreamId s, std::size_t end_event) {
    if (DeviceLog::Entry* e = logged(DeviceLog::Op::kClosePhase, s)) {
      e->event = end_event;
      return;
    }
    for (auto it = phases_.rbegin(); it != phases_.rend(); ++it)
      if (it->scoped && it->stream == s) {
        it->end_event = static_cast<std::ptrdiff_t>(end_event);
        return;
      }
  }
  const std::vector<PhaseAnnotation>& phase_annotations() const {
    return phases_;
  }

  /// Starts a fresh measured region: clears the timeline, the report, and
  /// the phase annotations, and snapshots the global BufferPool stats so
  /// the capture can report allocation deltas.
  void begin_capture();

  /// Simulates everything submitted since begin_capture() and assembles the
  /// full observability record: per-item trace spans, per-phase spans,
  /// per-kernel counters with derived metrics, and the BufferPool delta.
  /// Does not clear anything — call begin_capture() for the next region.
  CaptureProfile end_capture();

  /// Pushes this device's graph-replay counter deltas and arena high-water
  /// gauges into MetricsRegistry::global(). Devices are transient (stack
  /// objects inside a plan), so instead of a pull collector that would
  /// dangle, every device pushes deltas at capture boundaries and on
  /// destruction; calling it twice is harmless (deltas since last push).
  void publish_metrics();

  /// Simulates everything submitted since begin_capture(); returns the
  /// modeled makespan in milliseconds. Idempotent until the next submit.
  double elapsed_model_ms();

  /// Per-kernel-name aggregation for the capture region.
  const std::map<std::string, KernelReport>& report() const {
    return report_;
  }
  const Timeline& timeline() const { return timeline_; }
  /// Mutable timeline access, for tests that inject raw items (e.g.
  /// dangling deps or cycles) the public API can't produce.
  Timeline& timeline() { return timeline_; }

  /// BufferPool::global() stats as of the last begin_capture() (or device
  /// construction) — the baseline for per-capture allocation deltas.
  const BufferPool::Stats& pool_stats_at_capture() const {
    return pool_at_capture_;
  }

 private:
  Binding* bound() {
    Binding* b = this_thread_binding();
    return b != nullptr && b->dev == this ? b : nullptr;
  }
  /// A fresh entry of the calling thread's log when it runs a lane of this
  /// device (the call is logged), else nullptr (the call applies here).
  DeviceLog::Entry* logged(DeviceLog::Op op, StreamId s = 0) {
    Binding* b = bound();
    if (b == nullptr) return nullptr;
    DeviceLog::Entry& e = b->log->entries_.emplace_back();
    e.op = op;
    e.stream = s;
    return &e;
  }

  static LaunchGraph::Key key_of(const DeviceLog::Entry& e) {
    return {e.salt, static_cast<const void*>(e.name), e.graph_key, e.blocks,
            e.threads_per_block};
  }
  /// The record a launch may replay: the device's, or one its lane traced.
  const LaunchRecord* find_record(const DeviceLog::Entry& e, Binding* b);

  /// Records an event (and the phase `name`, when set) — or logs it and
  /// hands out a lane event id.
  std::size_t mark(std::string* name, bool scoped, StreamId s);

  /// Functional sweep with warp tracing into `acc`. Returns the grid's
  /// self-reported flops. Threads of a block run consecutively, blocks in
  /// order, preserving the intra-block ordering kernels may rely on.
  template <typename F>
  double traced_sweep(KernelAccum& acc, const LaunchCfg& cfg, F&& body) {
    const std::size_t warp = spec().warp_size;
    const std::size_t warps_per_block =
        (cfg.threads_per_block + warp - 1) / warp;
    const u64 total_warps = static_cast<u64>(cfg.blocks) * warps_per_block;
    const u64 stride = std::max<u64>(1, total_warps / max_traced_warps_);
    acc.reset(spec().mem_transaction_bytes, stride);

    ThreadCtx ctx;
    ctx.block_dim = static_cast<u32>(cfg.threads_per_block);
    ctx.grid_dim = cfg.blocks;
    u64 warp_index = 0;
    for (std::size_t b = 0; b < cfg.blocks; ++b) {
      ctx.block_idx = static_cast<u32>(b);
      for (std::size_t w0 = 0; w0 < cfg.threads_per_block;
           w0 += warp, ++warp_index) {
        const bool traced = (warp_index % stride) == 0;
        if (traced) acc.tracer().clear();
        ctx.attach_trace(traced ? &acc.tracer() : nullptr, &acc);
        const std::size_t hi = std::min(cfg.threads_per_block, w0 + warp);
        for (std::size_t tiid = w0; tiid < hi; ++tiid) {
          ctx.begin_thread(static_cast<u32>(tiid));
          body(ctx);
        }
        if (traced) acc.fold_warp();
      }
    }
    return ctx.flops();
  }

  /// Lean functional sweep for graph replay: no tracer is attached, so the
  /// per-access hooks reduce to a slot increment. Same block and thread
  /// order as the traced sweep, so functional outputs — including any
  /// ordering-sensitive accumulations — are bit-identical to a traced run.
  /// Returns the grid's self-reported flops.
  template <typename F>
  double replay_sweep(const LaunchCfg& cfg, F&& body) {
    ThreadCtx ctx;
    ctx.block_dim = static_cast<u32>(cfg.threads_per_block);
    ctx.grid_dim = cfg.blocks;
    ctx.attach_trace(nullptr, nullptr);
    for (std::size_t b = 0; b < cfg.blocks; ++b) {
      ctx.block_idx = static_cast<u32>(b);
      for (std::size_t tiid = 0; tiid < cfg.threads_per_block; ++tiid) {
        ctx.begin_thread(static_cast<u32>(tiid));
        body(ctx);
      }
    }
    return ctx.flops();
  }

  /// Meets the launch graph (records, replays, verifies) and submits the
  /// kernel item — immediately for a direct launch, from apply() for a
  /// lane's. Throws std::runtime_error naming the kernel when traced
  /// counters diverge from the record of a cacheable launch.
  void apply_kernel(const DeviceLog::Entry& e);
  /// Shared tail of every launch: costs the counters, queues the timeline
  /// item, folds the per-kernel report.
  void submit_kernel_item(const DeviceLog::Entry& e, const LaunchRecord& r);
  void submit_copy(const char* name, double bytes, StreamId s);

  perfmodel::GpuModel model_;
  Timeline timeline_;
  KernelAccum accum_;  // direct (lane-less) launches
  LaunchArena::Stats lane_arena_;  // largest lane tracer arena applied
  LaunchGraph graph_;
  LaunchGraph::Stats graph_pushed_;  // already published to the registry
  u64 graph_salt_ = 0;
  u64 graph_epoch_ = 0;  // bumped whenever records are dropped
  GraphMode graph_mode_ = GraphMode::kOn;
  std::map<std::string, KernelReport> report_;
  std::vector<PhaseAnnotation> phases_;
  BufferPool::Stats pool_at_capture_;
  StreamId next_stream_ = 1;
  u64 max_traced_warps_ = 4096;
  ThreadPool* pool_ = nullptr;  // set_pool team (not owned)
};

}  // namespace cusfft::cusim
