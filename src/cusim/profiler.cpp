#include "cusim/profiler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>

#include "cusim/cluster.hpp"
#include "cusim/device_group.hpp"

namespace cusfft::cusim {

namespace {

/// Deterministic JSON number: fixed %.12g, non-finite values clamp to 0
/// (JSON has no inf/nan; the model never produces them in practice).
std::string jnum(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void append_pool_stats(std::ostringstream& os, const BufferPool::Stats& s) {
  os << "{\"allocations\":" << s.allocations << ",\"reuses\":" << s.reuses
     << ",\"bytes_allocated\":" << s.bytes_allocated
     << ",\"bytes_pooled\":" << s.bytes_pooled << "}";
}

/// The trace's thread ids: one per stream, then one synthetic PCIe track,
/// the device-wide phase track, and one phase track per stream carrying
/// scoped annotations (pipelined batches).
constexpr int kPcieTid = 1000000;
constexpr int kPhaseTid = 1000001;
constexpr int kNicTid = 1000002;

int tid_of(const TraceSpan& s) {
  if (s.nic) return kNicTid;
  return s.pcie ? kPcieTid : static_cast<int>(s.stream);
}

int tid_of(const PhaseSpan& ph) {
  return ph.scoped ? kPhaseTid + 1 + static_cast<int>(ph.stream) : kPhaseTid;
}

/// Appends one device's timeline items as trace spans under the given
/// schedule (the device's own, or its rows of a merged fleet schedule).
/// Returns the device's summed kernel-span milliseconds.
double append_spans(CaptureProfile& p, const Timeline& tl,
                    const std::vector<ItemSchedule>& sched,
                    unsigned dev_index, double mem_bw_Bps,
                    double pcie_bw_Bps) {
  const auto& items = tl.items();
  p.spans.reserve(p.spans.size() + items.size());
  double device_busy_ms = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    TraceSpan s;
    s.name = items[i].name;
    s.stream = items[i].stream;
    s.device = dev_index;
    s.pcie = items[i].resource == Resource::kPcie;
    s.start_ms = sched[i].start_s * 1e3;
    s.end_ms = sched[i].finish_s * 1e3;
    s.mem_bytes = items[i].mem_bytes;
    s.useful_bytes = items[i].useful_bytes;
    s.transactions = items[i].transactions;
    s.atomic_conflict = items[i].atomic_conflict;
    const double dur_s = sched[i].finish_s - sched[i].start_s;
    const double peak = s.pcie ? pcie_bw_Bps : mem_bw_Bps;
    if (dur_s > 0 && peak > 0)
      s.achieved_bw_frac = s.mem_bytes / dur_s / peak;
    if (!s.pcie) device_busy_ms += s.end_ms - s.start_ms;
    p.spans.push_back(std::move(s));
  }
  return device_busy_ms;
}

/// Appends one device's phase spans: each annotation opens a phase that
/// its explicit close event, the next annotation in the same scope
/// (device-wide, or the same stream for scoped annotations), or
/// `end_default_ms` closes — exactly GpuSignalStats::phase_span_ms's
/// arithmetic.
void append_phases(CaptureProfile& p, const Device& dev,
                   const std::vector<ItemSchedule>& sched,
                   unsigned dev_index, double end_default_ms) {
  const Timeline& tl = dev.timeline();
  const auto& anns = dev.phase_annotations();
  p.phases.reserve(p.phases.size() + anns.size());
  for (std::size_t i = 0; i < anns.size(); ++i) {
    PhaseSpan ph;
    ph.name = anns[i].name;
    ph.stream = anns[i].stream;
    ph.device = dev_index;
    ph.scoped = anns[i].scoped;
    ph.start_ms = tl.event_time_s(anns[i].event_id, sched) * 1e3;
    ph.end_ms = end_default_ms;
    if (anns[i].end_event >= 0) {
      ph.end_ms = tl.event_time_s(
                      static_cast<std::size_t>(anns[i].end_event), sched) *
                  1e3;
    } else {
      for (std::size_t j = i + 1; j < anns.size(); ++j)
        if (anns[j].scoped == anns[i].scoped &&
            (!anns[i].scoped || anns[j].stream == anns[i].stream)) {
          ph.end_ms = tl.event_time_s(anns[j].event_id, sched) * 1e3;
          break;
        }
    }
    p.phases.push_back(std::move(ph));
  }
}

/// Folds a device's per-kernel report into a (possibly fleet-wide) merge.
void merge_report(std::map<std::string, KernelReport>& into,
                  const Device& dev) {
  for (const auto& [name, r] : dev.report()) {
    KernelReport& m = into[name];
    m.launches += r.launches;
    m.counters.name = name;
    m.counters.blocks += r.counters.blocks;
    m.counters.threads += r.counters.threads;
    m.counters.warps += r.counters.warps;
    m.counters.coalesced_transactions += r.counters.coalesced_transactions;
    m.counters.random_transactions += r.counters.random_transactions;
    m.counters.bytes_useful += r.counters.bytes_useful;
    m.counters.flops += r.counters.flops;
    m.counters.atomic_ops += r.counters.atomic_ops;
    m.counters.max_atomic_conflict = std::max(
        m.counters.max_atomic_conflict, r.counters.max_atomic_conflict);
    m.counters.shared_accesses += r.counters.shared_accesses;
    m.solo_s += r.solo_s;
  }
}

/// Builds the lexicographic kernels[] with derived metrics. Bandwidth
/// fractions normalize against the given peak (lane-0 spec for fleets).
void build_kernels(CaptureProfile& p,
                   const std::map<std::string, KernelReport>& merged,
                   double mem_transaction_bytes) {
  for (const auto& [name, r] : merged) {
    KernelProfile k;
    k.name = name;
    k.launches = r.launches;
    k.counters = r.counters;
    k.solo_ms = r.solo_s * 1e3;
    const double tx =
        r.counters.coalesced_transactions + r.counters.random_transactions;
    if (tx > 0) k.coalesced_frac = r.counters.coalesced_transactions / tx;
    if (r.solo_s > 0 && p.mem_bw_Bps > 0)
      k.achieved_bw_frac =
          tx * mem_transaction_bytes / r.solo_s / p.mem_bw_Bps;
    p.kernels.push_back(std::move(k));
  }
}

/// The lane walk shared by the fleet and cluster profiles: every device of
/// `groups`, node-major (lane == chrome-trace pid), on its node's rows of
/// the merged schedule `node_fleet`, with `makespan_s` as the capture's
/// clock. Fills the capture header from the first device's spec, the
/// spans, phases and kernels, one DeviceLane per device, and the pool
/// delta since the first group's begin_capture().
CaptureProfile walk_lanes(std::span<DeviceGroup* const> groups,
                          std::span<const FleetSchedule> node_fleet,
                          double makespan_s) {
  CaptureProfile p;
  const perfmodel::GpuSpec& spec0 = groups.front()->device(0).spec();
  p.device = spec0.name;
  p.staging = groups.front()->staging().name();
  p.model_ms = makespan_s * 1e3;
  p.mem_bw_Bps = spec0.mem_bandwidth_Bps;
  p.pcie_bw_Bps = spec0.pcie_bandwidth_Bps;
  p.max_concurrent_kernels = spec0.max_concurrent_kernels;

  std::map<std::string, KernelReport> merged;
  double total_busy_ms = 0, total_window = 0;
  unsigned lane = 0;
  for (std::size_t m = 0; m < groups.size(); ++m) {
    const FleetSchedule& f = node_fleet[m];
    for (std::size_t d = 0; d < groups[m]->size(); ++d, ++lane) {
      Device& dev = groups[m]->device(d);
      const perfmodel::GpuSpec& spec = dev.spec();
      const double busy_ms =
          append_spans(p, dev.timeline(), f.items[d], lane,
                       spec.mem_bandwidth_Bps, spec.pcie_bandwidth_Bps);
      append_phases(p, dev, f.items[d], lane, p.model_ms);
      merge_report(merged, dev);

      DeviceLane dl;
      dl.name = spec.name;
      dl.model_ms = f.finish_s[d] * 1e3;
      dl.busy_ms = busy_ms;
      dl.utilization = p.model_ms > 0 ? dl.model_ms / p.model_ms : 0.0;
      dl.pcie_stall_ms = f.pcie_stall_s[d] * 1e3;
      dl.max_concurrent_kernels = spec.max_concurrent_kernels;
      if (dl.model_ms > 0 && dl.max_concurrent_kernels > 0)
        dl.occupancy_frac =
            busy_ms / dl.model_ms / dl.max_concurrent_kernels;
      p.lanes.push_back(std::move(dl));
      total_busy_ms += busy_ms;
      total_window += spec.max_concurrent_kernels;
    }
  }
  if (p.model_ms > 0 && total_window > 0)
    p.occupancy_frac = total_busy_ms / p.model_ms / total_window;
  build_kernels(p, merged,
                static_cast<double>(spec0.mem_transaction_bytes));

  p.pool_begin = groups.front()->pool_stats_at_capture();
  p.pool_end = BufferPool::global().stats();
  return p;
}

}  // namespace

CaptureProfile collect_profile(Device& dev) {
  CaptureProfile p;
  const perfmodel::GpuSpec& spec = dev.spec();
  p.device = spec.name;
  p.model_ms = dev.elapsed_model_ms();  // simulates (idempotent)
  p.mem_bw_Bps = spec.mem_bandwidth_Bps;
  p.pcie_bw_Bps = spec.pcie_bandwidth_Bps;
  p.max_concurrent_kernels = spec.max_concurrent_kernels;

  const Timeline& tl = dev.timeline();
  const double device_busy_ms = append_spans(
      p, tl, tl.schedule(), 0, p.mem_bw_Bps, p.pcie_bw_Bps);
  if (p.model_ms > 0 && p.max_concurrent_kernels > 0)
    p.occupancy_frac =
        device_busy_ms / p.model_ms / p.max_concurrent_kernels;

  append_phases(p, dev, tl.schedule(), 0, p.model_ms);

  std::map<std::string, KernelReport> merged;
  merge_report(merged, dev);
  build_kernels(p, merged,
                static_cast<double>(spec.mem_transaction_bytes));

  p.pool_begin = dev.pool_stats_at_capture();
  p.pool_end = BufferPool::global().stats();
  return p;
}

CaptureProfile collect_profile(DeviceGroup& group) {
  const FleetSchedule fs = group.simulate();
  DeviceGroup* const node = &group;
  return walk_lanes({&node, 1}, {&fs, 1}, fs.makespan_s);
}

CaptureProfile collect_profile(Cluster& cluster) {
  const ClusterSchedule cs = cluster.simulate();
  std::vector<DeviceGroup*> groups;
  for (std::size_t m = 0; m < cluster.nodes(); ++m)
    groups.push_back(&cluster.node(m));
  CaptureProfile p = walk_lanes(groups, cs.node_fleet, cs.makespan_s);
  // The one-node cluster is the fleet: no node lanes and no NIC, so every
  // serialization stays in the fleet format, byte for byte.
  if (cluster.nodes() == 1) return p;

  p.nic_bw_Bps = cluster.nic().bandwidth_Bps;
  p.nic_latency_s = cluster.nic().latency_s;
  unsigned lane = 0;
  for (std::size_t m = 0; m < cluster.nodes(); ++m) {
    NodeLane nl;
    nl.name = "n" + std::to_string(m);
    nl.first_lane = lane;
    nl.lane_count = static_cast<unsigned>(groups[m]->size());
    nl.model_ms = cs.node_finish_s[m] * 1e3;
    nl.offset_ms = cs.node_offset_s[m] * 1e3;
    nl.nic_stall_ms = cs.nic_stall_s[m] * 1e3;
    nl.nic_queue_ms = cs.nic_queue_s[m] * 1e3;
    lane += nl.lane_count;
    p.nodes.push_back(std::move(nl));
  }

  // Modeled NIC transfers render on the destination node's first device
  // lane under the "NIC" track (cat "nic"), so the cross-node staging and
  // gather traffic is visible next to the compute it feeds.
  for (const NicSpan& s : cs.nic) {
    TraceSpan ts;
    ts.name = s.name;
    ts.nic = true;
    ts.device = p.nodes[s.node].first_lane;
    ts.start_ms = s.start_s * 1e3;
    ts.end_ms = s.finish_s * 1e3;
    ts.mem_bytes = s.bytes;
    ts.useful_bytes = s.bytes;
    const double dur_s = s.finish_s - s.start_s;
    if (dur_s > 0 && p.nic_bw_Bps > 0)
      ts.achieved_bw_frac = s.bytes / dur_s / p.nic_bw_Bps;
    p.nodes[s.node].nic_bytes += s.bytes;
    p.nodes[s.node].nic_ms += dur_s * 1e3;
    p.spans.push_back(std::move(ts));
  }
  return p;
}

std::string CaptureProfile::to_json() const {
  std::ostringstream os;
  os << "{\"device\":" << jstr(device)
     << ",\"model_ms\":" << jnum(model_ms)
     << ",\"mem_bw_Bps\":" << jnum(mem_bw_Bps)
     << ",\"pcie_bw_Bps\":" << jnum(pcie_bw_Bps)
     << ",\"max_concurrent_kernels\":" << max_concurrent_kernels
     << ",\"occupancy_frac\":" << jnum(occupancy_frac);

  // Fleet captures only: the staging policy the merged schedule ran
  // under, plus one entry per device lane (index == trace pid). Absent
  // for single-device captures so their serialization is unchanged.
  if (!lanes.empty()) {
    os << ",\"staging\":" << jstr(staging);
    os << ",\"devices\":[";
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const DeviceLane& l = lanes[i];
      os << (i ? "," : "") << "{\"name\":" << jstr(l.name)
         << ",\"model_ms\":" << jnum(l.model_ms)
         << ",\"busy_ms\":" << jnum(l.busy_ms)
         << ",\"utilization\":" << jnum(l.utilization)
         << ",\"occupancy_frac\":" << jnum(l.occupancy_frac)
         << ",\"pcie_stall_ms\":" << jnum(l.pcie_stall_ms)
         << ",\"max_concurrent_kernels\":" << l.max_concurrent_kernels
         << "}";
    }
    os << "]";
  }

  // Cluster captures only (M > 1): the NIC model and one entry per node
  // lane. Absent for fleet/single-device captures so their serialization
  // is unchanged.
  if (!nodes.empty()) {
    os << ",\"nic\":{\"bandwidth_Bps\":" << jnum(nic_bw_Bps)
       << ",\"latency_s\":" << jnum(nic_latency_s) << "}";
    os << ",\"nodes\":[";
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeLane& n = nodes[i];
      os << (i ? "," : "") << "{\"name\":" << jstr(n.name)
         << ",\"first_device\":" << n.first_lane
         << ",\"devices\":" << n.lane_count
         << ",\"model_ms\":" << jnum(n.model_ms)
         << ",\"offset_ms\":" << jnum(n.offset_ms)
         << ",\"nic_bytes\":" << jnum(n.nic_bytes)
         << ",\"nic_ms\":" << jnum(n.nic_ms)
         << ",\"nic_stall_ms\":" << jnum(n.nic_stall_ms)
         << ",\"nic_queue_ms\":" << jnum(n.nic_queue_ms) << "}";
    }
    os << "]";
  }

  os << ",\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseSpan& ph = phases[i];
    os << (i ? "," : "") << "{\"name\":" << jstr(ph.name)
       << ",\"start_ms\":" << jnum(ph.start_ms)
       << ",\"end_ms\":" << jnum(ph.end_ms)
       << ",\"span_ms\":" << jnum(ph.span_ms()) << "}";
  }
  os << "]";

  os << ",\"kernels\":[";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelProfile& k = kernels[i];
    os << (i ? "," : "") << "{\"name\":" << jstr(k.name)
       << ",\"launches\":" << k.launches
       << ",\"solo_ms\":" << jnum(k.solo_ms)
       << ",\"coalesced_tx\":" << jnum(k.counters.coalesced_transactions)
       << ",\"random_tx\":" << jnum(k.counters.random_transactions)
       << ",\"useful_bytes\":" << jnum(k.counters.bytes_useful)
       << ",\"flops\":" << jnum(k.counters.flops)
       << ",\"atomics\":" << jnum(k.counters.atomic_ops)
       << ",\"max_conflict\":" << jnum(k.counters.max_atomic_conflict)
       << ",\"shared_accesses\":" << jnum(k.counters.shared_accesses)
       << ",\"coalesced_frac\":" << jnum(k.coalesced_frac)
       << ",\"achieved_bw_frac\":" << jnum(k.achieved_bw_frac) << "}";
  }
  os << "]";

  // Only the capture-scoped delta is serialized: the absolute begin/end
  // snapshots count process-lifetime pool activity, which would make two
  // otherwise-identical captures serialize differently.
  os << ",\"pool\":";
  append_pool_stats(os, pool_delta());
  os << "}";
  return os.str();
}

std::string CaptureProfile::chrome_trace_json() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };

  // Track metadata, one process (pid) per device lane — a single-device
  // capture has no lanes and emits exactly the historical pid-0 layout.
  // Per pid: process name, one thread per stream seen, the PCIe track,
  // then the phase tracks. Streams sorted for determinism.
  const std::size_t npids = lanes.empty() ? 1 : lanes.size();
  // Cluster captures name each pid by its node + node-local device, and
  // the node's first lane additionally carries the NIC track.
  auto node_of = [&](std::size_t pid) -> const NodeLane* {
    for (const NodeLane& n : nodes)
      if (pid >= n.first_lane && pid < n.first_lane + n.lane_count)
        return &n;
    return nullptr;
  };
  for (std::size_t pid = 0; pid < npids; ++pid) {
    sep();
    std::string pname;
    if (lanes.empty()) {
      pname = "cusim " + device;
    } else if (const NodeLane* n = node_of(pid)) {
      pname = "cusim " + n->name + " dev" +
              std::to_string(pid - n->first_lane) + " " + lanes[pid].name;
    } else {
      pname = "cusim dev" + std::to_string(pid) + " " + lanes[pid].name;
    }
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":" << jstr(pname) << "}}";
    std::vector<int> tids;
    for (const TraceSpan& s : spans)
      if (!s.pcie && !s.nic && s.device == pid)
        tids.push_back(static_cast<int>(s.stream));
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
    for (const int t : tids) {
      sep();
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
         << ",\"tid\":" << t
         << ",\"args\":{\"name\":" << jstr("stream " + std::to_string(t))
         << "}}";
    }
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":" << kPcieTid << ",\"args\":{\"name\":\"PCIe\"}}";
    if (const NodeLane* n = node_of(pid); n && n->first_lane == pid) {
      sep();
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
         << ",\"tid\":" << kNicTid << ",\"args\":{\"name\":\"NIC\"}}";
    }
    bool any_plain_phase = false;
    std::vector<int> scoped_phase_tids;
    for (const PhaseSpan& ph : phases) {
      if (ph.device != pid) continue;
      if (ph.scoped)
        scoped_phase_tids.push_back(tid_of(ph));
      else
        any_plain_phase = true;
    }
    std::sort(scoped_phase_tids.begin(), scoped_phase_tids.end());
    scoped_phase_tids.erase(
        std::unique(scoped_phase_tids.begin(), scoped_phase_tids.end()),
        scoped_phase_tids.end());
    if (any_plain_phase) {
      sep();
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
         << ",\"tid\":" << kPhaseTid << ",\"args\":{\"name\":\"phases\"}}";
    }
    for (const int t : scoped_phase_tids) {
      sep();
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
         << ",\"tid\":" << t << ",\"args\":{\"name\":"
         << jstr("phases s" + std::to_string(t - kPhaseTid - 1)) << "}}";
    }
  }

  // Duration events, microsecond timestamps (the trace format's unit);
  // pid is the owning device lane (0 single-device).
  for (const TraceSpan& s : spans) {
    sep();
    os << "{\"name\":" << jstr(s.name) << ",\"cat\":"
       << (s.nic ? "\"nic\"" : s.pcie ? "\"copy\"" : "\"kernel\"")
       << ",\"ph\":\"X\",\"pid\":" << s.device
       << ",\"tid\":" << tid_of(s)
       << ",\"ts\":" << jnum(s.start_ms * 1e3)
       << ",\"dur\":" << jnum((s.end_ms - s.start_ms) * 1e3)
       << ",\"args\":{\"stream\":" << s.stream
       << ",\"transactions\":" << jnum(s.transactions)
       << ",\"useful_bytes\":" << jnum(s.useful_bytes)
       << ",\"mem_bytes\":" << jnum(s.mem_bytes)
       << ",\"achieved_bw_pct\":" << jnum(s.achieved_bw_frac * 100.0)
       << ",\"atomic_conflict\":" << jnum(s.atomic_conflict) << "}}";
  }
  for (const PhaseSpan& ph : phases) {
    sep();
    os << "{\"name\":" << jstr(ph.name)
       << ",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":" << ph.device
       << ",\"tid\":" << tid_of(ph)
       << ",\"ts\":" << jnum(ph.start_ms * 1e3)
       << ",\"dur\":" << jnum(ph.span_ms() * 1e3)
       << ",\"args\":{\"stream\":" << ph.stream << "}}";
  }
  os << "],\"profile\":" << to_json() << "}";
  return os.str();
}

ResultTable CaptureProfile::to_table() const {
  ResultTable t({"kind", "name", "ms", "launches", "coalesced_tx",
                 "random_tx", "useful_MB", "Mflops", "atomics",
                 "max_conflict", "coalesced_frac", "achieved_bw_frac"});
  const std::string na = "-";
  t.add_row({"capture", device, ResultTable::num(model_ms), na, na, na, na,
             na, na, na, na,
             ResultTable::num(occupancy_frac)});
  // Fleet captures: one row per device lane; the trailing column carries
  // the lane's utilization (finish / fleet makespan), mirroring the
  // capture row's occupancy placement.
  // Cluster captures: one row per node lane before the device rows; the
  // trailing column carries the node's NIC stall milliseconds.
  for (const NodeLane& n : nodes)
    t.add_row({"node", n.name, ResultTable::num(n.model_ms), na, na, na, na,
               na, na, na, na, ResultTable::num(n.nic_stall_ms)});
  for (std::size_t i = 0; i < lanes.size(); ++i)
    t.add_row({"device", "dev" + std::to_string(i) + " " + lanes[i].name,
               ResultTable::num(lanes[i].model_ms), na, na, na, na, na, na,
               na, na, ResultTable::num(lanes[i].utilization)});
  for (const PhaseSpan& ph : phases)
    t.add_row({"phase", ph.name, ResultTable::num(ph.span_ms()), na, na, na,
               na, na, na, na, na, na});
  for (const KernelProfile& k : kernels)
    t.add_row({"kernel", k.name, ResultTable::num(k.solo_ms),
               std::to_string(k.launches),
               ResultTable::num(k.counters.coalesced_transactions),
               ResultTable::num(k.counters.random_transactions),
               ResultTable::num(k.counters.bytes_useful / 1e6),
               ResultTable::num(k.counters.flops / 1e6),
               ResultTable::num(k.counters.atomic_ops),
               ResultTable::num(k.counters.max_atomic_conflict),
               ResultTable::num(k.coalesced_frac),
               ResultTable::num(k.achieved_bw_frac)});
  const BufferPool::Stats d = pool_delta();
  t.add_row({"pool", "allocations",
             ResultTable::num(static_cast<double>(d.allocations)), na, na,
             na, na, na, na, na, na, na});
  t.add_row({"pool", "reuses",
             ResultTable::num(static_cast<double>(d.reuses)), na, na, na, na,
             na, na, na, na, na});
  t.add_row({"pool", "fresh_MB",
             ResultTable::num(static_cast<double>(d.bytes_allocated) / 1e6),
             na, na, na, na, na, na, na, na, na});
  t.add_row({"pool", "pooled_MB",
             ResultTable::num(static_cast<double>(d.bytes_pooled) / 1e6),
             na, na, na, na, na, na, na, na, na});
  return t;
}

bool CaptureProfile::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << chrome_trace_json() << "\n";
  return static_cast<bool>(f);
}

}  // namespace cusfft::cusim
