#include "cusim/timeline.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

namespace cusfft::cusim {

void Timeline::clear() {
  items_.clear();
  schedule_.clear();
  events_.clear();
  last_on_stream_.clear();
  pending_deps_.clear();
  pending_after_.clear();
  dep_arena_.reset();
  barrier_ = 0;
  ++changes_;
}

void Timeline::clear_events() {
  events_.clear();
  // The cached makespan/schedule was computed for the pre-clear event set;
  // force the next simulate() to recompute rather than reuse it.
  ++changes_;
}

std::size_t Timeline::record_event(StreamId s) {
  EventMark m;
  m.scoped = true;
  if (const auto it = last_on_stream_.find(s); it != last_on_stream_.end())
    m.item = static_cast<std::ptrdiff_t>(it->second);
  events_.push_back(m);
  return events_.size() - 1;
}

void Timeline::wait_event(StreamId s, std::size_t event_id) {
  if (event_id >= events_.size())
    throw std::out_of_range("Timeline::wait_event: unknown event");
  const EventMark& e = events_[event_id];
  if (e.scoped) {
    if (e.item >= 0)
      pending_deps_[s].push_back(static_cast<std::size_t>(e.item));
  } else {
    std::size_t& upto = pending_after_[s];
    upto = std::max(upto, e.upto);
  }
}

double Timeline::event_time_s(std::size_t event_id) const {
  return event_time_s(event_id, schedule_);
}

double Timeline::event_time_s(std::size_t event_id,
                              const std::vector<ItemSchedule>& sched) const {
  if (event_id >= events_.size())
    throw std::out_of_range("Timeline::event_time_s: unknown event");
  const EventMark& e = events_[event_id];
  if (e.scoped) {
    if (e.item < 0 || static_cast<std::size_t>(e.item) >= sched.size())
      return 0.0;
    return sched[static_cast<std::size_t>(e.item)].finish_s;
  }
  double t = 0.0;
  for (std::size_t i = 0; i < e.upto && i < sched.size(); ++i)
    t = std::max(t, sched[i].finish_s);
  return t;
}

std::size_t Timeline::submit(TimelineItem item) {
  return submit(std::move(item), {});
}

std::size_t Timeline::submit(TimelineItem item,
                             std::span<const std::size_t> deps) {
  item.after = barrier_;
  if (const auto it = pending_after_.find(item.stream);
      it != pending_after_.end()) {
    item.after = std::max(item.after, it->second);
    pending_after_.erase(it);
  }
  // Merge caller-set deps, the explicit list, and the stream's pending
  // wait_event() deps into one arena-backed span: the caller's storage may
  // not outlive this call, the arena does (until clear()).
  const auto pend = pending_deps_.find(item.stream);
  const std::size_t pend_n =
      pend != pending_deps_.end() ? pend->second.size() : 0;
  const std::size_t total = item.deps.size() + deps.size() + pend_n;
  if (total != 0) {
    std::size_t* dst = dep_arena_.alloc_array<std::size_t>(total);
    std::size_t k = 0;
    for (const std::size_t d : item.deps) dst[k++] = d;
    for (const std::size_t d : deps) dst[k++] = d;
    if (pend_n != 0)
      for (const std::size_t d : pend->second) dst[k++] = d;
    item.deps = {dst, total};
  }
  if (pend != pending_deps_.end()) pending_deps_.erase(pend);
  items_.push_back(std::move(item));
  last_on_stream_[items_.back().stream] = items_.size() - 1;
  ++changes_;
  return items_.size() - 1;
}

double Timeline::simulate() {
  if (simulated_at_ == changes_) return makespan_s_;
  Timeline* self = this;
  FleetSchedule fs = replay({&self, 1}, PcieStaging::Unlimited());
  schedule_ = std::move(fs.items[0]);
  makespan_s_ = fs.makespan_s;
  simulated_at_ = changes_;
  return makespan_s_;
}

FleetSchedule Timeline::replay(std::span<Timeline* const> tls,
                               const PcieStaging& staging) {
  const std::size_t ntl = tls.size();
  FleetSchedule fs;
  fs.items.resize(ntl);
  fs.pcie_queue_s.assign(ntl, 0.0);

  struct Node {
    const TimelineItem* it = nullptr;
    unsigned tl = 0;  // owning timeline
    double mem_left = 0, comp_left = 0;
    std::ptrdiff_t prev = -1;  // node index of the stream predecessor
    bool started = false, done = false;
  };
  // Per-timeline scope: its node range, the first not-done item ("all of
  // [0, after) done" is one comparison against it), and its device-side
  // resources — the kernel window and memory-bandwidth sharers.
  struct Lane {
    std::size_t base = 0, count = 0, done_prefix = 0;
    unsigned cap = 0, running = 0, mem = 0;
  };
  std::vector<Node> nodes;
  std::vector<Lane> lanes(ntl);
  std::size_t total = 0;
  for (const Timeline* tl : tls) total += tl->items_.size();
  nodes.reserve(total);
  for (std::size_t l = 0; l < ntl; ++l) {
    const auto& items = tls[l]->items_;
    lanes[l].base = nodes.size();
    lanes[l].count = items.size();
    lanes[l].cap = tls[l]->max_kernels_;
    fs.items[l].assign(items.size(), ItemSchedule{});
    std::vector<std::pair<StreamId, std::size_t>> last;  // stream -> node
    for (const TimelineItem& item : items) {
      Node nd;
      nd.it = &item;
      nd.tl = static_cast<unsigned>(l);
      nd.mem_left = item.mem_s;
      nd.comp_left = item.compute_s;
      const auto s = std::find_if(last.begin(), last.end(), [&](auto& e) {
        return e.first == item.stream;
      });
      if (s != last.end())
        nd.prev = static_cast<std::ptrdiff_t>(
            std::exchange(s->second, nodes.size()));
      else
        last.emplace_back(item.stream, nodes.size());
      nodes.push_back(nd);
    }
  }

  const std::size_t n = nodes.size();
  const unsigned nl = static_cast<unsigned>(ntl);
  constexpr double kEps = 1e-15;
  double t = 0.0;
  std::size_t done_count = 0;
  unsigned pcie_running = 0;
  unsigned rr_next = 0;  // round-robin rotation cursor (timeline index)
  auto rr_dist = [&](unsigned l) { return (l + nl - rr_next) % nl; };
  // `waiting` holds the not-yet-started nodes in ascending node
  // (timeline-then-submission) order, and every admission decision is
  // taken in that order; the rest of a step touches only `running` and
  // `held` (ready copies the staging policy queued this step). `waiting`
  // and `running` are compacted as nodes leave them.
  std::vector<std::size_t> waiting(n), running, held;
  std::iota(waiting.begin(), waiting.end(), std::size_t{0});
  auto start = [&](std::size_t i) {
    Node& nd = nodes[i];
    nd.started = true;
    running.push_back(i);
    fs.items[nd.tl][i - lanes[nd.tl].base].start_s = t;
  };
  while (done_count < n) {
    // Start every eligible item, respecting each timeline's kernel window
    // and the staging policy for PCIe copies.
    const std::size_t was_running = running.size();
    std::ptrdiff_t rr_pick = -1;  // best kRoundRobin candidate this step
    held.clear();
    for (const std::size_t i : waiting) {
      const Node& nd = nodes[i];
      if (nd.prev >= 0 && !nodes[static_cast<std::size_t>(nd.prev)].done)
        continue;
      Lane& lane = lanes[nd.tl];
      if (nd.it->after > lane.done_prefix) continue;  // barrier window open
      // Deps are local to the owning timeline: one out of its range is
      // ignored, never aliased into another timeline's nodes.
      if (std::any_of(nd.it->deps.begin(), nd.it->deps.end(),
                      [&](std::size_t d) {
                        return d < lane.count && !nodes[lane.base + d].done;
                      }))
        continue;
      if (nd.it->resource == Resource::kDeviceMemory) {
        if (lane.running >= lane.cap) continue;
        ++lane.running;
      } else {
        switch (staging.kind) {
          case PcieStaging::Kind::kUnlimited:
            break;
          case PcieStaging::Kind::kMaxInflight:
            if (pcie_running >= staging.limit) {
              held.push_back(i);
              continue;
            }
            break;
          case PcieStaging::Kind::kRoundRobin:
            // One copy at a time; the winner is the ready timeline closest
            // in rotation after the last admission (earliest-submitted
            // copy within it, by scan order). Decided after the scan.
            held.push_back(i);
            if (pcie_running == 0 &&
                (rr_pick < 0 || rr_dist(nd.tl) < rr_dist(nodes[rr_pick].tl)))
              rr_pick = static_cast<std::ptrdiff_t>(i);
            continue;
        }
        ++pcie_running;
      }
      start(i);
    }
    if (rr_pick >= 0) {
      const std::size_t pick = static_cast<std::size_t>(rr_pick);
      held.erase(std::find(held.begin(), held.end(), pick));
      ++pcie_running;
      start(pick);
      rr_next = (nodes[pick].tl + 1) % nl;
    }
    if (running.size() != was_running)
      waiting.erase(std::remove_if(waiting.begin(), waiting.end(),
                                   [&](std::size_t i) {
                                     return nodes[i].started;
                                   }),
                    waiting.end());

    if (running.empty()) {
      // Nothing runs yet items remain (a cyclic or self dependency in
      // hand-built items): breaking would under-report the makespan. The
      // first waiting node is its timeline's first not-done item, so its
      // stream predecessor and barrier window are clear — its own deps
      // hold it.
      const Node& stuck = nodes[waiting.front()];
      throw std::runtime_error(
          "cusim: timeline deadlock — item " +
          std::to_string(waiting.front() - lanes[stuck.tl].base) + " '" +
          stuck.it->name + "'" +
          (ntl > 1 ? " on device " + std::to_string(stuck.tl) : "") +
          " can never start (unsatisfiable dependencies; " +
          std::to_string(n - done_count) + " of " + std::to_string(n) +
          " items stuck)");
    }

    // Bandwidth is shared only among items that still demand memory:
    // device memory per timeline, the PCIe link across all of them.
    for (Lane& lane : lanes) lane.mem = 0;
    unsigned pcie_mem = 0;
    for (const std::size_t i : running)
      if (nodes[i].mem_left > kEps)
        ++(nodes[i].it->resource == Resource::kDeviceMemory
               ? lanes[nodes[i].tl].mem
               : pcie_mem);
    auto share_of = [&](const Node& nd) {
      return static_cast<double>(std::max(
          1u, nd.it->resource == Resource::kDeviceMemory ? lanes[nd.tl].mem
                                                         : pcie_mem));
    };

    // Next completion under the current bandwidth shares.
    double dt = std::numeric_limits<double>::infinity();
    for (const std::size_t i : running) {
      const Node& nd = nodes[i];
      const double share = share_of(nd);
      dt = std::min(dt, std::max(nd.comp_left, nd.mem_left * share));
      // Shares change when an item's memory demand drains, even if its
      // compute phase keeps running — that is also an event.
      if (nd.mem_left > kEps) dt = std::min(dt, nd.mem_left * share);
    }
    dt = std::max(dt, 0.0);

    // Advance everything by dt and retire finished items.
    for (const std::size_t i : held) fs.pcie_queue_s[nodes[i].tl] += dt;
    bool retired = false;
    for (const std::size_t i : running) {
      Node& nd = nodes[i];
      const double share = share_of(nd);
      nd.comp_left -= dt;
      nd.mem_left -= dt / share;
      if (nd.comp_left <= kEps && nd.mem_left <= kEps) {
        nd.done = true;
        fs.items[nd.tl][i - lanes[nd.tl].base].finish_s = t + dt;
        ++done_count;
        retired = true;
        --(nd.it->resource == Resource::kDeviceMemory ? lanes[nd.tl].running
                                                      : pcie_running);
      }
    }
    t += dt;
    if (retired) {
      running.erase(std::remove_if(running.begin(), running.end(),
                                   [&](std::size_t i) {
                                     return nodes[i].done;
                                   }),
                    running.end());
      for (Lane& lane : lanes)
        while (lane.done_prefix < lane.count &&
               nodes[lane.base + lane.done_prefix].done)
          ++lane.done_prefix;
    }
  }
  fs.makespan_s = t;
  return fs;
}

}  // namespace cusfft::cusim
