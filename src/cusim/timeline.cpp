#include "cusim/timeline.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

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
  dirty_ = true;
}

void Timeline::clear_events() {
  events_.clear();
  // The cached makespan/schedule was computed for the pre-clear event set;
  // force the next simulate() to recompute rather than reuse it.
  dirty_ = true;
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
  dirty_ = true;
  return items_.size() - 1;
}

double Timeline::simulate() {
  if (!dirty_) return makespan_s_;
  const std::size_t n = items_.size();
  schedule_.assign(n, ItemSchedule{});
  if (n == 0) {
    dirty_ = false;
    makespan_s_ = 0.0;
    return 0.0;
  }

  constexpr double kEps = 1e-15;
  struct State {
    double mem_left = 0;
    double comp_left = 0;
    bool running = false;
    bool done = false;
  };
  std::vector<State> st(n);
  // Per-stream FIFO: index of the previous item on the same stream.
  std::vector<std::ptrdiff_t> prev(n, -1);
  {
    std::vector<std::pair<StreamId, std::size_t>> last;
    for (std::size_t i = 0; i < n; ++i) {
      st[i].mem_left = items_[i].mem_s;
      st[i].comp_left = items_[i].compute_s;
      for (auto& [sid, idx] : last)
        if (sid == items_[i].stream) {
          prev[i] = static_cast<std::ptrdiff_t>(idx);
          idx = i;
          goto linked;
        }
      last.emplace_back(items_[i].stream, i);
    linked:;
    }
  }

  double t = 0.0;
  std::size_t done_count = 0;
  // The event loop only ever touches items that are not yet done: `alive`
  // holds them in ascending index order (compacted after each retire), and
  // `done_prefix` is the first not-done index — "all of [0, after) done"
  // becomes one comparison. Scheduling decisions are evaluated in the same
  // ascending-index order as the full scan this replaced, so the schedule
  // is bit-identical; only the per-step cost drops from O(n) to O(alive).
  std::vector<std::size_t> alive(n);
  for (std::size_t i = 0; i < n; ++i) alive[i] = i;
  std::size_t done_prefix = 0;
  unsigned dev_running = 0, pcie_running = 0;
  while (done_count < n) {
    // Start every eligible item (stream predecessor finished), respecting
    // the concurrent-kernel cap for device work.
    for (const std::size_t i : alive) {
      if (st[i].running) continue;
      if (prev[i] >= 0 && !st[static_cast<std::size_t>(prev[i])].done)
        continue;
      if (items_[i].after > done_prefix) continue;  // barrier window open
      bool deps_clear = true;
      for (const std::size_t d : items_[i].deps)
        if (d < n && !st[d].done) {
          deps_clear = false;
          break;
        }
      if (!deps_clear) continue;
      if (items_[i].resource == Resource::kDeviceMemory) {
        if (dev_running >= max_kernels_) continue;
        ++dev_running;
      } else {
        ++pcie_running;
      }
      st[i].running = true;
      schedule_[i].start_s = t;
    }

    // Bandwidth is shared only among items that still demand memory.
    unsigned dev_mem = 0, pcie_mem = 0;
    for (const std::size_t i : alive)
      if (st[i].running && st[i].mem_left > kEps)
        (items_[i].resource == Resource::kDeviceMemory ? dev_mem
                                                       : pcie_mem)++;

    // Next completion under the current bandwidth shares.
    double dt = std::numeric_limits<double>::infinity();
    for (const std::size_t i : alive) {
      if (!st[i].running) continue;
      const double share =
          items_[i].resource == Resource::kDeviceMemory
              ? static_cast<double>(std::max(1u, dev_mem))
              : static_cast<double>(std::max(1u, pcie_mem));
      const double fin = std::max(st[i].comp_left, st[i].mem_left * share);
      dt = std::min(dt, fin);
      // Shares change when an item's memory demand drains, even if its
      // compute phase keeps running — that is also an event.
      if (st[i].mem_left > kEps) dt = std::min(dt, st[i].mem_left * share);
    }
    if (!std::isfinite(dt)) {
      // Nothing is runnable yet items remain (a cyclic or self dependency
      // in hand-built items): breaking would under-report the makespan.
      throw std::runtime_error(
          "Timeline::simulate: deadlock — " +
          std::to_string(n - done_count) + " of " + std::to_string(n) +
          " items can never start (unsatisfiable dependencies)");
    }
    dt = std::max(dt, 0.0);

    // Advance everything by dt and retire finished items.
    bool retired = false;
    for (const std::size_t i : alive) {
      if (!st[i].running) continue;
      const double share =
          items_[i].resource == Resource::kDeviceMemory
              ? static_cast<double>(std::max(1u, dev_mem))
              : static_cast<double>(std::max(1u, pcie_mem));
      st[i].comp_left -= dt;
      st[i].mem_left -= dt / share;
      if (st[i].comp_left <= kEps && st[i].mem_left <= kEps) {
        st[i].running = false;
        st[i].done = true;
        schedule_[i].finish_s = t + dt;
        ++done_count;
        retired = true;
        (items_[i].resource == Resource::kDeviceMemory ? dev_running
                                                       : pcie_running)--;
      }
    }
    t += dt;
    if (retired) {
      alive.erase(std::remove_if(alive.begin(), alive.end(),
                                 [&](std::size_t i) { return st[i].done; }),
                  alive.end());
      while (done_prefix < n && st[done_prefix].done) ++done_prefix;
    }
  }
  dirty_ = false;
  makespan_s_ = t;
  return t;
}

}  // namespace cusfft::cusim
