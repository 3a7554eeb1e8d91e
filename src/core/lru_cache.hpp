// A thread-safe LRU map of immutable shared values, bounded by a total cost:
// the flat-filter cache counts entries (cost 1 each) and the host FFT plan
// cache counts bytes. Values are built outside the lock. When two threads
// miss on the same key at once, both build and the first to insert wins, so
// every caller that gets a retained value gets the same object.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>

#include "core/types.hpp"

namespace cusfft {

struct LruStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t entries = 0;
  std::size_t cost = 0;  // summed cost of the retained entries
};

template <class Key, class Value>
class LruCache {
 public:
  using CostFn = std::size_t (*)(const Value&);

  LruCache(std::size_t capacity, CostFn cost)
      : capacity_(capacity), cost_(cost) {}

  /// The retained value for `key`; on a miss, make() builds one outside the
  /// lock. Least-recently-used entries are evicted until the new value fits
  /// the capacity; a value that costs more than the whole capacity is
  /// returned without being retained.
  template <class Make>
  std::shared_ptr<const Value> get(const Key& key, Make&& make) {
    {
      std::lock_guard lk(mu_);
      if (auto it = entries_.find(key); it != entries_.end()) {
        ++hits_;
        it->second.tick = ++tick_;
        return it->second.value;
      }
      ++misses_;
    }
    std::shared_ptr<const Value> value = make();
    const std::size_t cost = cost_(*value);
    std::lock_guard lk(mu_);
    if (auto it = entries_.find(key); it != entries_.end()) {
      it->second.tick = ++tick_;
      return it->second.value;
    }
    if (cost > capacity_) return value;
    while (total_ + cost > capacity_) evict_lru();
    entries_.emplace(key, Entry{value, cost, ++tick_});
    total_ += cost;
    return value;
  }

  LruStats stats() const {
    std::lock_guard lk(mu_);
    return {hits_, misses_, entries_.size(), total_};
  }

  void clear() {
    std::lock_guard lk(mu_);
    entries_.clear();
    total_ = 0;
  }

 private:
  struct Entry {
    std::shared_ptr<const Value> value;
    std::size_t cost = 0;
    u64 tick = 0;  // last use
  };

  void evict_lru() {
    auto lru = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it)
      if (it->second.tick < lru->second.tick) lru = it;
    total_ -= lru->second.cost;
    entries_.erase(lru);
  }

  const std::size_t capacity_;
  const CostFn cost_;
  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  std::size_t total_ = 0;
  u64 tick_ = 0;
  std::size_t hits_ = 0, misses_ = 0;
};

}  // namespace cusfft
