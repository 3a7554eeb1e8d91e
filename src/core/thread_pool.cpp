#include "core/thread_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace cusfft {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  // Worker 0 is the calling thread; spawn the rest.
  tasks_.resize(threads);
  for (std::size_t i = 1; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t idx) {
  std::size_t seen_generation = 0;
  for (;;) {
    Task task;
    {
      std::unique_lock lk(mu_);
      cv_work_.wait(lk, [&] {
        return stop_ || (generation_ != seen_generation &&
                         tasks_[idx].fn != nullptr);
      });
      if (stop_) return;
      seen_generation = generation_;
      task = tasks_[idx];
      tasks_[idx].fn = nullptr;
    }
    if (task.fn && task.begin < task.end) {
      try {
        (*task.fn)(idx, task.begin, task.end);
      } catch (...) {
        std::lock_guard lk(mu_);
        if (!error_) error_ = std::current_exception();
      }
    }
    {
      std::lock_guard lk(mu_);
      --pending_;
    }
    cv_done_.notify_one();
  }
}

std::size_t ThreadPool::chunks(std::size_t count) const {
  const std::size_t nthreads = tasks_.size();
  if (count <= 1 || nthreads <= 1) return count == 0 ? 0 : 1;
  const std::size_t chunk = (count + nthreads - 1) / nthreads;
  return (count + chunk - 1) / chunk;
}

void ThreadPool::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for_indexed(
      count, [&fn](std::size_t, std::size_t b, std::size_t e) { fn(b, e); });
}

void ThreadPool::parallel_for_indexed(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  const std::size_t nthreads = tasks_.size();
  if (count == 0) return;
  bool idle = false;
  if (nthreads <= 1 || count == 1 ||
      !busy_.compare_exchange_strong(idle, true, std::memory_order_acquire)) {
    fn(0, 0, count);
    return;
  }
  struct Release {
    std::atomic<bool>& busy;
    ~Release() { busy.store(false, std::memory_order_release); }
  } release{busy_};
  const std::size_t chunk = (count + nthreads - 1) / nthreads;
  std::size_t my_end = std::min(chunk, count);
  {
    std::lock_guard lk(mu_);
    pending_ = 0;
    error_ = nullptr;
    for (std::size_t i = 1; i < nthreads; ++i) {
      const std::size_t b = std::min(i * chunk, count);
      const std::size_t e = std::min(b + chunk, count);
      if (b >= e) {
        tasks_[i].fn = nullptr;
        continue;
      }
      tasks_[i] = Task{&fn, b, e};
      ++pending_;
    }
    ++generation_;
  }
  cv_work_.notify_all();
  try {
    fn(0, 0, my_end);  // chunk 0 on the calling thread
  } catch (...) {
    std::lock_guard lk(mu_);
    if (!error_) error_ = std::current_exception();
  }
  std::unique_lock lk(mu_);
  cv_done_.wait(lk, [&] { return pending_ == 0; });
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    lk.unlock();
    std::rethrow_exception(e);
  }
}

std::size_t parse_thread_count(const char* value) {
  if (value == nullptr || value[0] == '\0') return 0;  // hardware width
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(value, &end, 10);
  if (value[0] < '0' || value[0] > '9' || *end != '\0' || errno != 0 ||
      v < 1 || v > 512)
    throw std::invalid_argument(
        std::string("CUSFFT_THREADS: expected an integer in [1, 512], got '") +
        value + "'");
  return static_cast<std::size_t>(v);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(parse_thread_count(std::getenv("CUSFFT_THREADS")));
  return pool;
}

}  // namespace cusfft
