// Minimal work-sharing thread pool with a blocking parallel_for. Stands in
// for OpenMP worksharing in the CPU comparators (parallel FFTW / PsFFT) and
// runs the signal lanes of a simulated-GPU batch (cusim::Device's pool): the
// decomposition is the same static chunking `#pragma omp parallel for` uses.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cusfft {

/// Parses a CUSFFT_THREADS value: null or empty means the hardware width
/// (returns 0); an integer in [1, 512] is the width. Anything else throws
/// std::invalid_argument naming the variable and the value.
std::size_t parse_thread_count(const char* value);

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of logical workers (including the calling thread).
  std::size_t size() const { return tasks_.size(); }

  /// Number of non-empty chunks parallel_for splits `count` items into:
  /// the slots [0, chunks(count)) a parallel_for_indexed call may use.
  std::size_t chunks(std::size_t count) const;

  /// Runs fn(begin, end) over [0, count) split into one contiguous chunk per
  /// worker (static schedule), blocking until every chunk completes. The
  /// calling thread executes chunk 0 itself. The first exception thrown by
  /// any chunk is rethrown on the calling thread after all chunks finish.
  ///
  /// Any number of threads may submit at once, workers included: while one
  /// call holds the workers, every other call runs its whole range inline
  /// as slot 0, so a caller whose results do not depend on the split gets
  /// the same results either way.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Same decomposition, but fn also receives the chunk slot in
  /// [0, chunks(count)) so callers can keep per-worker state without
  /// sharing.
  void parallel_for_indexed(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

  /// Process-wide pool (created on first use), sized by
  /// parse_thread_count(getenv("CUSFFT_THREADS")). CUSFFT_THREADS=1 runs
  /// every batch on one lane — the serial program.
  static ThreadPool& global();

 private:
  struct Task {
    const std::function<void(std::size_t, std::size_t, std::size_t)>* fn =
        nullptr;
    std::size_t begin = 0, end = 0;
  };

  void worker_loop(std::size_t idx);

  std::vector<std::thread> workers_;
  std::atomic<bool> busy_{false};  // a call holds the workers
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<Task> tasks_;     // one slot per worker
  std::size_t pending_ = 0;     // tasks not yet finished in this batch
  std::size_t generation_ = 0;  // bumped per parallel_for call
  std::exception_ptr error_;    // first failure in the current batch
  bool stop_ = false;
};

}  // namespace cusfft
