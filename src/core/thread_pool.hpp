// A persistent pool of worker threads executing chunked index ranges.
//
// Crowd placement used to spawn and join fresh std::threads on every
// call; at production call rates (polish rounds, bootstrap refits,
// per-forum investigations, dossier batches) thread start-up dominated the
// actual work.  The pool parks its workers on a condition variable between
// jobs, so entering a parallel region costs two notifications instead of N
// clone() calls.
//
// Scheduling is dynamic — idle workers claim the next unclaimed chunk from
// a shared atomic counter — but every index is processed exactly once and
// callers write results by index, so the output of a well-formed job is
// independent of thread count and scheduling order.  This is what keeps
// the pooled crowd sweep bit-identical to its single-threaded run.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tzgeo::core {

class ThreadPool {
 public:
  /// `threads == 0` sizes the pool to the hardware concurrency minus one
  /// (the caller participates in every job, so a job saturates the
  /// machine without oversubscribing it).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker thread count.  Up to size() + 1 threads run a job, because the
  /// calling thread works too.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Splits [0, n) into at most `max_chunks` contiguous ranges and runs
  /// `fn(begin, end)` for every range across the workers, with the calling
  /// thread participating.  Blocks until all ranges complete.  The first
  /// exception thrown by `fn` is rethrown here after the job drains.
  /// `max_chunks == 0` picks one chunk per available thread.
  void for_chunks(std::size_t n, std::size_t max_chunks,
                  const std::function<void(std::size_t, std::size_t)>& fn);

  /// Shards for a job capped at `threads`: `threads` itself, or for 0 one
  /// per available thread (the workers plus the caller), but never more
  /// than the machine has cores.  Always at least 1.
  [[nodiscard]] std::size_t shard_count(std::size_t threads) const noexcept;

  /// The process-wide pool shared by the parallel pipeline stages
  /// (placement, flat filter, dossiers, bootstrap).  Created lazily on
  /// first use and kept alive for the process lifetime.
  static ThreadPool& global();

 private:
  /// One parallel region.  Heap-allocated and shared so a worker that
  /// wakes late (or finishes last) can never race a subsequent job's
  /// setup: stragglers hold their own reference and see the chunk counter
  /// already exhausted.
  struct Job {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t chunk = 0;          ///< indices per range
    std::size_t chunks = 0;         ///< total ranges
    std::uint64_t trace_parent = 0; ///< submitter's current span (0 = none)
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::exception_ptr error;       ///< first failure; guarded by the pool mutex
  };

  void worker_loop();
  /// Claims and runs chunks until the job is exhausted.
  void drain(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::shared_ptr<Job> job_;      ///< guarded by mutex_
  std::uint64_t generation_ = 0;  ///< guarded by mutex_
  bool stop_ = false;             ///< guarded by mutex_
};

}  // namespace tzgeo::core
