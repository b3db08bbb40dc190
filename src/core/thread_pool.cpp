#include "core/thread_pool.hpp"

#include <algorithm>

#include "obs/health.hpp"
#include "obs/trace.hpp"

namespace tzgeo::core {

namespace {

// Pool liveness: a chunk that wedges (deadlocked fn, runaway loop)
// shows up as in-flight work with a stale heartbeat.  10 s is generous
// — pipeline chunks complete in microseconds to milliseconds.
obs::Health::ComponentId pool_health() {
  static const obs::Health::ComponentId id =
      obs::Health::global().component("core.thread_pool", 10'000'000'000ull);
  return id;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    const std::size_t hardware = std::thread::hardware_concurrency();
    threads = hardware > 1 ? hardware - 1 : 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::drain(Job& job) {
  // Adopt the submitter's span so spans opened inside `fn` parent onto the
  // enclosing pipeline stage regardless of which thread runs the chunk.
  const obs::TraceContext::Scope trace_scope(job.trace_parent);
  for (;;) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.chunks) return;
    const std::size_t begin = c * job.chunk;
    const std::size_t end = std::min(begin + job.chunk, job.n);
    try {
      (*job.fn)(begin, end);
    } catch (...) {  // tzgeo-lint: allow(catch-style): exception_ptr capture for cross-thread rethrow
      // Stored on the job, not the pool: concurrent submitters each get
      // the first failure of their own job, never a neighbour's.
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!job.error) job.error = std::current_exception();
    }
    obs::Health::global().beat(pool_health());
    if (job.completed.fetch_add(1, std::memory_order_acq_rel) + 1 == job.chunks) {
      // Lock pairs with the waiter's predicate check so the final
      // notification cannot slip between its check and its sleep.
      const std::lock_guard<std::mutex> lock(mutex_);
      done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const std::shared_ptr<Job> job = job_;
    if (!job) continue;
    lock.unlock();
    drain(*job);
    lock.lock();
  }
}

void ThreadPool::for_chunks(std::size_t n, std::size_t max_chunks,
                            const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (max_chunks == 0) max_chunks = workers_.size() + 1;
  const std::size_t wanted = std::min(max_chunks, n);
  if (wanted <= 1 || workers_.empty()) {
    fn(0, n);
    return;
  }

  const obs::Health::WorkScope work(obs::Health::global(), pool_health());

  const auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->chunk = (n + wanted - 1) / wanted;
  job->chunks = (n + job->chunk - 1) / job->chunk;
  job->trace_parent = obs::TraceContext::current_span();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    ++generation_;
  }
  wake_.notify_all();

  drain(*job);  // the caller works too

  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [&] {
    return job->completed.load(std::memory_order_acquire) == job->chunks;
  });
  if (job_ == job) job_ = nullptr;
  if (job->error) {
    const std::exception_ptr error = job->error;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

std::size_t ThreadPool::shard_count(std::size_t threads) const noexcept {
  if (threads != 0) return threads;
  // On a single-core host size() + 1 == 2 would split a job into two
  // shards that time-share one core.
  const std::size_t hardware = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  return std::min(workers_.size() + 1, hardware);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace tzgeo::core
