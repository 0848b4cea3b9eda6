#pragma once

/// \file thread_pool.hpp
/// Fixed-size worker pool with a fork-join parallel_for.  Used by the
/// tensor kernels for intra-op parallelism and by the data loader for
/// prefetch workers.  On a single-core host the pool still provides the
/// concurrency structure (overlapping simulated I/O with compute) even
/// though it cannot provide speedup.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "util/function_ref.hpp"

namespace coastal::par {

/// Thread-count override from the `COASTAL_NUM_THREADS` env var; 0 when
/// unset or unparsable.  Shared by ThreadPool::global() sizing and the
/// tensor kernels' chunking decisions so the two never drift.
int env_thread_override();

class ThreadPool {
 public:
  /// `num_threads == 0` selects hardware_concurrency (min 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const;

  /// Re-size the worker pool in place: drains the queue, joins the old
  /// workers, and spawns `num_threads` fresh ones (0 re-reads
  /// `COASTAL_NUM_THREADS`, falling back to hardware_concurrency) — so a
  /// long-lived server can re-size kernel parallelism per deployment
  /// without a process restart.  Tasks already queued complete under the
  /// old workers before the swap; tasks submitted concurrently with the
  /// resize land on whichever generation's queue is open and are never
  /// lost.  Must not be called from inside a worker (the joining thread
  /// would deadlock on itself); concurrent resize() calls serialize.
  void resize(size_t num_threads);

  /// Enqueue a task; returns a future for its completion.
  std::future<void> submit(std::function<void()> fn);

  /// Run fn(chunk_begin, chunk_end) over [begin, end) split into
  /// contiguous chunks, and return once every chunk has run.
  ///
  /// Fork-join on the caller's stack: the call wakes at most
  /// min(nchunks - 1, size()) workers with lightweight tickets, then runs
  /// chunks itself; every runner claims the next chunk index from one
  /// atomic counter.  When none are left the caller withdraws the tickets
  /// no worker picked up and waits only for helpers already inside the
  /// job.  A dispatch allocates nothing, and it completes even when every
  /// worker is busy (the caller then runs all chunks).
  ///
  /// Chunk c covers [begin + c·ceil(n/nchunks), ...) whichever thread
  /// runs it, so a body that keeps each index's work inside its chunk
  /// writes the same bytes at any pool size.  `nchunks == 0` picks ~4×
  /// the worker count — oversubscription smooths load imbalance on ragged
  /// iterations.  Exception-safe: every chunk still runs if one throws,
  /// and the first exception is rethrown after the join.  While the
  /// caller runs chunks it counts as in_worker(), and a call made from
  /// inside any pool's chunk or task runs the range inline — blocking a
  /// worker on its own pool could deadlock.
  void parallel_for(size_t begin, size_t end,
                    util::FunctionRef<void(size_t, size_t)> fn,
                    size_t nchunks = 0);

  /// True while the calling thread is one of *any* ThreadPool's workers,
  /// or is running chunks of its own parallel_for call.  Compute kernels
  /// use this to refuse nested parallelism.
  static bool in_worker();

  /// Process-wide shared pool (lazily constructed).  Sized by the
  /// `COASTAL_NUM_THREADS` env var when set, else hardware concurrency.
  static ThreadPool& global();

 private:
  struct ForkJoin;

  void worker_loop();
  void spawn_locked(size_t num_threads);

  mutable std::mutex mutex_;
  std::mutex resize_mutex_;  ///< serializes resize(); never held by workers
  std::vector<std::thread> workers_;
  /// submit()ted tasks, FIFO.
  std::deque<std::packaged_task<void()>> queue_;
  /// Helper tickets of in-flight parallel_for calls, one entry per worker
  /// invited.  Capacity is retained, so steady-state dispatch never
  /// allocates; a caller erases its own unclaimed entries before it
  /// returns, so no entry outlives its job.
  std::vector<ForkJoin*> tickets_;
  std::condition_variable cv_;       ///< workers: work arrived or stop_
  std::condition_variable join_cv_;  ///< callers: a job's helpers left
  bool stop_ = false;
  /// Queued-but-unclaimed task + ticket count, readable without the
  /// mutex: idle workers spin on it briefly before parking on the
  /// condition variable, so back-to-back parallel_for calls (the serving
  /// steady state) reach warm workers without paying a futex wake.
  std::atomic<int64_t> pending_{0};
  std::atomic<size_t> size_{0};  ///< == workers_.size(); lock-free for size()
};

}  // namespace coastal::par
