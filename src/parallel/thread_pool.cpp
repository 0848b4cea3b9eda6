#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>

#include "util/check.hpp"

namespace coastal::par {

namespace {
thread_local bool t_in_worker = false;

/// Bounded spin before a thread parks on a condition variable: an idle
/// worker waiting for tickets, or a caller waiting for its helpers.  Sized
/// to cover the gap between consecutive parallel_for dispatches of a
/// steady-state serving loop (~0.1 ms of sched_yield calls on a 4-vCPU
/// x86 host) without burning a core when the pool is genuinely idle.  The
/// spin yields rather than pauses: the pool's workers plus the caller
/// outnumber the cores, and a spinning thread that keeps its core would
/// starve the thread that holds the work.
constexpr int kSpinIters = 400;

}  // namespace

int env_thread_override() {
  const char* e = std::getenv("COASTAL_NUM_THREADS");
  if (!e || !*e) return 0;
  const long v = std::strtol(e, nullptr, 10);
  return v > 0 ? static_cast<int>(v) : 0;
}

ThreadPool::ThreadPool(size_t num_threads) {
  std::lock_guard<std::mutex> lock(mutex_);
  spawn_locked(num_threads);
}

void ThreadPool::spawn_locked(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  size_.store(workers_.size(), std::memory_order_relaxed);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

size_t ThreadPool::size() const {
  return size_.load(std::memory_order_relaxed);
}

void ThreadPool::resize(size_t num_threads) {
  COASTAL_CHECK_MSG(!in_worker(),
                    "ThreadPool::resize() called from a pool worker");
  std::lock_guard<std::mutex> resize_lock(resize_mutex_);
  // 0 re-reads the env override *now* (unlike the constructor, which is
  // also reached at static-init time before a deployment could set it),
  // falling back to hardware concurrency via spawn_locked.
  if (num_threads == 0) {
    num_threads = static_cast<size_t>(env_thread_override());
  }
  // Retire the current generation: workers drain the queue (stop_ only
  // exits a worker once the queue is empty), then join.
  std::vector<std::thread> old;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    old.swap(workers_);
  }
  cv_.notify_all();
  for (auto& w : old) w.join();
  // Spawn the new generation.  A submit() racing this window simply lands
  // on the queue and is picked up by the fresh workers.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = false;
    spawn_locked(num_threads);
  }
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  auto fut = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  cv_.notify_one();
  return fut;
}

/// One parallel_for call, on the caller's stack.  Workers reach it through
/// tickets; the caller withdraws the unclaimed ones and waits for
/// `helpers` to drop to zero before the frame unwinds.
struct ThreadPool::ForkJoin {
  util::FunctionRef<void(size_t, size_t)> fn;
  size_t begin, end, chunk, nchunks;
  std::atomic<size_t> next{0};      ///< next unclaimed chunk index
  std::atomic<int> helpers{0};      ///< workers holding a ticket of this job
  std::atomic<bool> failed{false};  ///< first thrower owns `error`
  std::exception_ptr error{};

  /// Claim and run chunks until none are left.  A throwing chunk records
  /// the first exception and the runner moves on, so every chunk runs.
  void run() noexcept {
    for (;;) {
      const size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= nchunks) return;
      const size_t lo = begin + c * chunk;
      try {
        fn(lo, std::min(end, lo + chunk));
      } catch (...) {
        if (!failed.exchange(true, std::memory_order_relaxed))
          error = std::current_exception();
      }
    }
  }
};

void ThreadPool::parallel_for(size_t begin, size_t end,
                              util::FunctionRef<void(size_t, size_t)> fn,
                              size_t nchunks) {
  if (begin >= end) return;
  const size_t n = end - begin;
  if (in_worker()) {
    // A worker waiting on its own pool can deadlock (all workers blocked
    // on chunks nobody is left to run); degrade to inline.
    fn(begin, end);
    return;
  }
  if (nchunks == 0) nchunks = 4 * size();
  nchunks = std::min(n, nchunks);
  if (nchunks <= 1 || size() == 0) {
    fn(begin, end);
    return;
  }
  const size_t chunk = (n + nchunks - 1) / nchunks;
  ForkJoin job{fn, begin, end, chunk, (n + chunk - 1) / chunk};

  const size_t invited = std::min(job.nchunks - 1, size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tickets_.insert(tickets_.end(), invited, &job);
  }
  pending_.fetch_add(static_cast<int64_t>(invited), std::memory_order_release);
  for (size_t i = 0; i < invited; ++i) cv_.notify_one();

  // The caller runs chunks as a worker would, so kernels nested in its
  // chunks stay inline exactly as they do on a pool worker.
  t_in_worker = true;
  job.run();
  t_in_worker = false;

  // No chunk is left to claim.  Withdraw the tickets nobody took, then
  // wait for the helpers that did: they may still be inside a chunk, and
  // they read `job` until they leave.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const size_t withdrawn = std::erase(tickets_, &job);
    pending_.fetch_sub(static_cast<int64_t>(withdrawn),
                       std::memory_order_relaxed);
  }
  for (int i = 0;
       i < kSpinIters && job.helpers.load(std::memory_order_acquire) != 0;
       ++i) {
    std::this_thread::yield();
  }
  if (job.helpers.load(std::memory_order_acquire) != 0) {
    std::unique_lock<std::mutex> lock(mutex_);
    join_cv_.wait(lock, [&job] {
      return job.helpers.load(std::memory_order_acquire) == 0;
    });
  }
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::worker_loop() {
  t_in_worker = true;
  for (;;) {
    std::packaged_task<void()> task;
    ForkJoin* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!stop_ && queue_.empty() && tickets_.empty()) {
        // Warm path: spin briefly off-lock watching the pending counter
        // before parking, so the next call's tickets are picked up without
        // a futex wake.  stop_ is checked again under the lock below.
        lock.unlock();
        for (int i = 0;
             i < kSpinIters && pending_.load(std::memory_order_acquire) == 0;
             ++i) {
          std::this_thread::yield();
        }
        lock.lock();
      }
      cv_.wait(lock, [this] {
        return stop_ || !queue_.empty() || !tickets_.empty();
      });
      if (!tickets_.empty()) {
        // A ticket's caller is running chunks right now; join it first.
        job = tickets_.back();
        tickets_.pop_back();
        job->helpers.fetch_add(1, std::memory_order_relaxed);
      } else if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop_front();
      } else {
        return;  // stop_ with nothing queued
      }
      pending_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (job) {
      job->run();
      // Last touch of `job`: once `helpers` reads zero its caller may
      // return.  The wake-up goes through the pool's own mutex and
      // condition variable, which outlive every call.
      if (job->helpers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mutex_);
        join_cv_.notify_all();
      }
    } else {
      task();
    }
  }
}

bool ThreadPool::in_worker() { return t_in_worker; }

ThreadPool& ThreadPool::global() {
  // 0 (no override) → hardware concurrency, per the constructor contract.
  static ThreadPool pool(static_cast<size_t>(env_thread_override()));
  return pool;
}

}  // namespace coastal::par
