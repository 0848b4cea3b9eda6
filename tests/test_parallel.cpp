/// Unit tests for the message-passing substrate: thread pool,
/// communicator (point-to-point + collectives), Cartesian decomposition,
/// and halo exchange.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <new>
#include <numeric>
#include <string>
#include <thread>

#include "parallel/communicator.hpp"
#include "parallel/decomposition.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernels.hpp"
#include "test_helpers.hpp"

namespace par = coastal::par;

// ---------------------------------------------------------------------------
// operator new counting hook.  alloc_stats() sees tensor Storage only; this
// sees every C++ heap allocation made by any thread while `g_count_news` is
// set, which is what a zero-allocation dispatch has to be pinned against.
// ---------------------------------------------------------------------------

namespace {
std::atomic<bool> g_count_news{false};
std::atomic<int64_t> g_news{0};

void* counted_new(std::size_t n) {
  if (g_count_news.load(std::memory_order_relaxed))
    g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

/// operator new calls made by every thread while `fn` runs.
template <typename Fn>
int64_t news_during(Fn&& fn) {
  g_news = 0;
  g_count_news = true;
  fn();
  g_count_news = false;
  return g_news.load();
}
}  // namespace

// Every non-aligned form is replaced, so each block is malloc'd and free'd
// by this pair whichever form a library call uses (sanitizer runtimes
// check that allocation and release functions match).
void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  par::ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 20; ++i)
    futs.push_back(pool.submit([&] { counter.fetch_add(1); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  par::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  par::ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForOversubscribesChunks) {
  par::ThreadPool pool(2);
  std::atomic<int> chunks{0};
  pool.parallel_for(0, 1000, [&](size_t, size_t) { chunks.fetch_add(1); });
  // Default chunking targets ~4x the worker count for load balance.
  EXPECT_GT(chunks.load(), 2);
  // An explicit chunk hint is honored.
  chunks = 0;
  pool.parallel_for(0, 1000,
                    [&](size_t, size_t) { chunks.fetch_add(1); }, 5);
  EXPECT_EQ(chunks.load(), 5);
}

TEST(ThreadPool, ParallelForPropagatesExceptionAndStaysUsable) {
  par::ThreadPool pool(3);
  // A throw in one chunk must not leak the other chunks' futures or wedge
  // the pool; the first exception is rethrown after all chunks finish.
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(0, 12,
                        [&](size_t lo, size_t) {
                          if (lo == 0) throw std::runtime_error("chunk 0");
                          completed.fetch_add(1);
                        },
                        12),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 11);
  // Pool still works afterwards.
  std::atomic<int> counter{0};
  pool.parallel_for(0, 50, [&](size_t lo, size_t hi) {
    counter.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  par::ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(0, 4, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      EXPECT_TRUE(par::ThreadPool::in_worker());
      // Would deadlock if this blocked on the same pool's queue.
      pool.parallel_for(0, 10, [&](size_t l, size_t h) {
        inner_total.fetch_add(static_cast<int>(h - l));
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 40);
}

TEST(ThreadPool, ResizeSwapsWorkerGenerationsSafely) {
  par::ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  // Queue work, then resize mid-flight: nothing may be lost — queued
  // tasks drain under the old generation or the new one.
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 16; ++i)
    futs.push_back(pool.submit([&] { counter.fetch_add(1); }));
  pool.resize(3);
  EXPECT_EQ(pool.size(), 3u);
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 16);
  // The fresh generation serves parallel_for as usual.
  std::atomic<int> sum{0};
  pool.parallel_for(0, 100, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 4950);
  pool.resize(1);
  EXPECT_EQ(pool.size(), 1u);
  pool.parallel_for(0, 10, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) sum.fetch_add(1);
  });
  EXPECT_EQ(sum.load(), 4960);
}

TEST(ThreadPool, ResizeZeroRereadsEnvOverride) {
  // resize(0) re-reads COASTAL_NUM_THREADS at resize time — the
  // deployment-sizing path servers use — instead of the value cached at
  // process start.
  const char* saved = std::getenv("COASTAL_NUM_THREADS");
  const std::string saved_copy = saved ? saved : "";
  setenv("COASTAL_NUM_THREADS", "3", 1);
  par::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  pool.resize(0);
  EXPECT_EQ(pool.size(), 3u);
  if (saved) {
    setenv("COASTAL_NUM_THREADS", saved_copy.c_str(), 1);
  } else {
    unsetenv("COASTAL_NUM_THREADS");
  }
}

/// Occupies every worker of a pool with a submit()ted task that blocks
/// until release(), so a parallel_for on that pool gets no helper.
class BlockedWorkers {
 public:
  explicit BlockedWorkers(par::ThreadPool& pool) {
    for (size_t i = 0; i < pool.size(); ++i)
      futs_.push_back(pool.submit([this] {
        std::unique_lock<std::mutex> lock(mu_);
        ++started_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
      }));
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return started_ == futs_.size(); });
  }
  ~BlockedWorkers() { release(); }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
    for (auto& f : futs_)
      if (f.valid()) f.get();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t started_ = 0;
  bool released_ = false;
  std::vector<std::future<void>> futs_;
};

TEST(ThreadPool, ParallelForCompletesWhileEveryWorkerIsBusy) {
  // The caller runs chunks itself, so a dispatch needs no free worker.
  par::ThreadPool pool(2);
  BlockedWorkers blocked(pool);
  std::vector<std::atomic<int>> hits(100);
  std::atomic<int> foreign_chunks{0};
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(
      0, 100,
      [&](size_t lo, size_t hi) {
        if (std::this_thread::get_id() != caller) foreign_chunks.fetch_add(1);
        for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      8);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(foreign_chunks.load(), 0);
  blocked.release();
  // The released workers find no stale ticket and serve the next call.
  std::atomic<int> total{0};
  pool.parallel_for(0, 64, [&](size_t lo, size_t hi) {
    total.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, CallerChunksCountAsWorkerAndNestInline) {
  par::ThreadPool pool(1);
  BlockedWorkers blocked(pool);  // every chunk below runs on the caller
  EXPECT_FALSE(par::ThreadPool::in_worker());
  std::atomic<int> chunks{0}, nested_calls{0};
  pool.parallel_for(
      0, 4,
      [&](size_t, size_t) {
        chunks.fetch_add(1);
        EXPECT_TRUE(par::ThreadPool::in_worker());
        // Nested: one inline call over the whole range, on this thread.
        const auto self = std::this_thread::get_id();
        pool.parallel_for(
            0, 10,
            [&](size_t l, size_t h) {
              EXPECT_EQ(l, 0u);
              EXPECT_EQ(h, 10u);
              EXPECT_EQ(std::this_thread::get_id(), self);
              nested_calls.fetch_add(1);
            },
            5);
      },
      4);
  EXPECT_EQ(chunks.load(), 4);
  EXPECT_EQ(nested_calls.load(), 4);
  EXPECT_FALSE(par::ThreadPool::in_worker());
}

TEST(ThreadPool, ConcurrentCallersEachCoverTheirOwnRangeOnce) {
  // Three non-pool threads share one pool.  Each call's tickets must only
  // ever run that call's chunks, and withdrawing one caller's unclaimed
  // tickets must leave the others' in place.
  par::ThreadPool pool(4);
  constexpr int kCallers = 3, kRounds = 200;
  constexpr size_t kN = 257;
  std::atomic<int> bad{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::vector<std::atomic<int>> hits(kN);
      for (int r = 0; r < kRounds; ++r) {
        for (auto& h : hits) h.store(0, std::memory_order_relaxed);
        pool.parallel_for(
            0, kN,
            [&](size_t lo, size_t hi) {
              for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
            },
            static_cast<size_t>(4 + (r + c) % 13));
        for (auto& h : hits)
          if (h.load() != 1) bad.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPool, ParallelForDispatchAllocatesNothing) {
  par::ThreadPool pool(4);
  std::atomic<size_t> covered{0};
  auto body = [&](size_t lo, size_t hi) { covered.fetch_add(hi - lo); };
  for (int i = 0; i < 8; ++i) pool.parallel_for(0, 1024, body, 16);  // warm
  covered = 0;
  const int64_t news = news_during([&] {
    for (int i = 0; i < 100; ++i) pool.parallel_for(0, 1024, body, 16);
  });
  EXPECT_EQ(news, 0);
  EXPECT_EQ(covered.load(), 100u * 1024u);
}

TEST(ThreadPool, FusedHeadTileGemmAllocatesNothing) {
  // The fused patch-recovery head's tile GEMM: [256, 8] x [8, 3].
  namespace ker = coastal::tensor::kernels;
  coastal::testing::KernelConfigOverride guard;
  const size_t saved_pool = par::ThreadPool::global().size();
  ker::config().num_threads = 4;
  par::ThreadPool::global().resize(4);
  constexpr int64_t m = 256, k = 8, n = 3;
  std::vector<float> a(m * k), b(k * n), c(m * n, 0.0f);
  for (size_t i = 0; i < a.size(); ++i) a[i] = 0.01f * static_cast<float>(i % 97);
  for (size_t i = 0; i < b.size(); ++i) b[i] = 0.1f * static_cast<float>(i);
  for (int i = 0; i < 4; ++i) ker::gemm(a.data(), b.data(), c.data(), m, k, n);
  const int64_t news = news_during([&] {
    for (int i = 0; i < 50; ++i)
      ker::gemm(a.data(), b.data(), c.data(), m, k, n);
  });
  EXPECT_EQ(news, 0);
  par::ThreadPool::global().resize(saved_pool);
}

TEST(Communicator, PointToPointDelivery) {
  par::World world(3);
  world.run([](par::Comm& comm) {
    // Ring: send rank id to the right, receive from the left.
    std::vector<float> payload{static_cast<float>(comm.rank())};
    comm.send((comm.rank() + 1) % comm.size(), /*tag=*/7, payload);
    std::vector<float> got(1);
    comm.recv((comm.rank() + comm.size() - 1) % comm.size(), 7, got);
    EXPECT_FLOAT_EQ(got[0],
                    static_cast<float>((comm.rank() + comm.size() - 1) %
                                       comm.size()));
  });
}

TEST(Communicator, TagsKeepMessagesApart) {
  par::World world(2);
  world.run([](par::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, std::vector<float>{1.0f});
      comm.send(1, 2, std::vector<float>{2.0f});
    } else {
      // Receive in the opposite order of sending: tags must disambiguate.
      std::vector<float> a(1), b(1);
      comm.recv(0, 2, a);
      comm.recv(0, 1, b);
      EXPECT_FLOAT_EQ(a[0], 2.0f);
      EXPECT_FLOAT_EQ(b[0], 1.0f);
    }
  });
}

TEST(Communicator, MessagesWithSameTagStayOrdered) {
  par::World world(2);
  world.run([](par::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i)
        comm.send(1, 3, std::vector<float>{static_cast<float>(i)});
    } else {
      std::vector<float> got(1);
      for (int i = 0; i < 10; ++i) {
        comm.recv(0, 3, got);
        EXPECT_FLOAT_EQ(got[0], static_cast<float>(i));
      }
    }
  });
}

TEST(Communicator, AllreduceSumsAcrossRanks) {
  par::World world(4);
  world.run([](par::Comm& comm) {
    std::vector<float> x{static_cast<float>(comm.rank() + 1), 10.0f};
    comm.allreduce_sum(x);
    EXPECT_FLOAT_EQ(x[0], 1 + 2 + 3 + 4);
    EXPECT_FLOAT_EQ(x[1], 40.0f);
  });
}

TEST(Communicator, AllreduceMax) {
  par::World world(3);
  world.run([](par::Comm& comm) {
    std::vector<float> x{static_cast<float>(-comm.rank()),
                         static_cast<float>(comm.rank())};
    comm.allreduce_max(x);
    EXPECT_FLOAT_EQ(x[0], 0.0f);
    EXPECT_FLOAT_EQ(x[1], 2.0f);
  });
}

TEST(Communicator, RepeatedCollectivesStayConsistent) {
  // Regression guard for the shared-buffer collective implementation:
  // many back-to-back collectives must not bleed into each other.
  par::World world(4);
  world.run([](par::Comm& comm) {
    for (int round = 0; round < 25; ++round) {
      std::vector<float> x{static_cast<float>(comm.rank() + round)};
      comm.allreduce_sum(x);
      ASSERT_FLOAT_EQ(x[0], static_cast<float>(6 + 4 * round));
    }
  });
}

TEST(Communicator, BroadcastFromEveryRoot) {
  par::World world(3);
  world.run([](par::Comm& comm) {
    for (int root = 0; root < comm.size(); ++root) {
      std::vector<float> x{comm.rank() == root
                               ? static_cast<float>(100 + root)
                               : -1.0f};
      comm.broadcast(root, x);
      ASSERT_FLOAT_EQ(x[0], static_cast<float>(100 + root));
    }
  });
}

TEST(Communicator, GatherCollectsRankMajor) {
  par::World world(3);
  world.run([](par::Comm& comm) {
    std::vector<float> local{static_cast<float>(comm.rank() * 2),
                             static_cast<float>(comm.rank() * 2 + 1)};
    std::vector<float> out;
    comm.gather(0, local, out);
    if (comm.rank() == 0) {
      ASSERT_EQ(out.size(), 6u);
      for (int i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(out[static_cast<size_t>(i)], i);
    } else {
      EXPECT_TRUE(out.empty());
    }
  });
}

TEST(Communicator, ExceptionsPropagateToCaller) {
  par::World world(2);
  EXPECT_THROW(world.run([](par::Comm& comm) {
    if (comm.rank() == 1) throw std::runtime_error("rank 1 failed");
    // rank 0 returns without collectives: a rank that throws never
    // reaches a barrier, so surviving ranks must not wait on one.
  }),
               std::runtime_error);
}

TEST(Decomposition, ChooseGridPrefersSquareTiles) {
  auto [px, py] = par::choose_grid(4, 100, 100);
  EXPECT_EQ(px * py, 4);
  EXPECT_EQ(px, 2);
  EXPECT_EQ(py, 2);
  // Elongated domain: more tiles along the long axis.
  auto [qx, qy] = par::choose_grid(4, 400, 100);
  EXPECT_EQ(qx * qy, 4);
  EXPECT_GT(qx, qy);
}

TEST(Decomposition, TilesPartitionTheDomain) {
  const int nx = 37, ny = 23, px = 3, py = 2;
  std::vector<int> owner(static_cast<size_t>(nx) * ny, -1);
  for (int r = 0; r < px * py; ++r) {
    auto t = par::make_tile(r, px, py, nx, ny, 1);
    EXPECT_EQ(t.cx + t.cy * px, r);
    for (int y = t.y0; y < t.y1; ++y)
      for (int x = t.x0; x < t.x1; ++x) {
        auto& o = owner[static_cast<size_t>(y) * nx + x];
        EXPECT_EQ(o, -1) << "cell owned twice";
        o = r;
      }
  }
  for (int v : owner) EXPECT_NE(v, -1);
}

TEST(Decomposition, NeighborsAtEdgesAreMinusOne) {
  auto t = par::make_tile(0, 2, 2, 10, 10, 1);
  EXPECT_EQ(t.neighbor(-1, 0), -1);
  EXPECT_EQ(t.neighbor(0, -1), -1);
  EXPECT_EQ(t.neighbor(1, 0), 1);
  EXPECT_EQ(t.neighbor(0, 1), 2);
}

TEST(Decomposition, HaloExchangeFillsGhosts) {
  // 2 ranks side by side in x; each fills its interior with its rank id
  // and after exchange must see the neighbour's id in its ghost column.
  par::World world(2);
  world.run([](par::Comm& comm) {
    auto tile = par::make_tile(comm.rank(), 2, 1, 8, 4, 1);
    std::vector<float> field(
        static_cast<size_t>(tile.nx_padded()) * tile.ny_padded(),
        static_cast<float>(comm.rank()));
    par::exchange_halo(comm, tile, field);
    const int ghost_x = comm.rank() == 0 ? tile.nx_local() : -1;
    const int other = 1 - comm.rank();
    for (int iy = 0; iy < tile.ny_local(); ++iy)
      EXPECT_FLOAT_EQ(field[tile.padded_index(ghost_x, iy)],
                      static_cast<float>(other));
    EXPECT_GT(comm.bytes_sent(), 0u);
  });
}

TEST(Decomposition, RejectsInvalidConfigurations) {
  EXPECT_THROW(par::make_tile(4, 2, 2, 10, 10, 1),
               coastal::util::CheckError);
  EXPECT_THROW(par::make_tile(0, 4, 1, 2, 10, 1),
               coastal::util::CheckError);
}
