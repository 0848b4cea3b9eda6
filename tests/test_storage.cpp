/// Tests for the memory layer (storage.hpp): the size-bucketed storage
/// pool, per-thread workspaces, and episode arenas.
///
/// The load-bearing invariants:
///  * recycled (dirty) pool blocks never change results — every op fully
///    initializes what it reads, so pool reuse is bitwise invisible;
///  * steady-state fused inference inside an ArenaScope performs zero
///    heap allocations (the PR 4 acceptance pin);
///  * a tensor outliving its arena is a loud, diagnosable error;
///  * COASTAL_DISABLE_POOL degrades everything to one-real-allocation-
///    per-tensor so ASan/valgrind stay byte-precise.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "core/surrogate.hpp"
#include "nn/attention.hpp"
#include "tensor/kernels.hpp"
#include "tensor/storage.hpp"
#include "tensor/tensor.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

using namespace coastal;
using tensor::Tensor;
namespace ct = coastal::tensor;
namespace ker = coastal::tensor::kernels;

namespace {

/// RAII restore of the pool-enabled flag (tests flip it).
struct PoolEnabledOverride {
  bool saved = ct::pool_enabled();
  ~PoolEnabledOverride() { ct::set_pool_enabled(saved); }
};

/// The miniature surrogate (the BM_TrainStep / serving-test model).
core::SurrogateConfig mini_surrogate_config() {
  core::SurrogateConfig cfg;
  cfg.H = 20;
  cfg.W = 20;
  cfg.D = 6;
  cfg.T = 3;
  cfg.patch_h = 5;
  cfg.patch_w = 5;
  cfg.patch_d = 2;
  cfg.embed_dim = 8;
  cfg.stages = 3;
  cfg.heads = {2, 4, 8};
  return cfg;
}

}  // namespace

TEST(StoragePool, FreeListReuseIsCountedAndSkipsTheHeap) {
  if (!ct::pool_enabled()) GTEST_SKIP() << "pool disabled via env";
  ct::pool_trim();
  const auto s0 = ct::alloc_stats();
  {
    Tensor a = Tensor::zeros({1024});
    const auto live = ct::alloc_stats();
    EXPECT_GE(live.current_bytes, s0.current_bytes + 1024 * sizeof(float));
  }
  const auto s1 = ct::alloc_stats();
  EXPECT_GE(s1.pool_misses, s0.pool_misses + 1);  // trimmed pool: cold
  EXPECT_EQ(s1.current_bytes, s0.current_bytes);  // liveness accounting
  {
    Tensor b = Tensor::zeros({1000});  // same power-of-two bucket as 1024
  }
  const auto s2 = ct::alloc_stats();
  EXPECT_GE(s2.pool_hits, s1.pool_hits + 1);
  EXPECT_EQ(s2.total_allocs, s1.total_allocs)
      << "a pool hit must not touch the heap";
}

TEST(StoragePool, ZerosAreZeroAfterDirtyReuse) {
  if (!ct::pool_enabled()) GTEST_SKIP() << "pool disabled via env";
  { Tensor t = Tensor::full({512}, 7.5f); }
  // Same bucket: zeros() must scrub the recycled block.
  Tensor z = Tensor::zeros({512});
  for (int64_t i = 0; i < 512; ++i) ASSERT_EQ(z.raw()[i], 0.0f) << i;
}

TEST(StoragePool, BitwiseIdenticalAcrossReuseAndThreadCounts) {
  // Pool reuse hands ops recycled, dirty buffers; results must be bitwise
  // identical to a cold-pool run, under any thread count — the PR 1
  // determinism invariant extended to the memory layer.
  util::Rng rng(77);
  nn::MultiHeadSelfAttention attn(24, 4, rng);
  Tensor x = Tensor::randn({4, 40, 24}, rng);
  tensor::NoGradGuard ng;
  coastal::testing::KernelConfigOverride guard;
  ker::config().attn_fused_min_n = 1;  // fused path: workspace-heavy
  ker::config().num_threads = 1;
  ct::pool_trim();
  Tensor cold = attn.forward(x);
  Tensor warm = attn.forward(x);  // every buffer now recycled
  ker::config().num_threads = 8;
  ker::config().parallel_grain = 1;  // force chunked dispatch
  Tensor par = attn.forward(x);
  const size_t bytes = static_cast<size_t>(cold.numel()) * sizeof(float);
  ASSERT_EQ(cold.shape(), warm.shape());
  ASSERT_EQ(cold.shape(), par.shape());
  EXPECT_EQ(std::memcmp(cold.raw(), warm.raw(), bytes), 0)
      << "pool reuse changed results";
  EXPECT_EQ(std::memcmp(cold.raw(), par.raw(), bytes), 0)
      << "thread count changed results on recycled buffers";
}

TEST(Workspace, RetainsScratchAcrossCallsAndReleases) {
  ct::workspace().release();
  EXPECT_EQ(ct::workspace().bytes(), 0u);
  util::Rng rng(3);
  Tensor a = Tensor::randn({64, 64}, rng);
  Tensor b = Tensor::randn({64, 64}, rng);
  tensor::NoGradGuard ng;
  (void)a.matmul(b);  // packs panels + offset tables into the workspace
  EXPECT_GT(ct::workspace().bytes(), 0u);
  ct::workspace().release();
  EXPECT_EQ(ct::workspace().bytes(), 0u);
}

TEST(StorageArena, NestedScopesBumpAndBulkRelease) {
  if (!ct::pool_enabled()) GTEST_SKIP() << "pool disabled via env";
  EXPECT_FALSE(ct::ArenaScope::active());
  const auto s0 = ct::alloc_stats();
  {
    ct::ArenaScope outer;
    EXPECT_TRUE(ct::ArenaScope::active());
    Tensor a = Tensor::zeros({256});
    {
      ct::ArenaScope inner;
      Tensor b = Tensor::ones({256});
      Tensor c = a.add(b);
      EXPECT_EQ(c.raw()[0], 1.0f);
    }  // inner tensors die first, then the inner scope — no error
    EXPECT_TRUE(ct::ArenaScope::active());
  }
  EXPECT_FALSE(ct::ArenaScope::active());
  const auto s1 = ct::alloc_stats();
  EXPECT_GE(s1.arena_allocs, s0.arena_allocs + 3);
  EXPECT_EQ(s1.current_bytes, s0.current_bytes) << "arena leaked liveness";
}

TEST(StorageArena, EscapingTensorIsALoudError) {
  if (!ct::pool_enabled()) GTEST_SKIP() << "pool disabled via env";
  Tensor escaped;
  EXPECT_THROW(
      {
        ct::ArenaScope arena;
        escaped = Tensor::full({64}, 3.0f);
      },
      util::CheckError);
  // Diagnosable, not a use-after-free: the escapee keeps the arena state
  // (and its chunks) alive, so its data is still intact.
  ASSERT_TRUE(escaped.defined());
  EXPECT_EQ(escaped.raw()[0], 3.0f);
  EXPECT_EQ(escaped.raw()[63], 3.0f);
  escaped = Tensor();  // last reference: chunks return to the pool
}

TEST(StorageArena, AdoptedVectorsMaySafelyOutliveTheScope) {
  if (!ct::pool_enabled()) GTEST_SKIP() << "pool disabled via env";
  // from_vector wraps the caller's buffer and is never arena-backed —
  // the rule that makes lazily-built caches (e.g. the Swin window-mask
  // cache) safe to create inside an episode arena.
  Tensor kept;
  {
    ct::ArenaScope arena;
    kept = Tensor::from_vector({4}, {1, 2, 3, 4});
  }  // no throw
  EXPECT_EQ(kept.raw()[3], 4.0f);
}

TEST(StorageArena, FusedInferenceStepZeroHeapAllocs) {
  // The PR 4 acceptance pin: a steady-state fused-attention forecast step
  // inside an ArenaScope performs ZERO heap allocations — every tensor
  // buffer is bump-allocated from recycled arena chunks.
  if (!ct::pool_enabled()) GTEST_SKIP() << "pool disabled via env";
  util::Rng rng(5);
  nn::MultiHeadSelfAttention attn(32, 4, rng);
  Tensor x = Tensor::randn({8, 64, 32}, rng);
  tensor::NoGradGuard ng;
  coastal::testing::KernelConfigOverride guard;
  ker::config().attn_fused_min_n = 1;  // force the fused inference path
  for (int i = 0; i < 2; ++i) {  // warm: pool chunks + workspace scratch
    ct::ArenaScope arena;
    (void)attn.forward(x);
  }
  const auto before = ct::alloc_stats();
  {
    ct::ArenaScope arena;
    (void)attn.forward(x);
  }
  const auto after = ct::alloc_stats();
  EXPECT_EQ(after.total_allocs, before.total_allocs)
      << "steady-state fused inference hit the heap";
  EXPECT_GT(after.arena_allocs, before.arena_allocs);
}

TEST(StorageArena, SurrogateEpisodeStepAllocBudget) {
  // Same pin at full-model scale: one forward of the miniature surrogate
  // (the BM_TrainStep model) in an episode arena — after warmup, the
  // per-episode heap-allocation budget is exactly zero.  Warmup builds
  // the window-mask caches (vector-backed) and sizes the pool chunks.
  if (!ct::pool_enabled()) GTEST_SKIP() << "pool disabled via env";
  util::Rng rng(10);
  core::SurrogateModel model(mini_surrogate_config(), rng);
  util::Rng drng(11);
  Tensor volume = Tensor::randn({1, 3, 20, 20, 6, 4}, drng);
  Tensor surface = Tensor::randn({1, 1, 20, 20, 4}, drng);
  tensor::NoGradGuard ng;
  coastal::testing::KernelConfigOverride guard;
  ker::config().attn_fused_min_n = 1;  // fused attention end to end
  for (int i = 0; i < 2; ++i) {
    ct::ArenaScope arena;
    (void)model.forward(volume, surface);
  }
  const auto before = ct::alloc_stats();
  {
    ct::ArenaScope arena;
    (void)model.forward(volume, surface);
  }
  const auto after = ct::alloc_stats();
  EXPECT_EQ(after.total_allocs, before.total_allocs)
      << "steady-state surrogate episode hit the heap";
}

TEST(StorageArena, ServedBatchForwardAllocBudget) {
  // The serve-cold shape: an eval forward of B = 8 stacked requests under
  // BatchStatScope(8), which routes the decoder heads through the fused
  // patch-recovery kernel.  Its scratch comes from the per-thread
  // workspaces and its buffers from the pool/arena, so after warmup the
  // per-forward heap-allocation budget is exactly zero.
  if (!ct::pool_enabled()) GTEST_SKIP() << "pool disabled via env";
  util::Rng rng(12);
  core::SurrogateModel model(mini_surrogate_config(), rng);
  model.set_training(false);
  util::Rng drng(13);
  const int64_t B = 8;
  Tensor volume = Tensor::randn({B, 3, 20, 20, 6, 4}, drng);
  Tensor surface = Tensor::randn({B, 1, 20, 20, 4}, drng);
  tensor::NoGradGuard ng;
  nn::BatchStatScope scope(B);
  for (int i = 0; i < 2; ++i) {
    ct::ArenaScope arena;
    (void)model.forward(volume, surface);
  }
  const auto before = ct::alloc_stats();
  {
    ct::ArenaScope arena;
    (void)model.forward(volume, surface);
  }
  const auto after = ct::alloc_stats();
  EXPECT_EQ(after.total_allocs, before.total_allocs)
      << "steady-state served batch forward hit the heap";
}

TEST(StorageDisabledPool, EscapeHatchMakesEveryAllocationReal) {
  PoolEnabledOverride restore;
  ct::set_pool_enabled(false);
  const auto s0 = ct::alloc_stats();
  {
    ct::ArenaScope arena;  // inert in debugging mode
    EXPECT_FALSE(ct::ArenaScope::active());
    Tensor t = Tensor::zeros({128});
    const auto s1 = ct::alloc_stats();
    EXPECT_EQ(s1.total_allocs, s0.total_allocs + 1)
        << "disabled pool must heap-allocate every storage";
    EXPECT_EQ(s1.pool_hits, s0.pool_hits);
    EXPECT_EQ(s1.arena_allocs, s0.arena_allocs);
  }  // no escape error either: nothing is arena-backed
  const auto s2 = ct::alloc_stats();
  EXPECT_EQ(s2.current_bytes, s0.current_bytes);
}
