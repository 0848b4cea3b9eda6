#pragma once

/// \file kernels.hpp
/// Parallel, cache-blocked compute kernels backing the hot tensor ops.
///
/// Design rules shared by every kernel here:
///  * **Determinism across thread counts.**  Work is partitioned so that
///    each output element (and each reduction feeding it) is computed by
///    exactly one task with a thread-count-independent operation order.
///    Results are bitwise identical under `COASTAL_NUM_THREADS=1` and `=N`.
///  * **IEEE semantics.**  No value-dependent skips: NaN/Inf in either
///    operand propagates exactly as in the reference triple loop (the old
///    `if (a == 0.0f) continue;` shortcut is deliberately gone).
///  * **Cache blocking.**  GEMM runs Mc×Kc×Nc panels with a
///    register-blocked micro-kernel over packed A/B panels so the inner
///    loop streams contiguous memory; `transpose_last` uses a blocked
///    tile copy.
///
/// Threading is provided by `par::ThreadPool::global()`; kernels fall back
/// to serial execution for small problems (see KernelConfig thresholds) and
/// when already running inside a pool worker (no nested parallelism).
///
/// All transient kernel scratch (GEMM packing panels, fused-attention
/// blocks and statistics) lives in the per-thread `tensor::Workspace`
/// (storage.hpp): grow-only buffers reused across calls, so steady-state
/// kernel execution allocates nothing inside parallel_for tasks.

#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/shape.hpp"
#include "util/function_ref.hpp"

namespace coastal::tensor::kernels {

/// Tuning knobs for the kernel layer.  `config()` is initialized once from
/// the environment and may be mutated by tests/benchmarks; kernels read it
/// at call time.
struct KernelConfig {
  /// Worker count used for chunking decisions. 0 = auto (env
  /// `COASTAL_NUM_THREADS`, else hardware concurrency). 1 = force serial.
  int num_threads = 0;

  // GEMM cache-block panel sizes (elements).  Mc×Kc A-panels target L2,
  // Kc×Nc B-panels target L3/L2; the register micro-kernel is fixed at
  // compile time (see kernels.cpp).
  int64_t gemm_mc = 64;
  int64_t gemm_kc = 256;
  int64_t gemm_nc = 1024;

  /// Below this many multiply-adds a GEMM stays on the naive serial path
  /// (packing overhead dominates).  Path choice depends only on problem
  /// size, never on thread count, preserving determinism.
  int64_t gemm_small_madds = 4096;

  /// Minimum elements a data-parallel loop must have per chunk before it
  /// is worth shipping to the pool.
  int64_t parallel_grain = 16384;

  /// Chunk oversubscription factor (chunks ≈ factor × threads) for load
  /// balance on ragged loops.
  int oversubscribe = 4;

  // Fused (flash-style) attention blocking.  One task owns a Bq-row block
  // of queries for one (batch × head) entry and streams Bkv-row blocks of
  // K/V through the online-softmax recurrence — the [N, N] score matrix is
  // never materialized.
  int64_t attn_bq = 64;    ///< query rows per task block
  int64_t attn_bkv = 128;  ///< K/V rows streamed per inner block

  /// `nn::MultiHeadSelfAttention` routes forwards — inference *and*
  /// training — through the fused kernels only when the token count N is
  /// at least `fused_attention_min_n(head_dim)`; below it the unfused
  /// reference path wins.  0 = auto: a head-dim-aware default table
  /// measured against the pooled-storage unfused baseline — the PR 4
  /// pool made the unfused path so much faster (it was allocator-bound)
  /// that the speed crossover now sits where the materialized [N, N]
  /// score working set falls out of cache.  Any positive value overrides
  /// the table for every head dim (tests pin paths this way; deployments
  /// that care about peak activation memory more than latency can set a
  /// small value to force streaming attention).  The same gate governs
  /// the forward and the recompute-based backward so a checkpointed
  /// region's initial pass and its backward-time recompute always pick
  /// the same path.
  int64_t attn_fused_min_n = 0;

  /// nbatch (batch × heads) at which the fused_attention_min_n() auto
  /// table was measured.  The auto gate (attn_fused_min_n == 0) is
  /// memory-aware: the unfused path collapses when its *materialized*
  /// [nbatch, N, N] score working set falls out of cache, so the routing
  /// decision compares nbatch·N² against ref_batch·N_ref² rather than N
  /// against N_ref alone — a serving micro-batch 8× the measured one
  /// reaches the collapse at N/√8, which a pure-N gate would mispredict.
  /// At nbatch == attn_fused_ref_batch the two gates are identical.
  int64_t attn_fused_ref_batch = 32;
};

KernelConfig& config();

/// Resolved fused-attention gate for a given head dim: the explicit
/// `config().attn_fused_min_n` when positive, else the measured
/// head-dim-aware default (see KernelConfig::attn_fused_min_n).
int64_t fused_attention_min_n(int64_t head_dim);

/// Memory-aware routing decision for a concrete attention problem: true
/// when the fused streaming kernel should handle an [nbatch, n, n] score
/// shape at this head dim.  With an explicit `attn_fused_min_n` override
/// the decision is `n >= attn_fused_min_n` (head-dim- and batch-blind, as
/// tests that pin a path expect); in auto mode it scales the measured
/// per-head-dim crossover by the materialized score bytes — see
/// KernelConfig::attn_fused_ref_batch.  Depends only on shapes and config
/// (never on recording state or thread count), so checkpoint recompute
/// and serial/parallel runs always route identically.
bool fused_attention_wins(int64_t nbatch, int64_t n, int64_t head_dim);

/// Threads the kernels will actually chunk for: `config().num_threads`, or
/// the `COASTAL_NUM_THREADS` env var, or hardware concurrency.
int resolved_threads();

/// Run `fn(lo, hi)` over [0, total), in parallel when the problem is big
/// enough (`total * cost_per_item >= parallel_grain` and more than one
/// thread is available), serially otherwise.  Chunk boundaries are
/// independent of thread count only in so far as each index is processed
/// exactly once — callers must keep any reduction confined to a single
/// index for determinism.  `fn` is borrowed for the call, and a dispatch
/// allocates nothing; the calling thread runs chunks too, and a call made
/// from inside a chunk runs inline (see ThreadPool::parallel_for).
void parallel_for(int64_t total, int64_t cost_per_item,
                  util::FunctionRef<void(int64_t, int64_t)> fn);

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

/// C[m,n] += A[m,k] · B[k,n], row-major, serial.  Cache-blocked with packed
/// panels; falls back to a naive loop below `gemm_small_madds`.
void gemm(const float* A, const float* B, float* C, int64_t m, int64_t k,
          int64_t n);

/// Batched GEMM: for each batch entry i, C + i·m·n += (A + a_off[i]) ·
/// (B + b_off[i]).  Parallelized over (batch × row-block) tasks; each
/// output row is produced by exactly one task, so results are bitwise
/// independent of thread count.  Offsets encode broadcast (repeated
/// entries are fine).  Each *distinct* B operand is packed into panels
/// exactly once per call, in a shared buffer all row-block tasks consume —
/// repacking per task used to dominate wide-N problems split over many row
/// blocks.  The packed layout (and thus every accumulation order) is
/// byte-identical to the historic per-task packing.
void gemm_batched(const float* A, const float* B, float* C, int64_t m,
                  int64_t k, int64_t n, int64_t nbatch,
                  const std::vector<int64_t>& a_off,
                  const std::vector<int64_t>& b_off);

// ---------------------------------------------------------------------------
// Fused attention
// ---------------------------------------------------------------------------

/// Flash-style fused attention forward:
///
///   O[b, i, :] = softmax_j(scale · Q[b, i, :]·K[b, j, :] + M[b, i, j]) · V[b, j, :]
///
/// Q: [nbatch, nq, d], K/V: [nbatch, nkv, d], O: [nbatch, nq, d], all
/// contiguous row-major (nbatch is typically batch × heads).  `mask` is an
/// optional additive bias: when non-null, row i of batch entry b reads
/// `mask + mask_off[b] + i·nkv`, so broadcast over batch entries is encoded
/// by repeated offsets (the Swin [groups, N, N] window mask).
///
/// K/V are streamed in `attn_bkv`-row blocks through a packed-K^T
/// micro-kernel; the online row-max / row-sum recurrence rescales the
/// output accumulator per block, so the [nq, nkv] score matrix is never
/// materialized.  Each output row is produced by exactly one task and KV
/// blocks are consumed in a fixed ascending order, so results are bitwise
/// identical across thread counts.  NaN/Inf anywhere in a score row
/// poisons that output row exactly as the unfused softmax does.
///
/// `stats` (optional, [nbatch, nq, 2]) receives the final online-softmax
/// row statistics: stats[(b·nq + i)·2] = the row score max m_i and
/// stats[(b·nq + i)·2 + 1] = the row exponential sum l_i, both *after* the
/// full KV sweep, so `P[i, j] = exp(S[i, j] − m_i) / l_i` reconstructs the
/// forward's normalized weights (same `fast_expf`, same m; exact when the
/// sweep fits one KV block, and within float rounding otherwise — the
/// forward reaches a rescaled block's weight through exp(S − m_blk)·alpha,
/// two expf results multiplied, where the reconstruction is one call).
/// This is the contract `attention_fused_backward` consumes; a fully
/// masked row saves m = −inf, l = 0 (its output is NaN on every path).
void attention_fused(const float* Q, const float* K, const float* V, float* O,
                     int64_t nbatch, int64_t nq, int64_t nkv, int64_t d,
                     float scale, const float* mask,
                     const std::vector<int64_t>& mask_off,
                     float* stats = nullptr);

/// Recompute-based (flash-style) attention backward.  Given the forward's
/// inputs, its output O, the upstream gradient dO, and the saved per-row
/// statistics from `attention_fused` (see above), produces
///
///   dV = Pᵀ·dO,   dS = P ∘ (dO·Vᵀ − Δ)·scale,   dQ = dS·K,   dK = dSᵀ·Q,
///
/// where Δ_i = Σ_d dO[i,d]·O[i,d], WITHOUT ever materializing P or dS:
/// K/V blocks are re-streamed through the same packed-Kᵀ/Vᵀ micro-kernels
/// as the forward and each probability block is rebuilt from (m, l).
/// Scratch is O(attn_bkv · d) per task.
///
/// dQ is [nbatch, nq, d]; dK/dV are [nbatch, nkv, d]; all three are fully
/// overwritten.  One task owns one (batch × head) entry and consumes KV
/// blocks and query rows in fixed ascending order, so results are bitwise
/// identical across thread counts.  NaN/Inf poison exactly the gradient
/// entries the unfused reference backward (softmax_backward + matmuls)
/// poisons: a masked-out key (weight exactly 0) contributes nothing, while
/// a NaN Δ/P row poisons every gradient row it touches.
void attention_fused_backward(const float* Q, const float* K, const float* V,
                              const float* O, const float* dO,
                              const float* stats, float* dQ, float* dK,
                              float* dV, int64_t nbatch, int64_t nq,
                              int64_t nkv, int64_t d, float scale,
                              const float* mask,
                              const std::vector<int64_t>& mask_off);

/// Exact (erf-based) GELU of one value: the single definition behind
/// `Tensor::gelu` and the fused patch-recovery head, so both compute the
/// same expression bit for bit (it holds no multiply-add to contract).
inline float gelu_erf(float x) {
  constexpr float kInvSqrt2 = 0.7071067811865475f;
  return 0.5f * x * (1.0f + std::erf(x * kInvSqrt2));
}

// ---------------------------------------------------------------------------
// Row-wise fused ops (softmax / layer norm); parallel over rows.
// ---------------------------------------------------------------------------

/// y[r,:] = softmax(x[r,:]).  Lane-strided max/sum reductions and the same
/// branch-free polynomial expf as the fused attention path (the exp loop
/// vectorizes; libm expf kept this kernel scalar).  Reduction association
/// is fixed at compile time, so rows are bitwise identical across hosts
/// and thread counts; NaN/±inf rows poison exactly as with libm expf.
void softmax_rows(const float* x, float* y, int64_t rows, int64_t cols);

/// gx = softmax backward from output y and upstream g.  The per-row
/// g·y dot uses the same fixed lane-strided association as softmax_rows
/// (the serial dependence chain kept this kernel scalar), so rows are
/// bitwise identical across hosts and thread counts.
void softmax_backward_rows(const float* g, const float* y, float* gx,
                           int64_t rows, int64_t cols);

/// Layer norm over rows; writes normalized activations to `y`, and the
/// backward stash `xhat` (normalized pre-affine) and `invstd` per row —
/// both optional: pass nullptr (inference does) and the stash stores are
/// redirected into one L1-resident workspace row, eliminating a
/// numel-sized stream while keeping the *same* inner loop as the stashed
/// path (so a checkpoint region's no-grad initial pass stays bitwise
/// identical to its recompute under any FMA-contraction choice).
/// Single pass over x per row (sum + sum-of-squares in double).
void layer_norm_rows(const float* x, const float* gamma, const float* beta,
                     float* y, float* xhat, float* invstd, int64_t rows,
                     int64_t cols, float eps);

/// Layer norm backward.  `gx` is [rows, cols]; `ggamma`/`gbeta` are [cols]
/// and must be zero-initialized (column reductions are accumulated rowwise
/// in a fixed order).  The per-row mean(dxhat) / mean(dxhat·xhat)
/// reductions accumulate in double over fixed lane strides (serial
/// dependence chains kept them scalar), so rows stay bitwise identical
/// across hosts and thread counts.
void layer_norm_backward_rows(const float* g, const float* gamma,
                              const float* xhat, const float* invstd,
                              float* gx, float* ggamma, float* gbeta,
                              int64_t rows, int64_t cols);

// ---------------------------------------------------------------------------
// Data movement
// ---------------------------------------------------------------------------

/// dst[b][j][i] = src[b][i][j] for each of `nbatch` row-major [rows, cols]
/// matrices — the dominant `transpose_last`/`permute` case.  Blocked tile
/// copy, parallel over batches and row tiles.
void transpose_last2(const float* src, float* dst, int64_t nbatch,
                     int64_t rows, int64_t cols);

/// Generic permute gather: out[k] = src[offset(coords_of(k))] where
/// offsets follow `gather_strides` over `out_shape`.  Incremental odometer
/// (no per-element stride dot product), parallel over leading chunks.
void permute_gather(const float* src, float* dst, const Shape& out_shape,
                    const Shape& gather_strides);

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

enum class BinOp { kAdd, kSub, kMul, kDiv };

/// out[i] = a[i] op b[i] over `n` contiguous elements, parallel.
void binary_same(BinOp op, const float* a, const float* b, float* out,
                 int64_t n);

/// Broadcast binary op: `sa`/`sb` are broadcast strides of a/b over
/// `out_shape` (0 on broadcast axes).  Incremental offsets; the inner
/// (last-axis) loop is specialized for contiguous/broadcast operands.
void binary_broadcast(BinOp op, const float* a, const float* b, float* out,
                      const Shape& out_shape, const Shape& sa,
                      const Shape& sb);

/// out[i] = fn(x[i]) in parallel chunks; `cost` is a relative per-element
/// cost hint (1 = cheap arithmetic, larger for transcendentals).
void map(const float* x, float* out, int64_t n, int64_t cost,
         util::FunctionRef<void(const float*, float*, int64_t)> fn);

}  // namespace coastal::tensor::kernels
