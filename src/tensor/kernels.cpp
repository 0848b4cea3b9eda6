#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <unordered_map>

#include "obs/profile.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/storage.hpp"

namespace coastal::tensor::kernels {

namespace {

int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

}  // namespace

KernelConfig& config() {
  static KernelConfig cfg = [] {
    KernelConfig c;
    c.num_threads = par::env_thread_override();
    return c;
  }();
  return cfg;
}

int resolved_threads() {
  const int n = config().num_threads;
  if (n > 0) return n;
  // hardware_concurrency() is a syscall on glibc; parallel_for consults
  // this on every kernel invocation, so resolve it once.
  static const int hw = std::max(1u, std::thread::hardware_concurrency());
  return hw;
}

int64_t fused_attention_min_n(int64_t head_dim) {
  const int64_t v = config().attn_fused_min_n;
  if (v > 0) return v;
  // Measured on the 1-CPU reference host (PR 4), module-level
  // MultiHeadSelfAttention forward and forward+backward, fused vs
  // unfused, sweeping N per head dim (B=8, 4 heads).  The storage pool
  // moved these crossovers *up* dramatically: the unfused path used to be
  // allocation-bound (PR 3 notes called it bimodal), and with its [N, N]
  // tensors now recycled it beats the streaming kernel on raw speed until
  // the materialized nbatch·N² score working set falls out of cache
  // (observed as a 4-6x unfused collapse between N=512 and N=768).
  // Per-dim structure: d=16 pays for a weak register tiling in the
  // templated task (ROADMAP follow-up), and d=64's unfused GEMMs run near
  // peak (k=64 inner dim) so its crossover is far higher.  Above the
  // threshold the fused path also wins on memory by construction — it
  // never materializes the score tensor.
  if (head_dim >= 64) return 1280;
  if (head_dim >= 32) return 576;
  if (head_dim >= 16) return 768;
  return 640;
}

bool fused_attention_wins(int64_t nbatch, int64_t n, int64_t head_dim) {
  const int64_t v = config().attn_fused_min_n;
  if (v > 0) return n >= v;
  // Auto: the table entry N_ref marks where the unfused path's
  // materialized [ref_batch, N, N] score working set collapses out of
  // cache.  The collapse tracks total score bytes, not N, so compare
  // nbatch·n² with ref_batch·N_ref² (in double — both products overflow
  // int64 at servable shapes).  Equality at nbatch == ref_batch reduces
  // this to the historic `n >= N_ref` gate exactly.
  const int64_t n_ref = fused_attention_min_n(head_dim);
  const int64_t ref_b = std::max<int64_t>(1, config().attn_fused_ref_batch);
  return static_cast<double>(nbatch) * static_cast<double>(n) * n >=
         static_cast<double>(ref_b) * static_cast<double>(n_ref) * n_ref;
}

void parallel_for(int64_t total, int64_t cost_per_item,
                  util::FunctionRef<void(int64_t, int64_t)> fn) {
  if (total <= 0) return;
  const KernelConfig& cfg = config();
  const int threads = resolved_threads();
  // Serial when: single thread, nested inside a pool worker (waiting there
  // would starve the pool), or not enough work to amortize dispatch.
  if (threads <= 1 || par::ThreadPool::in_worker()) {
    fn(0, total);
    return;
  }
  const int64_t grain = std::max<int64_t>(1, cfg.parallel_grain);
  const int64_t by_grain =
      std::max<int64_t>(1, total * std::max<int64_t>(1, cost_per_item) / grain);
  const int64_t nchunks = std::min<int64_t>(
      {total, static_cast<int64_t>(cfg.oversubscribe) * threads, by_grain});
  if (nchunks <= 1) {
    fn(0, total);
    return;
  }
  par::ThreadPool::global().parallel_for(
      0, static_cast<size_t>(total),
      [fn](size_t lo, size_t hi) {
        fn(static_cast<int64_t>(lo), static_cast<int64_t>(hi));
      },
      static_cast<size_t>(nchunks));
}

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

namespace {

// Register micro-tile.  Sized so the MR×NR accumulator block fits the
// architecture's vector register file (GCC/Clang fully unroll the fixed
// loops below and keep `acc` in registers).
#if defined(__AVX512F__)
constexpr int64_t kMR = 8, kNR = 32;
#elif defined(__AVX2__) || defined(__AVX__)
constexpr int64_t kMR = 6, kNR = 16;
#else
constexpr int64_t kMR = 4, kNR = 8;
#endif

/// Naive ikj kernel for problems too small to pack.  Unlike the historic
/// version this has no `a == 0.0f` skip: NaN/Inf in B always propagates.
void gemm_naive(const float* A, const float* B, float* C, int64_t m,
                int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = C + i * n;
    const float* arow = A + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float a = arow[kk];
      const float* brow = B + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += a * brow[j];
    }
  }
}

/// Pack an mb×kc block of A (leading dimension lda) into MR-row panels:
/// layout [panel][p][MR], zero-padded so the micro-kernel never branches.
void pack_a(const float* A, int64_t lda, int64_t mb, int64_t kc, float* out) {
  for (int64_t ir = 0; ir < mb; ir += kMR) {
    const int64_t m_eff = std::min(kMR, mb - ir);
    for (int64_t p = 0; p < kc; ++p) {
      int64_t i = 0;
      for (; i < m_eff; ++i) *out++ = A[(ir + i) * lda + p];
      for (; i < kMR; ++i) *out++ = 0.0f;
    }
  }
}

/// Pack a kc×nb block of B (leading dimension ldb) into NR-column panels:
/// layout [panel][p][NR], zero-padded.
void pack_b(const float* B, int64_t ldb, int64_t kc, int64_t nb, float* out) {
  for (int64_t jr = 0; jr < nb; jr += kNR) {
    const int64_t n_eff = std::min(kNR, nb - jr);
    for (int64_t p = 0; p < kc; ++p) {
      const float* row = B + p * ldb + jr;
      int64_t j = 0;
      for (; j < n_eff; ++j) *out++ = row[j];
      for (; j < kNR; ++j) *out++ = 0.0f;
    }
  }
}

/// C[0:mr, 0:nr] += Apanel · Bpanel over kc.  The accumulation order for a
/// given output element is p ascending — identical regardless of how the
/// surrounding macro loops are scheduled across threads.
void micro_kernel(int64_t kc, const float* __restrict Ap,
                  const float* __restrict Bp, float* __restrict C,
                  int64_t ldc, int64_t mr, int64_t nr) {
  float acc[kMR][kNR] = {};
  for (int64_t p = 0; p < kc; ++p, Ap += kMR, Bp += kNR) {
    for (int64_t i = 0; i < kMR; ++i) {
      const float a = Ap[i];
      for (int64_t j = 0; j < kNR; ++j) acc[i][j] += a * Bp[j];
    }
  }
  if (mr == kMR && nr == kNR) {
    for (int64_t i = 0; i < kMR; ++i) {
      float* crow = C + i * ldc;
      for (int64_t j = 0; j < kNR; ++j) crow[j] += acc[i][j];
    }
  } else {
    for (int64_t i = 0; i < mr; ++i) {
      float* crow = C + i * ldc;
      for (int64_t j = 0; j < nr; ++j) crow[j] += acc[i][j];
    }
  }
}

/// B-pack scratch is retained in the warm per-thread Workspace buffer
/// below this cap (a fresh allocation per call costs mmap + page faults,
/// measurable at microsecond GEMM sizes) and allocated per call above it,
/// so no thread permanently holds more than the cap.  A-panel scratch
/// (Workspace::gemm_apack) is Mc×Kc-bounded and always retained.
constexpr int64_t kBpackKeepFloats = int64_t{1} << 20;  // 4 MB

/// Selects the packing destination per the policy above — the single
/// definition both gemm_batched paths share, so their retention behavior
/// can never drift apart.  `warm` must be Workspace::gemm_bpack of the
/// packing thread: it is never resized while another buffer from the same
/// workspace (gemm_apack) is in flight, so pointers stay stable.
float* pack_scratch(int64_t need, std::vector<float>& warm,
                    std::vector<float>& local) {
  if (need <= kBpackKeepFloats) {
    warm.resize(static_cast<size_t>(need));
    return warm.data();
  }
  local.resize(static_cast<size_t>(need));
  return local.data();
}

/// Shared packed-B layout.  pack_b over the *full* row extent n lays NR
/// panels out in ascending column order, so for one kc-deep slice the
/// panel starting at column j0 (always an NR multiple) sits at offset
/// j0·kc; stacking the kc slices in ascending pc order puts slice pc0 at
/// offset pc0·npad with npad = ceil(n / NR)·NR.  One full B image is
/// k·npad floats.
///
/// Blocked GEMM over one row block: C[0:mb, :] += A[0:mb, :] · B, with
/// `Bp` the shared packed image of this entry's B.  Loop order pc → jc
/// keeps accumulation over k strictly ascending per output element (kc
/// panels are added in order), so splitting m across tasks never perturbs
/// results — and the panels themselves are byte-identical to the historic
/// per-task packing, so sharing them cannot either.
void gemm_rowblock(const float* A, const float* Bp, float* C, int64_t mb,
                   int64_t k, int64_t n, const KernelConfig& cfg) {
  const int64_t kc_max = std::max<int64_t>(kMR, cfg.gemm_kc);
  const int64_t nc_max =
      std::max<int64_t>(kNR, (cfg.gemm_nc / kNR) * kNR);
  const int64_t npad = ceil_div(n, kNR) * kNR;
  std::vector<float>& apack = workspace().gemm_apack;
  apack.resize(static_cast<size_t>(ceil_div(mb, kMR) * kMR * kc_max));
  for (int64_t pc = 0; pc < k; pc += kc_max) {
    const int64_t kc = std::min(kc_max, k - pc);
    pack_a(A + pc, k, mb, kc, apack.data());
    const float* bpc = Bp + pc * npad;
    for (int64_t jc = 0; jc < n; jc += nc_max) {
      const int64_t nc = std::min(nc_max, n - jc);
      for (int64_t jr = 0; jr < nc; jr += kNR) {
        const float* bp = bpc + (jc + jr) * kc;
        for (int64_t ir = 0; ir < mb; ir += kMR) {
          const float* ap = apack.data() + (ir / kMR) * kc * kMR;
          micro_kernel(kc, ap, bp, C + ir * n + jc + jr, n,
                       std::min(kMR, mb - ir), std::min(kNR, nc - jr));
        }
      }
    }
  }
}

/// gemm_batched over raw offset arrays of `nbatch` entries each, so the
/// single-entry gemm() needs no offset vectors.
void gemm_batched_impl(const float* A, const float* B, float* C, int64_t m,
                       int64_t k, int64_t n, int64_t nbatch,
                       const int64_t* a_off, const int64_t* b_off) {
  if (m <= 0 || n <= 0 || nbatch <= 0) return;
  obs::ScopedStage obs_stage(obs::Stage::kGemm);
  const KernelConfig& cfg = config();
  // Path choice depends only on problem size and config — never on thread
  // count — so serial and parallel runs agree bitwise.
  if (k <= 0) return;  // C += A·B with empty inner dim is a no-op
  if (m * k * n <= cfg.gemm_small_madds) {
    parallel_for(nbatch, m * k * n, [&](int64_t lo, int64_t hi) {
      for (int64_t b = lo; b < hi; ++b) {
        gemm_naive(A + a_off[b], B + b_off[b], C + b * m * n, m, k, n);
      }
    });
    return;
  }
  const int64_t mc = std::max<int64_t>(kMR, cfg.gemm_mc);
  const int64_t nblocks = ceil_div(m, mc);

  // Pack each *distinct* B operand once into a shared buffer before the
  // row-block sweep (previously every task repacked its own panels — for a
  // wide-N projection matmul split over many row blocks that repacking
  // dominated).  Packing is a pure strided copy with disjoint destinations,
  // so parallelizing it never reorders arithmetic, and the packed bytes are
  // identical to what each task used to produce locally.  The buffer is a
  // caller-thread thread_local so repeated GEMMs reuse warm pages (a fresh
  // heap allocation per call costs mmap + page faults at these sizes);
  // pool workers only read it, and it outlives the parallel_for below.
  const int64_t kc_max = std::max<int64_t>(kMR, cfg.gemm_kc);
  const int64_t npad = ceil_div(n, kNR) * kNR;
  // Distinct b_off values and each entry's image index.  The two dominant
  // shapes need no tables: one image shared by every entry (a single entry
  // or a fully broadcast B), and strictly increasing offsets (every entry
  // its own image, in entry order).  Other patterns hash, keeping
  // first-seen order.
  bool all_same = true, increasing = true;
  for (int64_t b = 1; b < nbatch; ++b) {
    all_same = all_same && b_off[b] == b_off[0];
    increasing = increasing && b_off[b] > b_off[b - 1];
  }
  const int64_t* uniq = b_off;
  int64_t nuniq = all_same ? 1 : nbatch;
  std::vector<int64_t> uniq_hashed;
  std::vector<int32_t> u_of;  // entry -> image, hashed patterns only
  if (!all_same && !increasing) {
    u_of.resize(static_cast<size_t>(nbatch));
    std::unordered_map<int64_t, int32_t> seen;
    seen.reserve(static_cast<size_t>(nbatch));
    for (int64_t b = 0; b < nbatch; ++b) {
      auto [it, inserted] = seen.emplace(
          b_off[b], static_cast<int32_t>(uniq_hashed.size()));
      if (inserted) uniq_hashed.push_back(b_off[b]);
      u_of[static_cast<size_t>(b)] = it->second;
    }
    uniq = uniq_hashed.data();
    nuniq = static_cast<int64_t>(uniq_hashed.size());
  }
  auto image_of = [&](int64_t b) -> int64_t {
    if (all_same) return 0;
    return u_of.empty() ? b : u_of[static_cast<size_t>(b)];
  };
  const int64_t bstride = k * npad;  // one packed B image
  const int64_t kcblocks = ceil_div(k, kc_max);
  const int64_t need = nuniq * bstride;

  // Share the pre-packed images only when (a) some image is actually
  // consumed by more than one task and (b) the transient buffer — a padded
  // copy of every distinct B — stays within a sane bound.  Everything else
  // packs inside the task, one image at a time: the no-reuse case (every
  // entry distinct, one row block each — the unfused-attention shape at
  // small windows) would pay the full copy for zero saved repacks, and an
  // oversized pack would spike peak RSS by O(total B bytes) per call,
  // undoing the memory wins this engine exists for.
  constexpr int64_t kBpackSharedMaxFloats = int64_t{1} << 23;  // 32 MB
  const bool share = need <= kBpackSharedMaxFloats &&
                     nbatch * nblocks > nuniq;
  if (!share) {
    parallel_for(nbatch * nblocks, mc * k * n, [&](int64_t lo, int64_t hi) {
      std::vector<float> local;
      float* img = pack_scratch(bstride, workspace().gemm_bpack, local);
      int64_t packed_off = -1;  // b_off currently packed into img
      for (int64_t t = lo; t < hi; ++t) {
        const int64_t b = t / nblocks;
        const int64_t i0 = (t % nblocks) * mc;
        const int64_t mb = std::min(mc, m - i0);
        const int64_t off = b_off[b];
        if (off != packed_off) {
          // Tasks are consecutive within a chunk, so same-entry row
          // blocks repack at most once per chunk.
          for (int64_t pc0 = 0; pc0 < k; pc0 += kc_max) {
            const int64_t kc = std::min(kc_max, k - pc0);
            pack_b(B + off + pc0 * n, n, kc, n, img + pc0 * npad);
          }
          packed_off = off;
        }
        gemm_rowblock(A + a_off[b] + i0 * k, img, C + b * m * n + i0 * n, mb,
                      k, n, cfg);
      }
    });
    return;
  }

  // Caller-thread warm buffer: the row-block tasks below only read it
  // (and only resize their own gemm_apack), so the pointer stays stable
  // across the parallel_for.
  std::vector<float> bpack_local;
  float* bpack = pack_scratch(need, workspace().gemm_bpack, bpack_local);
  const int64_t pack_tasks = nuniq * kcblocks;
  if (pack_tasks == 1) {
    // Single image, single k-panel: skip the dispatch (tiny GEMMs sit in
    // the microsecond range where a pool round-trip shows up).
    pack_b(B + uniq[0], n, k, n, bpack);
  } else {
    parallel_for(pack_tasks, kc_max * npad, [&](int64_t lo, int64_t hi) {
      for (int64_t t = lo; t < hi; ++t) {
        const int64_t u = t / kcblocks;
        const int64_t pc0 = (t % kcblocks) * kc_max;
        const int64_t kc = std::min(kc_max, k - pc0);
        pack_b(B + uniq[u] + pc0 * n, n, kc, n,
               bpack + u * bstride + pc0 * npad);
      }
    });
  }

  parallel_for(nbatch * nblocks, mc * k * n, [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      const int64_t b = t / nblocks;
      const int64_t i0 = (t % nblocks) * mc;
      const int64_t mb = std::min(mc, m - i0);
      gemm_rowblock(A + a_off[b] + i0 * k, bpack + image_of(b) * bstride,
                    C + b * m * n + i0 * n, mb, k, n, cfg);
    }
  });
}

}  // namespace

void gemm(const float* A, const float* B, float* C, int64_t m, int64_t k,
          int64_t n) {
  const int64_t zero = 0;
  gemm_batched_impl(A, B, C, m, k, n, 1, &zero, &zero);
}

void gemm_batched(const float* A, const float* B, float* C, int64_t m,
                  int64_t k, int64_t n, int64_t nbatch,
                  const std::vector<int64_t>& a_off,
                  const std::vector<int64_t>& b_off) {
  gemm_batched_impl(A, B, C, m, k, n, nbatch, a_off.data(), b_off.data());
}

// ---------------------------------------------------------------------------
// Fused attention
// ---------------------------------------------------------------------------

namespace {

/// Branch-free expf shared by the fused attention forward/backward and
/// softmax_rows: exp(x) = 2^k · e^t
/// with k = rint(x·log2 e) and t = (x·log2 e − k)·ln 2 ∈ [−½ln 2, ½ln 2],
/// e^t by a degree-7 Taylor polynomial (relative error ≲ 2e−7).  Unlike
/// libm's expf this contains no call and no branch, so GCC/Clang
/// vectorize the epilogue loop it sits in — and expf is the single
/// hottest instruction stream in attention at Swin window sizes.
///
/// Semantics the online softmax relies on (arguments are ≤ 0 or NaN,
/// since the running row max has been subtracted):
///  * NaN in → NaN out (restored by the final select), so a poisoned
///    score row still poisons the row sum exactly like std::exp.
///  * x < −104 (where real expf is subnormal-or-zero) → exactly 0, so
///    −inf and −1e9 window-mask scores contribute zero weight; a fully
///    −inf row then finishes with sum 0 and 0/0 = NaN like the unfused
///    softmax, instead of renormalizing the clamp floor into a spurious
///    uniform distribution.
inline float fast_expf(float x) {
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kLn2 = 0.6931471805599453f;
  const float z = std::min(std::max(x * kLog2e, -126.0f), 126.0f);
  const float kf = std::nearbyint(z);
  const float t = (z - kf) * kLn2;
  // e^t, Horner degree 7.
  float p = 1.0f / 5040.0f;
  p = p * t + 1.0f / 720.0f;
  p = p * t + 1.0f / 120.0f;
  p = p * t + 1.0f / 24.0f;
  p = p * t + 1.0f / 6.0f;
  p = p * t + 0.5f;
  p = p * t + 1.0f;
  p = p * t + 1.0f;
  // 2^k via exponent bits; kf ∈ [-126, 126] so the shift never overflows.
  // NaN input survives the clamp (std::max/min keep a NaN first operand),
  // and casting NaN to int is UB — route it through 0; the final select
  // restores NaN regardless, and this stays a branchless blend.
  const int32_t ki = static_cast<int32_t>(kf == kf ? kf : 0.0f);
  float two_k;
  const int32_t bits = (ki + 127) << 23;
  std::memcpy(&two_k, &bits, sizeof(two_k));
  float r = p * two_k;
  r = x < -104.0f ? 0.0f : r;  // flush the clamp floor to a true zero
  return x != x ? x : r;       // preserve NaN
}

/// Reduction lane count for the block max / row sum below — one AVX-512
/// vector of floats.  Lane decomposition is fixed at compile time, so the
/// (re)association pattern is identical on every host and thread count.
constexpr int kAttnLanes = 16;

/// Lane-strided max of x[0, n) folded into `init`.  This association
/// pattern is a determinism-critical invariant shared by the fused
/// attention forward and softmax_rows — one definition so the reduction
/// trees can never drift apart.  NaN falls out of std::max (comparisons
/// with NaN are false), so callers relying on NaN poisoning must route it
/// through a later arithmetic step, as both users do via exp(NaN - mx).
inline float lane_max(const float* __restrict x, int64_t n, float init) {
  float part[kAttnLanes];
  for (int u = 0; u < kAttnLanes; ++u)
    part[u] = -std::numeric_limits<float>::infinity();
  int64_t i = 0;
  for (; i + kAttnLanes <= n; i += kAttnLanes)
    for (int u = 0; u < kAttnLanes; ++u)
      part[u] = std::max(part[u], x[i + u]);
  for (int u = 0; u < kAttnLanes; ++u) init = std::max(init, part[u]);
  for (; i < n; ++i) init = std::max(init, x[i]);
  return init;
}

/// Lane-strided sum of x[0, n): partial lanes fold in ascending lane
/// order, then the tail adds serially — same fixed association everywhere.
inline float lane_sum(const float* __restrict x, int64_t n) {
  float part[kAttnLanes] = {};
  int64_t i = 0;
  for (; i + kAttnLanes <= n; i += kAttnLanes)
    for (int u = 0; u < kAttnLanes; ++u) part[u] += x[i + u];
  float sum = 0.0f;
  for (int u = 0; u < kAttnLanes; ++u) sum += part[u];
  for (; i < n; ++i) sum += x[i];
  return sum;
}

/// Lane-strided dot product of a[0, n)·b[0, n) — same fixed association
/// family as lane_sum; the softmax backward's per-row Σ g·y reduction
/// (a serial fma chain before) vectorizes through this.
inline float lane_dot(const float* __restrict a, const float* __restrict b,
                      int64_t n) {
  float part[kAttnLanes] = {};
  int64_t i = 0;
  for (; i + kAttnLanes <= n; i += kAttnLanes)
    for (int u = 0; u < kAttnLanes; ++u) part[u] += a[i + u] * b[i + u];
  float sum = 0.0f;
  for (int u = 0; u < kAttnLanes; ++u) sum += part[u];
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

/// One (batch entry, query row block) of flash attention.  KV blocks are
/// consumed in ascending order and every reduction (over d in the score
/// dot, over lanes in the max/sum scans, over blocks in the recurrence)
/// has a fixed order, so the result is independent of how tasks are
/// scheduled across threads.
///
/// `D` is the compile-time head dim for the hot instantiations (the
/// d-loops fully unroll and the output accumulator row lives in vector
/// registers across the V sweep); `D == 0` is the runtime-d fallback.
/// `stats_out` (optional) receives the final (m, l) pair per query row —
/// the contract attention_fused_backward rebuilds probabilities from.
template <int D>
void attention_task(const float* Qb, const float* Kb, const float* Vb,
                    float* Ob, const float* mrow, int64_t rows, int64_t nkv,
                    int64_t rt_d, float scale, int64_t bc_max,
                    float* stats_out) {
  const int64_t d = D > 0 ? D : rt_d;
  // Per-thread Workspace scratch: packed K^T block, score block, and the
  // online-softmax state (row max, row sum, output accumulator).
  Workspace& ws = workspace();
  ws.attn_kt.resize(static_cast<size_t>(d * bc_max));
  ws.attn_scores.resize(static_cast<size_t>(rows * bc_max));
  ws.attn_stat.resize(static_cast<size_t>(rows * (d + 2)));
  float* kt = ws.attn_kt.data();
  float* s = ws.attn_scores.data();
  float* m = ws.attn_stat.data();         // running row max
  float* l = m + rows;                    // running row sum of exp
  float* acc = l + rows;                  // [rows, d] output accumulator
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  std::fill(m, m + rows, kNegInf);
  std::fill(l, l + rows, 0.0f);
  std::fill(acc, acc + rows * d, 0.0f);

  for (int64_t kv0 = 0; kv0 < nkv; kv0 += bc_max) {
    const int64_t bc = std::min(bc_max, nkv - kv0);
    // Pack the K block transposed so the score micro-kernel's inner loop
    // runs contiguously over j lanes (no reassociated reductions).
    for (int64_t j = 0; j < bc; ++j) {
      const float* krow = Kb + (kv0 + j) * d;
      for (int64_t dd = 0; dd < d; ++dd) kt[dd * bc + j] = krow[dd];
    }
    for (int64_t i = 0; i < rows; ++i) {
      float* __restrict srow = s + i * bc_max;
      std::fill(srow, srow + bc, 0.0f);
      const float* qrow = Qb + i * d;
      for (int64_t dd = 0; dd < d; ++dd) {
        const float qv = qrow[dd];
        const float* __restrict krow = kt + dd * bc;
        for (int64_t j = 0; j < bc; ++j) srow[j] += qv * krow[j];
      }
      if (mrow != nullptr) {
        const float* mk = mrow + i * nkv + kv0;
        for (int64_t j = 0; j < bc; ++j) srow[j] = srow[j] * scale + mk[j];
      } else {
        for (int64_t j = 0; j < bc; ++j) srow[j] *= scale;
      }
      // Online softmax: new block max, rescale old stats by
      // alpha = exp(m_old - m_new), fold in the fresh exponentials.
      // NaN scores fall out of std::max (as in softmax_rows) but poison
      // the row sum through exp(NaN), matching unfused semantics.  Max is
      // exact under any association, so the lane split never changes the
      // result on NaN-free rows (a NaN row is wholly poisoned anyway).
      const float bm = lane_max(srow, bc, m[i]);
      // While the running max is still -inf (every key so far masked with
      // -inf), subtract 0 instead: exp(-inf - -inf) would manufacture NaN
      // where the reference softmax — whose max spans the whole row —
      // yields weight 0.  A NaN score still reaches the exp (NaN - 0 is
      // NaN), so NaN rows stay poisoned; an all -inf row ends with
      // l = 0 and finishes as 0/0 = NaN, exactly like the reference.
      const float bm_eff = bm == kNegInf ? 0.0f : bm;
      const float alpha = fast_expf(m[i] - bm_eff);
      m[i] = bm;
      // Elementwise exp first (vectorizes: fast_expf is branch-free), then
      // the lane-strided row sum — a single serial chain would bottleneck
      // on add latency, and fusing the sum into the exp loop would
      // serialize that loop too.
      for (int64_t j = 0; j < bc; ++j) srow[j] = fast_expf(srow[j] - bm_eff);
      const float rowsum = lane_sum(srow, bc);
      l[i] = alpha * l[i] + rowsum;
      // acc[i, :] = alpha · acc[i, :] + P · V_block, with two independent
      // fma chains over j to hide the accumulator latency.  Chain results
      // combine in a fixed order, so this too is schedule-independent.
      float* __restrict arow = acc + i * d;
      const float* __restrict vblock = Vb + kv0 * d;
      if constexpr (D > 0) {
        float a0[D] = {}, a1[D] = {};
        int64_t j = 0;
        for (; j + 2 <= bc; j += 2) {
          const float p0 = srow[j], p1 = srow[j + 1];
          const float* v0 = vblock + j * D;
          const float* v1 = v0 + D;
          for (int dd = 0; dd < D; ++dd) a0[dd] += p0 * v0[dd];
          for (int dd = 0; dd < D; ++dd) a1[dd] += p1 * v1[dd];
        }
        if (j < bc) {
          const float p0 = srow[j];
          const float* v0 = vblock + j * D;
          for (int dd = 0; dd < D; ++dd) a0[dd] += p0 * v0[dd];
        }
        for (int dd = 0; dd < D; ++dd)
          arow[dd] = arow[dd] * alpha + (a0[dd] + a1[dd]);
      } else {
        for (int64_t dd = 0; dd < d; ++dd) arow[dd] *= alpha;
        for (int64_t j = 0; j < bc; ++j) {
          const float p = srow[j];
          const float* vrow = vblock + j * d;
          for (int64_t dd = 0; dd < d; ++dd) arow[dd] += p * vrow[dd];
        }
      }
    }
  }
  for (int64_t i = 0; i < rows; ++i) {
    const float inv = 1.0f / l[i];
    const float* arow = acc + i * d;
    float* orow = Ob + i * d;
    for (int64_t dd = 0; dd < d; ++dd) orow[dd] = arow[dd] * inv;
  }
  if (stats_out != nullptr) {
    // The raw running max (possibly -inf on a fully masked row) and the
    // exponential sum, exactly as the recurrence left them — the backward
    // reconstructs P[i, j] = fast_expf(S[i, j] - m) / l from these.
    for (int64_t i = 0; i < rows; ++i) {
      stats_out[i * 2] = m[i];
      stats_out[i * 2 + 1] = l[i];
    }
  }
}

}  // namespace

void attention_fused(const float* Q, const float* K, const float* V, float* O,
                     int64_t nbatch, int64_t nq, int64_t nkv, int64_t d,
                     float scale, const float* mask,
                     const std::vector<int64_t>& mask_off, float* stats) {
  if (nbatch <= 0 || nq <= 0 || nkv <= 0 || d <= 0) return;
  const KernelConfig& cfg = config();
  const int64_t bq = std::max<int64_t>(1, cfg.attn_bq);
  const int64_t bc_max = std::min(std::max<int64_t>(1, cfg.attn_bkv), nkv);
  const int64_t qblocks = ceil_div(nq, bq);
  // Head-dim specialization: path choice depends only on d, never on
  // thread count, so serial and parallel runs stay bitwise identical.
  auto task = attention_task<0>;
  switch (d) {
    case 4: task = attention_task<4>; break;
    case 8: task = attention_task<8>; break;
    case 16: task = attention_task<16>; break;
    case 32: task = attention_task<32>; break;
    case 64: task = attention_task<64>; break;
    default: break;
  }
  parallel_for(nbatch * qblocks, 2 * bq * nkv * d, [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      const int64_t b = t / qblocks;
      const int64_t q0 = (t % qblocks) * bq;
      const int64_t rows = std::min(bq, nq - q0);
      const float* mrow =
          mask ? mask + mask_off[static_cast<size_t>(b)] + q0 * nkv : nullptr;
      task(Q + (b * nq + q0) * d, K + b * nkv * d, V + b * nkv * d,
           O + (b * nq + q0) * d, mrow, rows, nkv, d, scale, bc_max,
           stats ? stats + (b * nq + q0) * 2 : nullptr);
    }
  });
}

namespace {

/// One (batch × head) entry of the recompute-based flash backward.  KV
/// blocks stream in ascending order and query rows are visited in
/// ascending order inside each block, so every accumulation into
/// dQ/dK/dV has a fixed, thread-count-independent order.  The probability
/// block is rebuilt from the saved (m, l) with the same fast_expf the
/// forward used; P equals the forward's weights exactly when the row's
/// sweep fit one KV block, and to within float rounding otherwise (the
/// forward reaches a rescaled block's weight as exp(S − m_blk)·alpha, two
/// expf results multiplied, where this takes one call) — see the stats
/// contract in kernels.hpp.
template <int D>
void attention_bwd_task(const float* Qb, const float* Kb, const float* Vb,
                        const float* Ob, const float* dOb,
                        const float* statsb, const float* mrow, float* dQb,
                        float* dKb, float* dVb, int64_t nq, int64_t nkv,
                        int64_t rt_d, float scale, int64_t bc_max) {
  const int64_t d = D > 0 ? D : rt_d;
  // Per-thread Workspace scratch: packed Kᵀ/Vᵀ blocks, the rebuilt
  // probability row, the dO·Vᵀ row, and Δ_i = Σ_d dO∘O per query row.
  Workspace& ws = workspace();
  ws.attn_bwd_kt.resize(static_cast<size_t>(d * bc_max));
  ws.attn_bwd_vt.resize(static_cast<size_t>(d * bc_max));
  ws.attn_bwd_p.resize(static_cast<size_t>(bc_max));
  ws.attn_bwd_dp.resize(static_cast<size_t>(bc_max));
  ws.attn_bwd_delta.resize(static_cast<size_t>(nq));
  float* kt = ws.attn_bwd_kt.data();
  float* vt = ws.attn_bwd_vt.data();
  float* p = ws.attn_bwd_p.data();
  float* dp = ws.attn_bwd_dp.data();
  float* delta = ws.attn_bwd_delta.data();
  std::fill(dQb, dQb + nq * d, 0.0f);
  std::fill(dKb, dKb + nkv * d, 0.0f);
  std::fill(dVb, dVb + nkv * d, 0.0f);

  // Δ_i = Σ_d dO[i,:]·O[i,:] — the softmax-backward row dot (Σ_j P·dP) in
  // flash form, computable without P because O = P·V is already normalized.
  for (int64_t i = 0; i < nq; ++i) {
    const float* orow = Ob + i * d;
    const float* grow = dOb + i * d;
    float acc = 0.0f;
    for (int64_t dd = 0; dd < d; ++dd) acc += grow[dd] * orow[dd];
    delta[i] = acc;
  }

  for (int64_t kv0 = 0; kv0 < nkv; kv0 += bc_max) {
    const int64_t bc = std::min(bc_max, nkv - kv0);
    // Pack K and V transposed, exactly like the forward packs K: the score
    // and dO·Vᵀ micro-kernels then run contiguously over j lanes with
    // reductions over d in fixed ascending order.
    for (int64_t j = 0; j < bc; ++j) {
      const float* krow = Kb + (kv0 + j) * d;
      const float* vrow = Vb + (kv0 + j) * d;
      for (int64_t dd = 0; dd < d; ++dd) {
        kt[dd * bc + j] = krow[dd];
        vt[dd * bc + j] = vrow[dd];
      }
    }
    for (int64_t i = 0; i < nq; ++i) {
      const float* qrow = Qb + i * d;
      const float* grow = dOb + i * d;
      // Recompute the score row for this block (same arithmetic as the
      // forward), then rebuild probabilities from the saved statistics:
      // P = exp(S - m) / l.  A masked key (-inf or -1e9 bias) yields an
      // exact 0; a fully masked row carries m = -inf, l = 0 and poisons
      // its gradients with NaN exactly like the reference backward.
      std::fill(p, p + bc, 0.0f);
      for (int64_t dd = 0; dd < d; ++dd) {
        const float qv = qrow[dd];
        const float* __restrict krow = kt + dd * bc;
        float* __restrict prow = p;
        for (int64_t j = 0; j < bc; ++j) prow[j] += qv * krow[j];
      }
      if (mrow != nullptr) {
        const float* mk = mrow + i * nkv + kv0;
        for (int64_t j = 0; j < bc; ++j) p[j] = p[j] * scale + mk[j];
      } else {
        for (int64_t j = 0; j < bc; ++j) p[j] *= scale;
      }
      const float mi = statsb[i * 2];
      const float inv_l = 1.0f / statsb[i * 2 + 1];
      for (int64_t j = 0; j < bc; ++j)
        p[j] = fast_expf(p[j] - mi) * inv_l;
      // dP = dO · Vᵀ over this block.
      std::fill(dp, dp + bc, 0.0f);
      for (int64_t dd = 0; dd < d; ++dd) {
        const float gv = grow[dd];
        const float* __restrict vrow = vt + dd * bc;
        float* __restrict dprow = dp;
        for (int64_t j = 0; j < bc; ++j) dprow[j] += gv * vrow[j];
      }
      // dS = P ∘ (dP - Δ_i) · scale, folded straight into the three
      // gradient accumulations — dS itself never exists as a row.
      const float di = delta[i];
      if constexpr (D > 0) {
        float dq[D] = {};
        for (int64_t j = 0; j < bc; ++j) {
          const float pj = p[j];
          const float ds = pj * (dp[j] - di) * scale;
          const float* krow = Kb + (kv0 + j) * D;
          float* dkrow = dKb + (kv0 + j) * D;
          float* dvrow = dVb + (kv0 + j) * D;
          for (int dd = 0; dd < D; ++dd) dq[dd] += ds * krow[dd];
          for (int dd = 0; dd < D; ++dd) dkrow[dd] += ds * qrow[dd];
          for (int dd = 0; dd < D; ++dd) dvrow[dd] += pj * grow[dd];
        }
        float* dqrow = dQb + i * D;
        for (int dd = 0; dd < D; ++dd) dqrow[dd] += dq[dd];
      } else {
        float* dqrow = dQb + i * d;
        for (int64_t j = 0; j < bc; ++j) {
          const float pj = p[j];
          const float ds = pj * (dp[j] - di) * scale;
          const float* krow = Kb + (kv0 + j) * d;
          float* dkrow = dKb + (kv0 + j) * d;
          float* dvrow = dVb + (kv0 + j) * d;
          for (int64_t dd = 0; dd < d; ++dd) dqrow[dd] += ds * krow[dd];
          for (int64_t dd = 0; dd < d; ++dd) dkrow[dd] += ds * qrow[dd];
          for (int64_t dd = 0; dd < d; ++dd) dvrow[dd] += pj * grow[dd];
        }
      }
    }
  }
}

}  // namespace

void attention_fused_backward(const float* Q, const float* K, const float* V,
                              const float* O, const float* dO,
                              const float* stats, float* dQ, float* dK,
                              float* dV, int64_t nbatch, int64_t nq,
                              int64_t nkv, int64_t d, float scale,
                              const float* mask,
                              const std::vector<int64_t>& mask_off) {
  if (nbatch <= 0 || nq <= 0 || nkv <= 0 || d <= 0) return;
  const KernelConfig& cfg = config();
  const int64_t bc_max = std::min(std::max<int64_t>(1, cfg.attn_bkv), nkv);
  // Head-dim specialization mirrors the forward (path depends only on d).
  auto task = attention_bwd_task<0>;
  switch (d) {
    case 4: task = attention_bwd_task<4>; break;
    case 8: task = attention_bwd_task<8>; break;
    case 16: task = attention_bwd_task<16>; break;
    case 32: task = attention_bwd_task<32>; break;
    case 64: task = attention_bwd_task<64>; break;
    default: break;
  }
  // One task per (batch × head) entry: dK/dV rows accumulate over *query*
  // rows, so splitting queries across tasks would either race or need a
  // deterministic reduction tree.  Batch × heads is the natural grain for
  // training workloads (B · nW · heads entries) and keeps every gradient
  // element owned by exactly one task.
  parallel_for(nbatch, 5 * nq * nkv * d, [&](int64_t lo, int64_t hi) {
    for (int64_t b = lo; b < hi; ++b) {
      const float* mrow =
          mask ? mask + mask_off[static_cast<size_t>(b)] : nullptr;
      task(Q + b * nq * d, K + b * nkv * d, V + b * nkv * d, O + b * nq * d,
           dO + b * nq * d, stats + b * nq * 2, mrow, dQ + b * nq * d,
           dK + b * nkv * d, dV + b * nkv * d, nq, nkv, d, scale, bc_max);
    }
  });
}

// ---------------------------------------------------------------------------
// Softmax / layer norm
// ---------------------------------------------------------------------------

void softmax_rows(const float* x, float* y, int64_t rows, int64_t cols) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  parallel_for(rows, cols * 8, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* row = x + r * cols;
      float* orow = y + r * cols;
      // Same structure as the fused-attention epilogue: lane-strided max,
      // a branch-free expf pass the compiler vectorizes (libm expf kept
      // this loop scalar and was the kernel's entire cost), lane-strided
      // sum — all via the shared lane_max/lane_sum helpers so the
      // association can never drift from the fused path.  Rows stay
      // bitwise identical across thread counts.  A NaN score falls out of
      // the max but poisons the row through exp(NaN); an all -inf row
      // yields exp(-inf - -inf) = NaN like libm.
      const float mx = lane_max(row, cols, kNegInf);
      for (int64_t c = 0; c < cols; ++c) orow[c] = fast_expf(row[c] - mx);
      const float denom = lane_sum(orow, cols);
      const float inv = 1.0f / denom;
      for (int64_t c = 0; c < cols; ++c) orow[c] *= inv;
    }
  });
}

void softmax_backward_rows(const float* g, const float* y, float* gx,
                           int64_t rows, int64_t cols) {
  parallel_for(rows, cols * 4, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* grow = g + r * cols;
      const float* orow = y + r * cols;
      // Lane-strided Σ g·y (the serial fma chain bottlenecked on add
      // latency and kept the whole kernel scalar), then an elementwise
      // pass the compiler vectorizes.  Association fixed at compile time
      // — rows stay bitwise identical across thread counts.
      const float dot = lane_dot(grow, orow, cols);
      float* __restrict gxr = gx + r * cols;
      for (int64_t c = 0; c < cols; ++c) gxr[c] = orow[c] * (grow[c] - dot);
    }
  });
}

void layer_norm_rows(const float* x, const float* gamma, const float* beta,
                     float* y, float* xhat, float* invstd, int64_t rows,
                     int64_t cols, float eps) {
  const double inv_n = 1.0 / static_cast<double>(cols);
  parallel_for(rows, cols * 4, [&](int64_t lo, int64_t hi) {
    // No-stash callers (inference / checkpoint initial passes) still run
    // the exact inner loop the training forward runs — a second,
    // store-free loop could be compiled with different FMA contraction
    // and break the bitwise checkpoint-recompute contract.  Their stash
    // stores land in one reused L1-resident workspace row instead of a
    // streamed numel-sized buffer.
    std::vector<float>& stash_row = workspace().ln_stash_row;
    if (xhat == nullptr) stash_row.resize(static_cast<size_t>(cols));
    for (int64_t r = lo; r < hi; ++r) {
      const float* row = x + r * cols;
      // Single pass: sum and sum-of-squares in double, then
      // var = E[x^2] - E[x]^2 (clamped against cancellation).
      double s = 0.0, sq = 0.0;
      for (int64_t c = 0; c < cols; ++c) {
        const double v = row[c];
        s += v;
        sq += v * v;
      }
      const double mu = s * inv_n;
      const double var = std::max(0.0, sq * inv_n - mu * mu);
      const float is = 1.0f / std::sqrt(static_cast<float>(var) + eps);
      if (invstd != nullptr) invstd[r] = is;
      const float muf = static_cast<float>(mu);
      float* orow = y + r * cols;
      float* xh = xhat != nullptr ? xhat + r * cols : stash_row.data();
      for (int64_t c = 0; c < cols; ++c) {
        const float h = (row[c] - muf) * is;
        xh[c] = h;
        orow[c] = gamma[c] * h + beta[c];
      }
    }
  });
}

void layer_norm_backward_rows(const float* g, const float* gamma,
                              const float* xhat, const float* invstd,
                              float* gx, float* ggamma, float* gbeta,
                              int64_t rows, int64_t cols) {
  // gx is row-parallel; the gamma/beta column reductions must stay in a
  // fixed row order for determinism, so they run serially afterwards.
  // The two per-row means accumulate in double over fixed lane strides
  // (8 doubles = one AVX-512 vector): the serial double chains dominated
  // the row cost, and the association is compile-time fixed so rows stay
  // bitwise identical everywhere.
  constexpr int kDLanes = 8;
  parallel_for(rows, cols * 6, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* __restrict grow = g + r * cols;
      const float* __restrict xh = xhat + r * cols;
      const float is = invstd[r];
      double p0[kDLanes] = {}, p1[kDLanes] = {};
      int64_t c = 0;
      for (; c + kDLanes <= cols; c += kDLanes) {
        for (int u = 0; u < kDLanes; ++u) {
          const float dxh = grow[c + u] * gamma[c + u];
          p0[u] += dxh;
          p1[u] += static_cast<double>(dxh) * xh[c + u];
        }
      }
      double mean_dxhat = 0.0, mean_dxhat_xhat = 0.0;
      for (int u = 0; u < kDLanes; ++u) {
        mean_dxhat += p0[u];
        mean_dxhat_xhat += p1[u];
      }
      for (; c < cols; ++c) {
        const float dxh = grow[c] * gamma[c];
        mean_dxhat += dxh;
        mean_dxhat_xhat += static_cast<double>(dxh) * xh[c];
      }
      mean_dxhat /= static_cast<double>(cols);
      mean_dxhat_xhat /= static_cast<double>(cols);
      const float m0 = static_cast<float>(mean_dxhat);
      const float m1 = static_cast<float>(mean_dxhat_xhat);
      float* __restrict gxr = gx + r * cols;
      for (int64_t j = 0; j < cols; ++j) {
        const float dxh = grow[j] * gamma[j];
        gxr[j] = is * (dxh - m0 - xh[j] * m1);
      }
    }
  });
  for (int64_t r = 0; r < rows; ++r) {
    const float* grow = g + r * cols;
    const float* xh = xhat + r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      ggamma[c] += grow[c] * xh[c];
      gbeta[c] += grow[c];
    }
  }
}

// ---------------------------------------------------------------------------
// Data movement
// ---------------------------------------------------------------------------

void transpose_last2(const float* src, float* dst, int64_t nbatch,
                     int64_t rows, int64_t cols) {
  constexpr int64_t kTile = 32;
  const int64_t rtiles = ceil_div(rows, kTile);
  parallel_for(nbatch * rtiles, kTile * cols, [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      const int64_t b = t / rtiles;
      const int64_t i0 = (t % rtiles) * kTile;
      const int64_t i1 = std::min(rows, i0 + kTile);
      const float* s = src + b * rows * cols;
      float* d = dst + b * rows * cols;
      for (int64_t j0 = 0; j0 < cols; j0 += kTile) {
        const int64_t j1 = std::min(cols, j0 + kTile);
        for (int64_t i = i0; i < i1; ++i)
          for (int64_t j = j0; j < j1; ++j) d[j * rows + i] = s[i * cols + j];
      }
    }
  });
}

namespace {

/// Incremental odometer over `shape` tracking a strided offset; O(1)
/// amortized per step with no per-element stride dot product.
struct StridedCursor {
  const Shape& shape;
  const Shape& strides;
  std::vector<int64_t> coords;
  int64_t offset = 0;

  StridedCursor(const Shape& s, const Shape& st, int64_t linear)
      : shape(s), strides(st), coords(s.size(), 0) {
    for (size_t i = s.size(); i-- > 0;) {
      if (linear == 0) break;
      coords[i] = linear % s[i];
      linear /= s[i];
      offset += coords[i] * st[i];
    }
  }

  /// Advance by one position over the axes [0, naxes) — callers that
  /// handle the last axis with an inner loop pass naxes = ndim-1.
  void next(size_t naxes) {
    for (size_t i = naxes; i-- > 0;) {
      offset += strides[i];
      if (++coords[i] < shape[i]) return;
      offset -= strides[i] * shape[i];
      coords[i] = 0;
    }
  }
};

}  // namespace

void permute_gather(const float* src, float* dst, const Shape& out_shape,
                    const Shape& gather_strides) {
  const int64_t total = tensor::numel(out_shape);
  if (total == 0) return;
  if (out_shape.empty()) {
    dst[0] = src[0];
    return;
  }
  const size_t nd = out_shape.size();
  const int64_t inner = out_shape[nd - 1];
  const int64_t s_last = gather_strides[nd - 1];
  const int64_t outer = total / std::max<int64_t>(1, inner);
  parallel_for(outer, inner, [&](int64_t lo, int64_t hi) {
    StridedCursor cur(out_shape, gather_strides, lo * inner);
    float* out = dst + lo * inner;
    for (int64_t o = lo; o < hi; ++o) {
      const float* base = src + cur.offset;
      if (s_last == 1) {
        std::memcpy(out, base, static_cast<size_t>(inner) * sizeof(float));
      } else {
        for (int64_t c = 0; c < inner; ++c) out[c] = base[c * s_last];
      }
      out += inner;
      cur.next(nd - 1);
    }
  });
}

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

namespace {

template <typename Fn>
void binary_same_apply(const float* a, const float* b, float* out, int64_t n,
                       Fn fn) {
  parallel_for(n, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[i] = fn(a[i], b[i]);
  });
}

template <typename Fn>
void binary_broadcast_apply(const float* a, const float* b, float* out,
                            const Shape& out_shape, const Shape& sa,
                            const Shape& sb, Fn fn) {
  const int64_t total = tensor::numel(out_shape);
  if (total == 0) return;
  const size_t nd = out_shape.size();
  const int64_t inner = nd ? out_shape[nd - 1] : 1;
  const int64_t sa_last = nd ? sa[nd - 1] : 0;
  const int64_t sb_last = nd ? sb[nd - 1] : 0;
  const int64_t outer = total / std::max<int64_t>(1, inner);
  parallel_for(outer, inner, [&](int64_t lo, int64_t hi) {
    StridedCursor ca(out_shape, sa, lo * inner);
    StridedCursor cb(out_shape, sb, lo * inner);
    float* o = out + lo * inner;
    for (int64_t r = lo; r < hi; ++r) {
      const float* pa = a + ca.offset;
      const float* pb = b + cb.offset;
      if (sa_last == 1 && sb_last == 1) {
        for (int64_t c = 0; c < inner; ++c) o[c] = fn(pa[c], pb[c]);
      } else if (sa_last == 1 && sb_last == 0) {
        const float bv = pb[0];
        for (int64_t c = 0; c < inner; ++c) o[c] = fn(pa[c], bv);
      } else if (sa_last == 0 && sb_last == 1) {
        const float av = pa[0];
        for (int64_t c = 0; c < inner; ++c) o[c] = fn(av, pb[c]);
      } else {
        for (int64_t c = 0; c < inner; ++c)
          o[c] = fn(pa[c * sa_last], pb[c * sb_last]);
      }
      o += inner;
      if (nd) {
        ca.next(nd - 1);
        cb.next(nd - 1);
      }
    }
  });
}

}  // namespace

void binary_same(BinOp op, const float* a, const float* b, float* out,
                 int64_t n) {
  switch (op) {
    case BinOp::kAdd:
      binary_same_apply(a, b, out, n, [](float x, float y) { return x + y; });
      break;
    case BinOp::kSub:
      binary_same_apply(a, b, out, n, [](float x, float y) { return x - y; });
      break;
    case BinOp::kMul:
      binary_same_apply(a, b, out, n, [](float x, float y) { return x * y; });
      break;
    case BinOp::kDiv:
      binary_same_apply(a, b, out, n, [](float x, float y) { return x / y; });
      break;
  }
}

void binary_broadcast(BinOp op, const float* a, const float* b, float* out,
                      const Shape& out_shape, const Shape& sa,
                      const Shape& sb) {
  switch (op) {
    case BinOp::kAdd:
      binary_broadcast_apply(a, b, out, out_shape, sa, sb,
                             [](float x, float y) { return x + y; });
      break;
    case BinOp::kSub:
      binary_broadcast_apply(a, b, out, out_shape, sa, sb,
                             [](float x, float y) { return x - y; });
      break;
    case BinOp::kMul:
      binary_broadcast_apply(a, b, out, out_shape, sa, sb,
                             [](float x, float y) { return x * y; });
      break;
    case BinOp::kDiv:
      binary_broadcast_apply(a, b, out, out_shape, sa, sb,
                             [](float x, float y) { return x / y; });
      break;
  }
}

void map(const float* x, float* out, int64_t n, int64_t cost,
         util::FunctionRef<void(const float*, float*, int64_t)> fn) {
  parallel_for(n, cost, [&](int64_t lo, int64_t hi) {
    fn(x + lo, out + lo, hi - lo);
  });
}

}  // namespace coastal::tensor::kernels
