#pragma once

/// \file storage.hpp
/// Pooled tensor storage, per-thread kernel workspaces, and episode arenas.
///
/// PR 1–3 made the kernels fast enough that the benches became
/// allocator-bound: every TensorImpl owned a fresh std::vector<float>, so
/// a forecast step performed thousands of mallocs (bimodal at the sizes
/// where glibc flips between brk and mmap).  This layer takes the
/// allocator out of every hot path, Marian-style:
///
///  * **Storage** — the single owner of every tensor's float buffer.
///    Allocation goes to (in priority order) the active thread-local
///    arena, the global size-bucketed free-list pool, or the heap.
///    `COASTAL_DISABLE_POOL=1` routes everything straight to the heap
///    (one real allocation per tensor — the debugging escape hatch that
///    keeps ASan/valgrind byte-precise).
///  * **Workspace** — named, grow-only per-thread scratch reused across
///    kernel calls (GEMM packing panels, fused-attention blocks and
///    statistics, batched-offset tables), so steady-state kernels never
///    allocate inside parallel_for tasks.
///  * **ArenaScope** — RAII bump allocator for activation tensors.  While
///    a scope is active on a thread, every Storage created on that thread
///    is carved out of large pooled chunks and the whole episode's
///    activations are released in bulk at scope exit.  `core::rollout`
///    and `core::workflow` wrap each no-grad forecast episode in one, so
///    steady-state inference performs **zero** per-op heap allocations
///    (pinned by tests via `alloc_stats().total_allocs`).
///
/// Tensor-lifetime rules:
///  * A tensor allocated inside an ArenaScope must not outlive the scope;
///    the scope destructor raises a loud CheckError if any arena-backed
///    storage is still alive (the escaped tensor's memory stays valid
///    until it dies — the error is diagnosable, not a use-after-free).
///  * `Tensor::from_vector` / `Storage::adopt` wrap the caller's
///    std::vector buffer and are **never** arena-backed — long-lived
///    caches (e.g. the Swin shifted-window mask cache) built inside an
///    episode are therefore always safe to retain.
///  * Accounting is liveness-based: `current_bytes`/`peak_bytes` track
///    requested bytes of *live* storages exactly as before the pool
///    (Table II benches read these); pool free lists and arena chunk
///    slack are backing capacity and are not charged.  `total_allocs`
///    counts only real heap acquisitions — pool hits and arena bumps
///    leave it untouched, which is what the zero-alloc tests pin.

#include <cstdint>
#include <memory>
#include <vector>

namespace coastal::tensor {

/// Allocation accounting (Table II / memory benches read these).
/// current/peak/total keep their historic meaning; the pool counters were
/// added with the storage layer.
struct AllocStats {
  uint64_t current_bytes;  ///< requested bytes of live storages
  uint64_t peak_bytes;     ///< high-water mark of current_bytes
  uint64_t total_allocs;   ///< real heap acquisitions (pool miss/heap/adopt)
  uint64_t pool_hits;      ///< storages served from a pool free list
  uint64_t pool_misses;    ///< pool requests that had to hit the heap
  uint64_t arena_allocs;   ///< storages bump-allocated from an ArenaScope
};
AllocStats alloc_stats();
void reset_peak_bytes();

/// Pool control (tests and debugging; normal code never calls these).
/// The pool starts enabled unless the COASTAL_DISABLE_POOL environment
/// variable is set to anything but "" or "0".
bool pool_enabled();
void set_pool_enabled(bool enabled);
/// Frees every cached free-list block back to the heap.
void pool_trim();
/// Bytes currently parked in pool free lists (excludes live storages).
uint64_t pool_cached_bytes();

namespace detail {
struct ArenaState;
}

/// Owner of one tensor's float buffer.  Move-only; the backing (arena,
/// pool bucket, raw heap, or an adopted std::vector) is an internal
/// detail — consumers only see data()/size().
class Storage {
 public:
  Storage() = default;
  ~Storage() { release(); }
  Storage(Storage&& o) noexcept { move_from(o); }
  Storage& operator=(Storage&& o) noexcept {
    if (this != &o) {
      release();
      move_from(o);
    }
    return *this;
  }
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  /// Uninitialized buffer of `n` floats: arena if one is active on this
  /// thread, else pooled, else heap.  Contents are unspecified (possibly
  /// recycled) — callers must fully initialize every element they read.
  static Storage uninit(int64_t n);
  static Storage zeros(int64_t n);
  static Storage full(int64_t n, float value);
  /// Pooled/arena copy of `src[0, n)`.
  static Storage copy_of(const float* src, int64_t n);
  /// Wraps an existing vector (no copy).  Heap-backed by definition, so
  /// the result may safely outlive any ArenaScope.
  static Storage adopt(std::vector<float> v);

  float* data() { return ptr_; }
  const float* data() const { return ptr_; }
  int64_t size() const { return size_; }
  float& operator[](int64_t i) { return ptr_[i]; }
  float operator[](int64_t i) const { return ptr_[i]; }
  float* begin() { return ptr_; }
  float* end() { return ptr_ + size_; }
  const float* begin() const { return ptr_; }
  const float* end() const { return ptr_ + size_; }

 private:
  enum class Backing : uint8_t { kNull, kPool, kHeap, kArena, kVector };

  void release();
  void move_from(Storage& o) noexcept;

  float* ptr_ = nullptr;
  int64_t size_ = 0;
  Backing backing_ = Backing::kNull;
  int32_t bucket_ = -1;                        ///< pool bucket (kPool)
  std::vector<float> vec_;                     ///< kVector backing
  std::shared_ptr<detail::ArenaState> arena_;  ///< kArena backing
};

/// RAII bump arena for activation tensors (thread-local; nests).  While
/// active, every Storage created on this thread is carved from pooled
/// chunks (`chunk_bytes` each, default 8 MB or COASTAL_ARENA_CHUNK_MB)
/// and freed in bulk when the scope exits — the pattern core::rollout /
/// core::workflow use per forecast episode.  The tradeoff is explicit:
/// arena memory is not reclaimed until scope exit, so an arena's
/// footprint is the episode's *total* allocation, not its liveness peak.
/// Inert when the pool is disabled (COASTAL_DISABLE_POOL debugging mode).
///
/// A storage still alive when the scope exits is a lifetime bug: the
/// destructor throws util::CheckError (or, mid-unwind, prints to stderr)
/// and keeps the chunks alive until the escapee dies so the error is
/// diagnosable rather than a use-after-free.
class ArenaScope {
 public:
  /// `chunk_bytes` == 0 picks the default chunk size.
  explicit ArenaScope(int64_t chunk_bytes = 0);
  ~ArenaScope() noexcept(false);
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  /// True when any arena is active on the calling thread.
  static bool active();
  /// Total bytes bump-served by this scope so far.
  int64_t allocated_bytes() const;

 private:
  std::shared_ptr<detail::ArenaState> state_;
};

/// Named per-thread scratch reused across kernel calls.  Buffers only
/// ever grow (std::vector resize keeps capacity), so steady-state kernel
/// execution performs no allocation at all.  One struct instead of
/// scattered function-local thread_locals so the retained footprint is
/// inspectable (bytes()) and releasable (release()) as a unit.
struct Workspace {
  // GEMM packing panels (gemm_rowblock / gemm_batched).
  std::vector<float> gemm_apack;
  std::vector<float> gemm_bpack;
  // Fused attention forward (attention_task).
  std::vector<float> attn_kt;
  std::vector<float> attn_scores;
  std::vector<float> attn_stat;
  // Fused attention backward (attention_bwd_task).
  std::vector<float> attn_bwd_kt;
  std::vector<float> attn_bwd_vt;
  std::vector<float> attn_bwd_p;
  std::vector<float> attn_bwd_dp;
  std::vector<float> attn_bwd_delta;
  // Layer-norm no-stash store target: one cols-sized row, overwritten per
  // row, so the stash-free forward runs the *same* inner loop as the
  // training forward (bitwise checkpoint-recompute consistency) while its
  // stash stores stay L1-resident instead of streaming a numel-sized
  // buffer.
  std::vector<float> ln_stash_row;
  // Fused patch-recovery head (nn::patch_recovery_head): per-call
  // BatchNorm statistics on the calling thread, and one tile of
  // activated rows + head outputs on each executing thread.
  std::vector<float> head_stats;
  std::vector<float> head_tile;
  // Batched-op offset tables (matmul broadcast offsets, attention mask
  // offsets) rebuilt per call into retained capacity.
  std::vector<int64_t> off_a;
  std::vector<int64_t> off_b;
  std::vector<int64_t> mask_off;
  std::vector<int64_t> head_offsets;  ///< fine point -> projection offsets

  /// Bytes currently retained by this thread's workspace.
  size_t bytes() const;
  /// Releases all retained buffers (tests / memory pressure).
  void release();
};

/// The calling thread's workspace.
Workspace& workspace();

}  // namespace coastal::tensor
