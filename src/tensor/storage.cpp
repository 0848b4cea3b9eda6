#include "tensor/storage.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>

#include "util/check.hpp"

namespace coastal::tensor {

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

namespace {

std::atomic<uint64_t> g_current_bytes{0};
std::atomic<uint64_t> g_peak_bytes{0};
std::atomic<uint64_t> g_total_allocs{0};
std::atomic<uint64_t> g_pool_hits{0};
std::atomic<uint64_t> g_pool_misses{0};
std::atomic<uint64_t> g_arena_allocs{0};

/// Charges `bytes` of *live* storage (liveness accounting — independent of
/// which backing served it, so Table II peak numbers mean what they always
/// meant).
void note_live(uint64_t bytes) {
  const uint64_t cur = g_current_bytes.fetch_add(bytes) + bytes;
  uint64_t peak = g_peak_bytes.load();
  while (cur > peak && !g_peak_bytes.compare_exchange_weak(peak, cur)) {
  }
}

void note_dead(uint64_t bytes) { g_current_bytes.fetch_sub(bytes); }

}  // namespace

AllocStats alloc_stats() {
  return {g_current_bytes.load(), g_peak_bytes.load(),  g_total_allocs.load(),
          g_pool_hits.load(),     g_pool_misses.load(), g_arena_allocs.load()};
}

void reset_peak_bytes() { g_peak_bytes.store(g_current_bytes.load()); }

// ---------------------------------------------------------------------------
// Size-bucketed free-list pool
// ---------------------------------------------------------------------------

namespace {

/// Buckets are powers of two from 64 floats (256 B — below that the
/// bucket header overhead of a general allocator is comparable anyway) up
/// to 16 Mi floats (64 MB).  Requests above the cap go straight to the
/// heap per call: at that size mmap/munmap is the right tool and caching
/// one-off giants would pin arbitrary RSS.
constexpr int64_t kMinBucketFloats = 64;
constexpr int kNumBuckets = 19;  // 64 << 18 = 16 Mi floats = 64 MB
constexpr int64_t kMaxPooledFloats = kMinBucketFloats << (kNumBuckets - 1);

int bucket_for(int64_t n) {
  int64_t cap = kMinBucketFloats;
  int b = 0;
  while (cap < n) {
    cap <<= 1;
    ++b;
  }
  return b;
}

int64_t bucket_floats(int bucket) { return kMinBucketFloats << bucket; }

/// All pool/heap blocks are 64-byte (cache-line) aligned: plain
/// `new float[]` only guarantees 16 bytes, which would quietly break the
/// arena's 64-byte bump padding and pessimize vectorized kernels that
/// straddle lines.  Frees must go through free_block (aligned delete).
float* alloc_block(int64_t nfloats) {
  return static_cast<float*>(::operator new(
      static_cast<size_t>(nfloats) * sizeof(float), std::align_val_t{64}));
}

void free_block(float* ptr) {
  ::operator delete(ptr, std::align_val_t{64});
}

struct Pool {
  std::mutex mu;
  std::vector<float*> free_lists[kNumBuckets];
  uint64_t cached_bytes = 0;
  std::atomic<bool> enabled;

  Pool() {
    const char* env = std::getenv("COASTAL_DISABLE_POOL");
    enabled = env == nullptr || env[0] == '\0' ||
              (env[0] == '0' && env[1] == '\0');
  }
};

Pool& pool() {
  static Pool* p = new Pool();  // leaked: storages may outlive main()
  return *p;
}

/// Acquires a block of at least `n` floats.  Returns the block and its
/// bucket index (-1 for a direct heap block above the pool cap).
float* pool_acquire(int64_t n, int32_t* bucket_out) {
  Pool& p = pool();
  if (n <= kMaxPooledFloats) {
    const int b = bucket_for(n);
    {
      std::lock_guard<std::mutex> lock(p.mu);
      auto& list = p.free_lists[b];
      if (!list.empty()) {
        float* ptr = list.back();
        list.pop_back();
        p.cached_bytes -=
            static_cast<uint64_t>(bucket_floats(b)) * sizeof(float);
        g_pool_hits.fetch_add(1, std::memory_order_relaxed);
        *bucket_out = b;
        return ptr;
      }
    }
    g_pool_misses.fetch_add(1, std::memory_order_relaxed);
    g_total_allocs.fetch_add(1, std::memory_order_relaxed);
    *bucket_out = b;
    return alloc_block(bucket_floats(b));
  }
  g_pool_misses.fetch_add(1, std::memory_order_relaxed);
  g_total_allocs.fetch_add(1, std::memory_order_relaxed);
  *bucket_out = -1;
  return alloc_block(n);
}

void pool_release(float* ptr, int32_t bucket) {
  if (bucket < 0) {
    free_block(ptr);
    return;
  }
  Pool& p = pool();
  if (p.enabled.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(p.mu);
    p.free_lists[bucket].push_back(ptr);
    p.cached_bytes +=
        static_cast<uint64_t>(bucket_floats(bucket)) * sizeof(float);
    return;
  }
  free_block(ptr);
}

}  // namespace

bool pool_enabled() {
  return pool().enabled.load(std::memory_order_relaxed);
}

void set_pool_enabled(bool enabled) {
  pool().enabled.store(enabled, std::memory_order_relaxed);
}

void pool_trim() {
  Pool& p = pool();
  std::lock_guard<std::mutex> lock(p.mu);
  for (auto& list : p.free_lists) {
    for (float* ptr : list) free_block(ptr);
    list.clear();
  }
  p.cached_bytes = 0;
}

uint64_t pool_cached_bytes() {
  Pool& p = pool();
  std::lock_guard<std::mutex> lock(p.mu);
  return p.cached_bytes;
}

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

namespace detail {

struct ArenaState {
  struct Chunk {
    float* ptr;
    int32_t bucket;  ///< pool bucket, or -1 for a direct heap chunk
    int64_t cap;     ///< usable floats
  };
  std::vector<Chunk> chunks;
  int64_t used = 0;           ///< floats consumed in the active (last) chunk
  int64_t chunk_floats = 0;   ///< default chunk size
  int64_t served_floats = 0;  ///< total floats bump-served (diagnostics)
  std::atomic<int64_t> live{0};  ///< arena-backed storages still alive

  ~ArenaState() {
    for (const Chunk& c : chunks) pool_release(c.ptr, c.bucket);
  }

  /// Bump-allocates `n` floats, 64-byte aligned, opening a new pooled
  /// chunk when the active one is exhausted.
  float* bump(int64_t n) {
    constexpr int64_t kAlignFloats = 16;  // 64-byte lines
    const int64_t need = (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
    if (chunks.empty() || used + need > chunks.back().cap) {
      const int64_t want = std::max(chunk_floats, need);
      Chunk c;
      c.ptr = pool_acquire(want, &c.bucket);
      c.cap = c.bucket >= 0 ? bucket_floats(c.bucket) : want;
      chunks.push_back(c);
      used = 0;
    }
    float* ptr = chunks.back().ptr + used;
    used += need;
    served_floats += need;
    return ptr;
  }
};

}  // namespace detail

namespace {

/// Active-arena stack of the calling thread (innermost scope last).
thread_local std::vector<std::shared_ptr<detail::ArenaState>> t_arena_stack;

int64_t default_arena_chunk_floats() {
  static const int64_t v = [] {
    constexpr int64_t kDefault = int64_t{8} << 20;  // 8 MB
    const char* env = std::getenv("COASTAL_ARENA_CHUNK_MB");
    if (env != nullptr && env[0] != '\0') {
      const long long mb = std::atoll(env);
      if (mb > 0) return (static_cast<int64_t>(mb) << 20) / 4;
    }
    return kDefault / 4;
  }();
  return v;
}

}  // namespace

ArenaScope::ArenaScope(int64_t chunk_bytes) {
  if (!pool_enabled()) return;  // debugging mode: every alloc is real
  state_ = std::make_shared<detail::ArenaState>();
  state_->chunk_floats = chunk_bytes > 0
                             ? std::max<int64_t>(1, chunk_bytes / 4)
                             : default_arena_chunk_floats();
  t_arena_stack.push_back(state_);
}

ArenaScope::~ArenaScope() noexcept(false) {
  if (!state_) return;
  // Unregister from the thread's stack FIRST — even on the error paths
  // below — so the stack can never point at a destroyed scope and one
  // misuse cannot cascade into failures in unrelated, correctly nested
  // scopes (or into bump allocations landing in a dead arena).
  const std::shared_ptr<detail::ArenaState> state = std::move(state_);
  const bool lifo = !t_arena_stack.empty() && t_arena_stack.back() == state;
  if (lifo) {
    t_arena_stack.pop_back();
  } else {
    const auto it =
        std::find(t_arena_stack.begin(), t_arena_stack.end(), state);
    if (it != t_arena_stack.end()) t_arena_stack.erase(it);
  }
  const int64_t live = state->live.load();
  // Escaped tensors keep the state (and thus the chunks — their memory
  // stays valid until they die) alive through their own references; our
  // `state` copy dies on every path out of here.  Throwing during
  // another exception's unwind would terminate, so degrade to stderr.
  const bool can_throw = std::uncaught_exceptions() == 0;
  if (!lifo) {
    COASTAL_CHECK_MSG(!can_throw,
                      "ArenaScope destroyed out of LIFO order (scopes "
                      "must nest on one thread)");
    std::fprintf(stderr,
                 "coastal: ArenaScope destroyed out of LIFO order "
                 "(suppressed during unwind)\n");
    return;
  }
  if (live != 0) {
    COASTAL_CHECK_MSG(!can_throw, live << " tensor(s) outlived their "
                                          "ArenaScope — arena-backed "
                                          "activations must die before "
                                          "the scope exits");
    std::fprintf(stderr,
                 "coastal: %lld tensor(s) outlived their ArenaScope "
                 "(suppressed during unwind)\n",
                 static_cast<long long>(live));
  }
}

bool ArenaScope::active() { return !t_arena_stack.empty(); }

int64_t ArenaScope::allocated_bytes() const {
  return state_ ? state_->served_floats * 4 : 0;
}

// ---------------------------------------------------------------------------
// Storage
// ---------------------------------------------------------------------------

void Storage::move_from(Storage& o) noexcept {
  ptr_ = o.ptr_;
  size_ = o.size_;
  backing_ = o.backing_;
  bucket_ = o.bucket_;
  vec_ = std::move(o.vec_);
  arena_ = std::move(o.arena_);
  o.ptr_ = nullptr;
  o.size_ = 0;
  o.backing_ = Backing::kNull;
  o.bucket_ = -1;
}

void Storage::release() {
  if (backing_ == Backing::kNull) return;
  note_dead(static_cast<uint64_t>(size_) * sizeof(float));
  switch (backing_) {
    case Backing::kPool:
      pool_release(ptr_, bucket_);
      break;
    case Backing::kHeap:
      free_block(ptr_);
      break;
    case Backing::kArena:
      arena_->live.fetch_sub(1);
      arena_.reset();
      break;
    case Backing::kVector:
      vec_ = std::vector<float>();
      break;
    case Backing::kNull:
      break;
  }
  ptr_ = nullptr;
  size_ = 0;
  backing_ = Backing::kNull;
  bucket_ = -1;
}

Storage Storage::uninit(int64_t n) {
  Storage s;
  if (n <= 0) return s;
  s.size_ = n;
  if (!pool_enabled()) {
    s.ptr_ = alloc_block(n);
    s.backing_ = Backing::kHeap;
    g_total_allocs.fetch_add(1, std::memory_order_relaxed);
  } else if (!t_arena_stack.empty()) {
    auto& state = t_arena_stack.back();
    s.ptr_ = state->bump(n);
    s.backing_ = Backing::kArena;
    s.arena_ = state;
    state->live.fetch_add(1);
    g_arena_allocs.fetch_add(1, std::memory_order_relaxed);
  } else {
    s.ptr_ = pool_acquire(n, &s.bucket_);
    s.backing_ = Backing::kPool;
  }
  note_live(static_cast<uint64_t>(n) * sizeof(float));
  return s;
}

Storage Storage::zeros(int64_t n) {
  Storage s = uninit(n);
  if (s.ptr_ != nullptr)
    std::memset(s.ptr_, 0, static_cast<size_t>(n) * sizeof(float));
  return s;
}

Storage Storage::full(int64_t n, float value) {
  Storage s = uninit(n);
  std::fill(s.begin(), s.end(), value);
  return s;
}

Storage Storage::copy_of(const float* src, int64_t n) {
  Storage s = uninit(n);
  if (n > 0)
    std::memcpy(s.ptr_, src, static_cast<size_t>(n) * sizeof(float));
  return s;
}

Storage Storage::adopt(std::vector<float> v) {
  Storage s;
  s.vec_ = std::move(v);
  s.ptr_ = s.vec_.data();
  s.size_ = static_cast<int64_t>(s.vec_.size());
  s.backing_ = s.size_ > 0 ? Backing::kVector : Backing::kNull;
  if (s.size_ > 0) {
    // The vector's buffer was a real heap allocation entering the tensor
    // system — count it like the pre-pool accounting did.
    g_total_allocs.fetch_add(1, std::memory_order_relaxed);
    note_live(static_cast<uint64_t>(s.size_) * sizeof(float));
  }
  return s;
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

size_t Workspace::bytes() const {
  const size_t f =
      gemm_apack.capacity() + gemm_bpack.capacity() + attn_kt.capacity() +
      attn_scores.capacity() + attn_stat.capacity() + attn_bwd_kt.capacity() +
      attn_bwd_vt.capacity() + attn_bwd_p.capacity() + attn_bwd_dp.capacity() +
      attn_bwd_delta.capacity() + ln_stash_row.capacity() +
      head_stats.capacity() + head_tile.capacity();
  const size_t i = off_a.capacity() + off_b.capacity() +
                   mask_off.capacity() + head_offsets.capacity();
  return f * sizeof(float) + i * sizeof(int64_t);
}

void Workspace::release() { *this = Workspace(); }

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace coastal::tensor
