#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "tensor/kernels.hpp"

namespace coastal::tensor {

// ---------------------------------------------------------------------------
// Impl construction (allocation accounting lives in storage.cpp now)
// ---------------------------------------------------------------------------

TensorImpl::TensorImpl(Shape s, Storage d)
    : shape(std::move(s)), data(std::move(d)) {
  COASTAL_CHECK_MSG(data.size() == tensor::numel(shape),
                    "data size " << data.size() << " != numel of "
                                 << shape_str(shape));
}

TensorImpl::TensorImpl(Shape s, std::vector<float> d)
    : TensorImpl(std::move(s), Storage::adopt(std::move(d))) {}

TensorImpl::~TensorImpl() = default;

namespace {
thread_local bool t_grad_enabled = true;
}  // namespace

bool grad_enabled() { return t_grad_enabled; }

NoGradGuard::NoGradGuard() : prev_(t_grad_enabled) { t_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { t_grad_enabled = prev_; }

GradModeGuard::GradModeGuard(bool enable) : prev_(t_grad_enabled) {
  t_grad_enabled = enable;
}
GradModeGuard::~GradModeGuard() { t_grad_enabled = prev_; }

// ---------------------------------------------------------------------------
// Op-result construction
// ---------------------------------------------------------------------------

namespace {

bool needs_graph(const std::vector<Tensor>& parents) {
  if (!t_grad_enabled) return false;
  for (const auto& p : parents) {
    if (p.defined() && (p.requires_grad() || p.has_grad_fn())) return true;
  }
  return false;
}

Tensor make_result(
    Shape shape, Storage data, const char* name, std::vector<Tensor> parents,
    std::function<std::vector<Tensor>(const Tensor&)> backward) {
  auto impl = std::make_shared<TensorImpl>(std::move(shape), std::move(data));
  if (needs_graph(parents)) {
    auto node = std::make_shared<Node>();
    node->name = name;
    node->parents.reserve(parents.size());
    for (const auto& p : parents) node->parents.push_back(p.impl());
    node->backward = std::move(backward);
    impl->grad_fn = std::move(node);
  }
  return Tensor(std::move(impl));
}

/// Accumulate `g` into `acc` (clone on first write so the source graph's
/// buffers are never aliased).
void add_into(Tensor& acc, const Tensor& g) {
  if (!acc.defined()) {
    acc = g.clone();
    return;
  }
  COASTAL_CHECK(acc.shape() == g.shape());
  kernels::binary_same(kernels::BinOp::kAdd, acc.raw(), g.raw(), acc.raw(),
                       acc.numel());
}

/// Non-differentiable broadcast materialization (backward helper).
Tensor broadcast_to(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t;
  const Shape bstr = broadcast_strides(t.shape(), target);
  Storage out = Storage::uninit(tensor::numel(target));
  CoordIter it(target);
  const float* src = t.raw();
  int64_t k = 0;
  do {
    out[k++] = src[dot_strides(it.coords(), bstr)];
  } while (it.next());
  return Tensor::from_storage(target, std::move(out));
}

int normalize_axis(int axis, size_t ndim) {
  int a = axis < 0 ? axis + static_cast<int>(ndim) : axis;
  COASTAL_CHECK_MSG(a >= 0 && a < static_cast<int>(ndim),
                    "axis " << axis << " out of range for ndim " << ndim);
  return a;
}

}  // namespace

// ---------------------------------------------------------------------------
// Creation
// ---------------------------------------------------------------------------

Tensor Tensor::zeros(const Shape& shape) {
  return from_storage(shape, Storage::zeros(tensor::numel(shape)));
}

Tensor Tensor::ones(const Shape& shape) { return full(shape, 1.0f); }

Tensor Tensor::full(const Shape& shape, float value) {
  return from_storage(shape, Storage::full(tensor::numel(shape), value));
}

Tensor Tensor::from_vector(const Shape& shape, std::vector<float> values) {
  return from_storage(shape, Storage::adopt(std::move(values)));
}

Tensor Tensor::from_storage(const Shape& shape, Storage data) {
  return Tensor(std::make_shared<TensorImpl>(shape, std::move(data)));
}

Tensor Tensor::randn(const Shape& shape, util::Rng& rng, float stddev) {
  Storage v = Storage::uninit(tensor::numel(shape));
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, stddev));
  return from_storage(shape, std::move(v));
}

Tensor Tensor::uniform(const Shape& shape, util::Rng& rng, float lo, float hi) {
  Storage v = Storage::uninit(tensor::numel(shape));
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return from_storage(shape, std::move(v));
}

Tensor Tensor::arange(int64_t n) {
  Storage v = Storage::uninit(n);
  for (int64_t i = 0; i < n; ++i) v[i] = static_cast<float>(i);
  return from_storage({n}, std::move(v));
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

float Tensor::item() const {
  COASTAL_CHECK_MSG(numel() == 1, "item() on tensor of " << numel() << " elems");
  return impl_->data[0];
}

float Tensor::at(const std::vector<int64_t>& coords) const {
  COASTAL_CHECK(coords.size() == ndim());
  const Shape st = strides_of(shape());
  return impl_->data[dot_strides(coords, st)];
}

void Tensor::set(const std::vector<int64_t>& coords, float v) {
  COASTAL_CHECK(coords.size() == ndim());
  const Shape st = strides_of(shape());
  impl_->data[dot_strides(coords, st)] = v;
}

// ---------------------------------------------------------------------------
// Autograd plumbing
// ---------------------------------------------------------------------------

Tensor& Tensor::set_requires_grad(bool rg) {
  COASTAL_CHECK_MSG(!impl_->grad_fn,
                    "requires_grad can only be set on leaf tensors");
  impl_->requires_grad = rg;
  return *this;
}

Tensor Tensor::grad() const {
  return impl_->grad ? Tensor(impl_->grad) : Tensor();
}

void Tensor::zero_grad() { impl_->grad.reset(); }

void Tensor::accumulate_grad(const Tensor& g) {
  COASTAL_CHECK(g.shape() == shape());
  if (!impl_->grad) {
    impl_->grad = g.clone().impl();
    return;
  }
  kernels::binary_same(kernels::BinOp::kAdd, impl_->grad->data.data(),
                       g.raw(), impl_->grad->data.data(), numel());
}

void Tensor::backward(const Tensor& seed) const {
  COASTAL_CHECK_MSG(impl_ != nullptr, "backward() on undefined tensor");
  // Topological order of impls reachable through grad_fn edges.
  std::vector<TensorImpl*> order;
  {
    std::unordered_set<TensorImpl*> visited;
    // Iterative DFS with explicit post-order.
    struct Frame {
      TensorImpl* impl;
      size_t next_child;
    };
    std::vector<Frame> stack;
    stack.push_back({impl_.get(), 0});
    visited.insert(impl_.get());
    while (!stack.empty()) {
      Frame& f = stack.back();
      Node* node = f.impl->grad_fn.get();
      const size_t nchildren = node ? node->parents.size() : 0;
      if (f.next_child < nchildren) {
        TensorImpl* child = node->parents[f.next_child++].get();
        if (child && !visited.count(child) && child->grad_fn) {
          visited.insert(child);
          stack.push_back({child, 0});
        }
      } else {
        order.push_back(f.impl);
        stack.pop_back();
      }
    }
  }

  std::unordered_map<TensorImpl*, Tensor> gradmap;
  {
    Tensor s = seed.defined() ? seed : Tensor::ones(shape());
    COASTAL_CHECK_MSG(s.shape() == shape(), "backward seed shape mismatch");
    if (!impl_->grad_fn) {
      // Root is itself a leaf; nothing to traverse.
      if (impl_->requires_grad) const_cast<Tensor*>(this)->accumulate_grad(s);
      return;
    }
    gradmap[impl_.get()] = s.clone();
  }

  NoGradGuard no_grad;
  // `order` is post-order (children before parents-of-graph == producers
  // before consumers? no: DFS from root descends to producers, so root is
  // last).  Reverse iteration visits the root first, then upstream.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* impl = *it;
    if (!impl->grad_fn) continue;
    auto found = gradmap.find(impl);
    if (found == gradmap.end()) continue;  // unused branch
    const Tensor g = found->second;
    std::vector<Tensor> pgrads = impl->grad_fn->backward(g);
    COASTAL_CHECK(pgrads.size() == impl->grad_fn->parents.size());
    for (size_t i = 0; i < pgrads.size(); ++i) {
      if (!pgrads[i].defined()) continue;
      TensorImpl* parent = impl->grad_fn->parents[i].get();
      if (parent->grad_fn) {
        add_into(gradmap[parent], pgrads[i]);
      } else if (parent->requires_grad) {
        Tensor(impl->grad_fn->parents[i]).accumulate_grad(pgrads[i]);
      }
    }
    gradmap.erase(found);  // free as we go
  }
}

Tensor Tensor::detach() const {
  return from_storage(shape(), Storage::copy_of(raw(), numel()));
}

Tensor Tensor::clone() const { return detach(); }

// ---------------------------------------------------------------------------
// Elementwise binary ops with broadcasting
// ---------------------------------------------------------------------------

namespace {

Storage broadcast_apply(const Tensor& a, const Tensor& b,
                        const Shape& out_shape, kernels::BinOp op) {
  Storage out = Storage::uninit(tensor::numel(out_shape));
  if (a.shape() == b.shape()) {
    kernels::binary_same(op, a.raw(), b.raw(), out.data(), out.size());
    return out;
  }
  const Shape sa = broadcast_strides(a.shape(), out_shape);
  const Shape sb = broadcast_strides(b.shape(), out_shape);
  kernels::binary_broadcast(op, a.raw(), b.raw(), out.data(), out_shape, sa,
                            sb);
  return out;
}

}  // namespace

Tensor Tensor::add(const Tensor& o) const {
  const Shape out_shape = broadcast_shapes(shape(), o.shape());
  auto out = broadcast_apply(*this, o, out_shape, kernels::BinOp::kAdd);
  const Shape sa = shape(), sb = o.shape();
  return make_result(out_shape, std::move(out), "add", {*this, o},
                     [sa, sb](const Tensor& g) -> std::vector<Tensor> {
                       return {g.sum_to(sa), g.sum_to(sb)};
                     });
}

Tensor Tensor::sub(const Tensor& o) const {
  const Shape out_shape = broadcast_shapes(shape(), o.shape());
  auto out = broadcast_apply(*this, o, out_shape, kernels::BinOp::kSub);
  const Shape sa = shape(), sb = o.shape();
  return make_result(out_shape, std::move(out), "sub", {*this, o},
                     [sa, sb](const Tensor& g) -> std::vector<Tensor> {
                       return {g.sum_to(sa), g.neg().sum_to(sb)};
                     });
}

Tensor Tensor::mul(const Tensor& o) const {
  const Shape out_shape = broadcast_shapes(shape(), o.shape());
  auto out = broadcast_apply(*this, o, out_shape, kernels::BinOp::kMul);
  Tensor a = *this, b = o;
  return make_result(out_shape, std::move(out), "mul", {a, b},
                     [a, b](const Tensor& g) -> std::vector<Tensor> {
                       Tensor ga = g.mul(b).sum_to(a.shape());
                       Tensor gb = g.mul(a).sum_to(b.shape());
                       return {ga, gb};
                     });
}

Tensor Tensor::div(const Tensor& o) const {
  const Shape out_shape = broadcast_shapes(shape(), o.shape());
  auto out = broadcast_apply(*this, o, out_shape, kernels::BinOp::kDiv);
  Tensor a = *this, b = o;
  return make_result(
      out_shape, std::move(out), "div", {a, b},
      [a, b](const Tensor& g) -> std::vector<Tensor> {
        Tensor ga = g.div(b).sum_to(a.shape());
        Tensor gb = g.mul(a).div(b.mul(b)).neg().sum_to(b.shape());
        return {ga, gb};
      });
}

// ---------------------------------------------------------------------------
// Elementwise unary ops
// ---------------------------------------------------------------------------

namespace {

/// Relative per-element cost hint for parallel chunking: transcendental
/// unary ops are worth parallelizing at smaller sizes than plain
/// arithmetic.
constexpr int64_t kUnaryCost = 8;

template <typename FwdFn, typename BwdFn>
Tensor unary_op(const Tensor& x, const char* name, FwdFn fwd, BwdFn bwd) {
  Storage out = Storage::uninit(x.numel());
  kernels::map(x.raw(), out.data(), x.numel(), kUnaryCost,
               [fwd](const float* in, float* o, int64_t n) {
                 for (int64_t i = 0; i < n; ++i) o[i] = fwd(in[i]);
               });
  Tensor saved_x = x;
  Tensor result = make_result(
      x.shape(), std::move(out), name, {x},
      [saved_x, bwd](const Tensor& g) -> std::vector<Tensor> {
        Storage gx = Storage::uninit(g.numel());
        const float* pg = g.raw();
        const float* px = saved_x.raw();
        kernels::map(px, gx.data(), g.numel(), kUnaryCost,
                     [bwd, pg, px](const float* in, float* o, int64_t n) {
                       const int64_t base = in - px;
                       for (int64_t i = 0; i < n; ++i)
                         o[i] = bwd(pg[base + i], in[i]);
                     });
        return {Tensor::from_storage(saved_x.shape(), std::move(gx))};
      });
  return result;
}

}  // namespace

Tensor Tensor::neg() const {
  return unary_op(*this, "neg", [](float x) { return -x; },
                  [](float g, float) { return -g; });
}

Tensor Tensor::add_scalar(float s) const {
  return unary_op(*this, "add_scalar", [s](float x) { return x + s; },
                  [](float g, float) { return g; });
}

Tensor Tensor::mul_scalar(float s) const {
  return unary_op(*this, "mul_scalar", [s](float x) { return x * s; },
                  [s](float g, float) { return g * s; });
}

Tensor Tensor::pow_scalar(float p) const {
  return unary_op(*this, "pow_scalar",
                  [p](float x) { return std::pow(x, p); },
                  [p](float g, float x) {
                    return g * p * std::pow(x, p - 1.0f);
                  });
}

Tensor Tensor::exp() const {
  return unary_op(*this, "exp", [](float x) { return std::exp(x); },
                  [](float g, float x) { return g * std::exp(x); });
}

Tensor Tensor::log() const {
  return unary_op(*this, "log", [](float x) { return std::log(x); },
                  [](float g, float x) { return g / x; });
}

Tensor Tensor::sqrt() const {
  return unary_op(*this, "sqrt", [](float x) { return std::sqrt(x); },
                  [](float g, float x) {
                    return g * 0.5f / std::sqrt(x);
                  });
}

Tensor Tensor::tanh() const {
  return unary_op(*this, "tanh", [](float x) { return std::tanh(x); },
                  [](float g, float x) {
                    const float t = std::tanh(x);
                    return g * (1.0f - t * t);
                  });
}

Tensor Tensor::sigmoid() const {
  return unary_op(*this, "sigmoid",
                  [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
                  [](float g, float x) {
                    const float s = 1.0f / (1.0f + std::exp(-x));
                    return g * s * (1.0f - s);
                  });
}

Tensor Tensor::relu() const {
  return unary_op(*this, "relu", [](float x) { return x > 0 ? x : 0.0f; },
                  [](float g, float x) { return x > 0 ? g : 0.0f; });
}

Tensor Tensor::gelu() const {
  constexpr float kInvSqrt2 = 0.7071067811865475f;
  constexpr float kInvSqrt2Pi = 0.3989422804014327f;
  return unary_op(
      *this, "gelu", [](float x) { return kernels::gelu_erf(x); },
      [](float g, float x) {
        const float cdf = 0.5f * (1.0f + std::erf(x * kInvSqrt2));
        const float pdf = kInvSqrt2Pi * std::exp(-0.5f * x * x);
        return g * (cdf + x * pdf);
      });
}

Tensor Tensor::abs() const {
  return unary_op(*this, "abs", [](float x) { return std::abs(x); },
                  [](float g, float x) {
                    return x >= 0 ? g : -g;
                  });
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

Tensor Tensor::sum() const {
  double acc = 0.0;
  for (float v : impl_->data) acc += v;
  const Shape in_shape = shape();
  return make_result({1}, Storage::full(1, static_cast<float>(acc)), "sum",
                     {*this},
                     [in_shape](const Tensor& g) -> std::vector<Tensor> {
                       return {broadcast_to(
                           g.reshape(Shape(in_shape.size(), 1)), in_shape)};
                     });
}

Tensor Tensor::mean() const { return sum().mul_scalar(1.0f / static_cast<float>(numel())); }

Tensor Tensor::sum_axis(int axis, bool keepdim) const {
  const int a = normalize_axis(axis, ndim());
  const Shape in = shape();
  Shape keep = in;
  keep[static_cast<size_t>(a)] = 1;
  // Iterate as [outer, axis, inner].
  int64_t outer = 1, inner = 1;
  for (int i = 0; i < a; ++i) outer *= in[static_cast<size_t>(i)];
  for (size_t i = static_cast<size_t>(a) + 1; i < in.size(); ++i) inner *= in[i];
  const int64_t len = in[static_cast<size_t>(a)];
  Storage out = Storage::zeros(outer * inner);
  const float* p = raw();
  for (int64_t o = 0; o < outer; ++o)
    for (int64_t l = 0; l < len; ++l)
      for (int64_t i = 0; i < inner; ++i)
        out[o * inner + i] += p[static_cast<size_t>((o * len + l) * inner + i)];

  Shape out_shape = keep;
  if (!keepdim) out_shape.erase(out_shape.begin() + a);
  if (out_shape.empty()) out_shape = {1};
  return make_result(out_shape, std::move(out), "sum_axis", {*this},
                     [in, keep](const Tensor& g) -> std::vector<Tensor> {
                       return {broadcast_to(g.reshape(keep), in)};
                     });
}

Tensor Tensor::mean_axis(int axis, bool keepdim) const {
  const int a = normalize_axis(axis, ndim());
  const float inv = 1.0f / static_cast<float>(shape()[static_cast<size_t>(a)]);
  return sum_axis(axis, keepdim).mul_scalar(inv);
}

Tensor Tensor::max_axis(int axis, bool keepdim) const {
  const int a = normalize_axis(axis, ndim());
  const Shape in = shape();
  Shape keep = in;
  keep[static_cast<size_t>(a)] = 1;
  int64_t outer = 1, inner = 1;
  for (int i = 0; i < a; ++i) outer *= in[static_cast<size_t>(i)];
  for (size_t i = static_cast<size_t>(a) + 1; i < in.size(); ++i) inner *= in[i];
  const int64_t len = in[static_cast<size_t>(a)];
  Storage out =
      Storage::full(outer * inner, -std::numeric_limits<float>::infinity());
  auto argmax = std::make_shared<std::vector<int64_t>>(
      static_cast<size_t>(outer * inner), 0);
  const float* p = raw();
  for (int64_t o = 0; o < outer; ++o)
    for (int64_t l = 0; l < len; ++l)
      for (int64_t i = 0; i < inner; ++i) {
        const float v = p[static_cast<size_t>((o * len + l) * inner + i)];
        const int64_t oi = o * inner + i;
        if (v > out[oi]) {
          out[oi] = v;
          (*argmax)[static_cast<size_t>(oi)] = l;
        }
      }
  Shape out_shape = keep;
  if (!keepdim) out_shape.erase(out_shape.begin() + a);
  if (out_shape.empty()) out_shape = {1};
  return make_result(
      out_shape, std::move(out), "max_axis", {*this},
      [in, outer, inner, len, argmax](const Tensor& g) -> std::vector<Tensor> {
        Storage gx = Storage::zeros(tensor::numel(in));
        const float* pg = g.raw();
        for (int64_t o = 0; o < outer; ++o)
          for (int64_t i = 0; i < inner; ++i) {
            const size_t oi = static_cast<size_t>(o * inner + i);
            const int64_t l = (*argmax)[oi];
            gx[(o * len + l) * inner + i] = pg[oi];
          }
        return {Tensor::from_storage(in, std::move(gx))};
      });
}

Tensor Tensor::sum_to(const Shape& target) const {
  if (shape() == target) return *this;
  // Sum over leading extra axes and over broadcast axes.
  Storage out = Storage::zeros(tensor::numel(target));
  const Shape tstr = broadcast_strides(target, shape());
  CoordIter it(shape());
  const float* p = raw();
  size_t k = 0;
  do {
    out[dot_strides(it.coords(), tstr)] += p[k++];
  } while (it.next());
  return Tensor::from_storage(target, std::move(out));
}

// ---------------------------------------------------------------------------
// Matmul
// ---------------------------------------------------------------------------

namespace {

Shape batch_dims(const Shape& s) {
  return Shape(s.begin(), s.end() - 2);
}

}  // namespace

Tensor Tensor::matmul(const Tensor& o) const {
  COASTAL_CHECK_MSG(ndim() >= 2 && o.ndim() >= 2,
                    "matmul needs >=2-d operands");
  const int64_t m = shape()[ndim() - 2];
  const int64_t k = shape()[ndim() - 1];
  const int64_t k2 = o.shape()[o.ndim() - 2];
  const int64_t n = o.shape()[o.ndim() - 1];
  COASTAL_CHECK_MSG(k == k2, "matmul inner dims " << k << " vs " << k2);

  const Shape batch = broadcast_shapes(batch_dims(shape()), batch_dims(o.shape()));
  Shape out_shape = batch;
  out_shape.push_back(m);
  out_shape.push_back(n);

  const int64_t nbatch = tensor::numel(batch);
  Storage out = Storage::zeros(nbatch * m * n);

  // Per-batch offsets honoring broadcast (stride 0 on broadcast axes).
  const Shape abatch = batch_dims(shape());
  const Shape bbatch = batch_dims(o.shape());
  const Shape astr = broadcast_strides(abatch, batch);
  const Shape bstr = broadcast_strides(bbatch, batch);
  // Flatten broadcast batch coordinates to per-entry operand offsets, then
  // hand the whole problem to the blocked batched kernel (parallel over
  // batch entries and row blocks).  The offset tables are per-thread
  // workspace scratch — rebuilt each call into retained capacity, done
  // with before this function returns (gemm_batched keeps no reference).
  Workspace& ws = workspace();
  std::vector<int64_t>& a_off = ws.off_a;
  std::vector<int64_t>& b_off = ws.off_b;
  a_off.assign(static_cast<size_t>(nbatch), 0);
  b_off.assign(static_cast<size_t>(nbatch), 0);
  if (!batch.empty()) {
    CoordIter it(batch);
    size_t bi = 0;
    do {
      a_off[bi] = dot_strides(it.coords(), astr) * m * k;
      b_off[bi] = dot_strides(it.coords(), bstr) * k * n;
      ++bi;
    } while (it.next());
  }
  kernels::gemm_batched(raw(), o.raw(), out.data(), m, k, n, nbatch, a_off,
                        b_off);

  Tensor a = *this, b = o;
  return make_result(out_shape, std::move(out), "matmul", {a, b},
                     [a, b](const Tensor& g) -> std::vector<Tensor> {
                       Tensor ga = g.matmul(b.transpose_last()).sum_to(a.shape());
                       Tensor gb = a.transpose_last().matmul(g).sum_to(b.shape());
                       return {ga, gb};
                     });
}

Tensor Tensor::transpose_last() const {
  COASTAL_CHECK(ndim() >= 2);
  std::vector<size_t> perm(ndim());
  for (size_t i = 0; i < ndim(); ++i) perm[i] = i;
  std::swap(perm[ndim() - 2], perm[ndim() - 1]);
  return permute(perm);
}

// ---------------------------------------------------------------------------
// Shape ops
// ---------------------------------------------------------------------------

Tensor Tensor::reshape(const Shape& new_shape) const {
  Shape resolved = new_shape;
  int64_t known = 1;
  int infer = -1;
  for (size_t i = 0; i < resolved.size(); ++i) {
    if (resolved[i] == -1) {
      COASTAL_CHECK_MSG(infer < 0, "reshape: more than one -1");
      infer = static_cast<int>(i);
    } else {
      known *= resolved[i];
    }
  }
  if (infer >= 0) resolved[static_cast<size_t>(infer)] = numel() / known;
  COASTAL_CHECK_MSG(tensor::numel(resolved) == numel(),
                    "reshape " << shape_str(shape()) << " -> "
                               << shape_str(resolved));
  const Shape in = shape();
  Storage out = Storage::copy_of(raw(), numel());
  return make_result(resolved, std::move(out), "reshape", {*this},
                     [in](const Tensor& g) -> std::vector<Tensor> {
                       return {g.reshape(in)};
                     });
}

Tensor Tensor::permute(const std::vector<size_t>& perm) const {
  COASTAL_CHECK(perm.size() == ndim());
  Shape out_shape(ndim());
  for (size_t i = 0; i < ndim(); ++i) out_shape[i] = shape()[perm[i]];
  const Shape in_str = strides_of(shape());
  Shape gather_str(ndim());
  for (size_t i = 0; i < ndim(); ++i) gather_str[i] = in_str[perm[i]];

  // Last-two-axes swap (the transpose_last pattern dominating attention)
  // gets a blocked tile transpose; anything else takes the generic
  // incremental gather.
  bool last_two_swap = ndim() >= 2;
  for (size_t i = 0; last_two_swap && i + 2 < ndim(); ++i)
    last_two_swap = perm[i] == i;
  last_two_swap = last_two_swap && ndim() >= 2 &&
                  perm[ndim() - 2] == ndim() - 1 &&
                  perm[ndim() - 1] == ndim() - 2;

  Storage out = Storage::uninit(numel());
  if (last_two_swap && numel() > 0) {
    const int64_t rows = shape()[ndim() - 2];
    const int64_t cols = shape()[ndim() - 1];
    kernels::transpose_last2(raw(), out.data(), numel() / (rows * cols),
                             rows, cols);
  } else {
    kernels::permute_gather(raw(), out.data(), out_shape, gather_str);
  }

  std::vector<size_t> inv(ndim());
  for (size_t i = 0; i < ndim(); ++i) inv[perm[i]] = i;
  return make_result(out_shape, std::move(out), "permute", {*this},
                     [inv](const Tensor& g) -> std::vector<Tensor> {
                       return {g.permute(inv)};
                     });
}

Tensor Tensor::slice(int axis, int64_t start, int64_t len) const {
  const int a = normalize_axis(axis, ndim());
  const Shape in = shape();
  COASTAL_CHECK_MSG(start >= 0 && start + len <= in[static_cast<size_t>(a)],
                    "slice [" << start << "," << start + len << ") out of dim "
                              << in[static_cast<size_t>(a)]);
  Shape out_shape = in;
  out_shape[static_cast<size_t>(a)] = len;
  int64_t outer = 1, inner = 1;
  for (int i = 0; i < a; ++i) outer *= in[static_cast<size_t>(i)];
  for (size_t i = static_cast<size_t>(a) + 1; i < in.size(); ++i) inner *= in[i];
  const int64_t dlen = in[static_cast<size_t>(a)];

  Storage out = Storage::uninit(outer * len * inner);
  const float* p = raw();
  for (int64_t o = 0; o < outer; ++o)
    std::memcpy(out.data() + o * len * inner,
                p + (o * dlen + start) * inner,
                static_cast<size_t>(len * inner) * sizeof(float));

  const int64_t before = start;
  const int64_t after = dlen - start - len;
  return make_result(out_shape, std::move(out), "slice", {*this},
                     [a, before, after](const Tensor& g) -> std::vector<Tensor> {
                       return {g.pad_axis(a, before, after)};
                     });
}

Tensor Tensor::pad_axis(int axis, int64_t before, int64_t after) const {
  const int a = normalize_axis(axis, ndim());
  const Shape in = shape();
  Shape out_shape = in;
  out_shape[static_cast<size_t>(a)] += before + after;
  int64_t outer = 1, inner = 1;
  for (int i = 0; i < a; ++i) outer *= in[static_cast<size_t>(i)];
  for (size_t i = static_cast<size_t>(a) + 1; i < in.size(); ++i) inner *= in[i];
  const int64_t dlen = in[static_cast<size_t>(a)];
  const int64_t olen = out_shape[static_cast<size_t>(a)];

  Storage out = Storage::zeros(outer * olen * inner);
  const float* p = raw();
  for (int64_t o = 0; o < outer; ++o)
    std::memcpy(out.data() + (o * olen + before) * inner,
                p + o * dlen * inner,
                static_cast<size_t>(dlen * inner) * sizeof(float));

  const int64_t start = before, len = dlen;
  return make_result(out_shape, std::move(out), "pad_axis", {*this},
                     [a, start, len](const Tensor& g) -> std::vector<Tensor> {
                       return {g.slice(a, start, len)};
                     });
}

Tensor Tensor::roll(int axis, int64_t shift) const {
  const int a = normalize_axis(axis, ndim());
  const Shape in = shape();
  const int64_t dlen = in[static_cast<size_t>(a)];
  int64_t s = ((shift % dlen) + dlen) % dlen;
  int64_t outer = 1, inner = 1;
  for (int i = 0; i < a; ++i) outer *= in[static_cast<size_t>(i)];
  for (size_t i = static_cast<size_t>(a) + 1; i < in.size(); ++i) inner *= in[i];

  Storage out = Storage::uninit(numel());
  const float* p = raw();
  for (int64_t o = 0; o < outer; ++o)
    for (int64_t l = 0; l < dlen; ++l) {
      const int64_t dst = (l + s) % dlen;
      std::memcpy(out.data() + (o * dlen + dst) * inner,
                  p + (o * dlen + l) * inner,
                  static_cast<size_t>(inner) * sizeof(float));
    }

  return make_result(in, std::move(out), "roll", {*this},
                     [a, shift](const Tensor& g) -> std::vector<Tensor> {
                       return {g.roll(a, -shift)};
                     });
}

Tensor concat(const std::vector<Tensor>& parts, int axis) {
  COASTAL_CHECK(!parts.empty());
  const int a = normalize_axis(axis, parts[0].ndim());
  Shape out_shape = parts[0].shape();
  int64_t total = 0;
  for (const auto& t : parts) {
    COASTAL_CHECK(t.ndim() == parts[0].ndim());
    for (size_t i = 0; i < out_shape.size(); ++i) {
      if (static_cast<int>(i) != a)
        COASTAL_CHECK_MSG(t.shape()[i] == out_shape[i],
                          "concat shape mismatch on axis " << i);
    }
    total += t.shape()[static_cast<size_t>(a)];
  }
  out_shape[static_cast<size_t>(a)] = total;

  int64_t outer = 1, inner = 1;
  for (int i = 0; i < a; ++i) outer *= out_shape[static_cast<size_t>(i)];
  for (size_t i = static_cast<size_t>(a) + 1; i < out_shape.size(); ++i)
    inner *= out_shape[i];

  Storage out = Storage::uninit(tensor::numel(out_shape));
  int64_t offset = 0;
  for (const auto& t : parts) {
    const int64_t dlen = t.shape()[static_cast<size_t>(a)];
    const float* p = t.raw();
    for (int64_t o = 0; o < outer; ++o)
      std::memcpy(out.data() + (o * total + offset) * inner,
                  p + o * dlen * inner,
                  static_cast<size_t>(dlen * inner) * sizeof(float));
    offset += dlen;
  }

  // Backward: slice the gradient back apart.
  std::vector<int64_t> lens;
  lens.reserve(parts.size());
  for (const auto& t : parts) lens.push_back(t.shape()[static_cast<size_t>(a)]);
  return make_result(out_shape, std::move(out), "concat", parts,
                     [a, lens](const Tensor& g) -> std::vector<Tensor> {
                       std::vector<Tensor> grads;
                       grads.reserve(lens.size());
                       int64_t off = 0;
                       for (int64_t len : lens) {
                         grads.push_back(g.slice(a, off, len));
                         off += len;
                       }
                       return grads;
                     });
}

// ---------------------------------------------------------------------------
// Fused NN ops
// ---------------------------------------------------------------------------

Tensor Tensor::softmax_lastdim() const {
  const int64_t cols = shape()[ndim() - 1];
  const int64_t rows = numel() / cols;
  Storage out = Storage::uninit(numel());
  kernels::softmax_rows(raw(), out.data(), rows, cols);

  if (!needs_graph({*this})) {
    // Inference: no backward stash — skip the output copy the training
    // path keeps (this used to double the op's allocation traffic).
    return from_storage(shape(), std::move(out));
  }
  Tensor saved_out =
      from_storage(shape(), Storage::copy_of(out.data(), numel()));
  return make_result(
      shape(), std::move(out), "softmax", {*this},
      [saved_out, rows, cols](const Tensor& g) -> std::vector<Tensor> {
        Storage gx = Storage::uninit(g.numel());
        kernels::softmax_backward_rows(g.raw(), saved_out.raw(), gx.data(),
                                       rows, cols);
        return {Tensor::from_storage(saved_out.shape(), std::move(gx))};
      });
}

Tensor Tensor::layer_norm(const Tensor& gamma, const Tensor& beta,
                          float eps) const {
  const int64_t cols = shape()[ndim() - 1];
  COASTAL_CHECK(gamma.numel() == cols && beta.numel() == cols);
  const int64_t rows = numel() / cols;

  Storage out = Storage::uninit(numel());
  if (!needs_graph({*this, gamma, beta})) {
    // Inference: xhat/invstd are pure autograd state — skip the stash
    // (no allocation and no stash stores at all).
    kernels::layer_norm_rows(raw(), gamma.raw(), beta.raw(), out.data(),
                             nullptr, nullptr, rows, cols, eps);
    return from_storage(shape(), std::move(out));
  }

  auto xhat = std::make_shared<std::vector<float>>(
      static_cast<size_t>(numel()));
  auto invstd = std::make_shared<std::vector<float>>(
      static_cast<size_t>(rows));
  kernels::layer_norm_rows(raw(), gamma.raw(), beta.raw(), out.data(),
                           xhat->data(), invstd->data(), rows, cols, eps);

  Tensor x = *this, gm = gamma;
  const Shape in_shape = shape();
  const Shape gshape = gamma.shape();
  return make_result(
      shape(), std::move(out), "layer_norm", {x, gamma, beta},
      [xhat, invstd, rows, cols, in_shape, gshape,
       gm](const Tensor& g) -> std::vector<Tensor> {
        Storage gx = Storage::uninit(rows * cols);
        Storage ggamma = Storage::zeros(cols);
        Storage gbeta = Storage::zeros(cols);
        kernels::layer_norm_backward_rows(g.raw(), gm.raw(), xhat->data(),
                                          invstd->data(), gx.data(),
                                          ggamma.data(), gbeta.data(), rows,
                                          cols);
        return {Tensor::from_storage(in_shape, std::move(gx)),
                Tensor::from_storage(gshape, std::move(ggamma)),
                Tensor::from_storage(gshape, std::move(gbeta))};
      });
}

// ---------------------------------------------------------------------------
// Losses
// ---------------------------------------------------------------------------

Tensor custom_op(Shape shape, Storage data, const char* name,
                 std::vector<Tensor> parents,
                 std::function<std::vector<Tensor>(const Tensor&)> backward) {
  return make_result(std::move(shape), std::move(data), name,
                     std::move(parents), std::move(backward));
}

Tensor custom_op(Shape shape, std::vector<float> data, const char* name,
                 std::vector<Tensor> parents,
                 std::function<std::vector<Tensor>(const Tensor&)> backward) {
  return make_result(std::move(shape), Storage::adopt(std::move(data)), name,
                     std::move(parents), std::move(backward));
}

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  COASTAL_CHECK(pred.shape() == target.shape());
  Tensor diff = pred.sub(target);
  return diff.mul(diff).mean();
}

Tensor l1_loss(const Tensor& pred, const Tensor& target) {
  COASTAL_CHECK(pred.shape() == target.shape());
  return pred.sub(target).abs().mean();
}

}  // namespace coastal::tensor
