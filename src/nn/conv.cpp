#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/kernels.hpp"
#include "tensor/storage.hpp"

namespace coastal::nn {

namespace detail {

namespace {

int64_t prod(const std::vector<int64_t>& v) {
  int64_t p = 1;
  for (int64_t x : v) p *= x;
  return p;
}

}  // namespace

Tensor blocks_to_tokens(const Tensor& x, const std::vector<int64_t>& kernel) {
  const size_t k = kernel.size();
  COASTAL_CHECK_MSG(x.ndim() == k + 2,
                    "conv input rank " << x.ndim() << " != spatial rank " << k
                                       << " + 2");
  const int64_t B = x.shape()[0];
  const int64_t C = x.shape()[1];
  tensor::Shape expanded{B, C};
  std::vector<int64_t> coarse(k);
  for (size_t i = 0; i < k; ++i) {
    const int64_t d = x.shape()[i + 2];
    COASTAL_CHECK_MSG(d % kernel[i] == 0, "spatial dim " << d
                                                          << " not divisible by kernel "
                                                          << kernel[i]);
    coarse[i] = d / kernel[i];
    expanded.push_back(coarse[i]);
    expanded.push_back(kernel[i]);
  }
  Tensor r = x.reshape(expanded);
  // [B, C, c1, k1, ...] -> [B, c1..ck, C, k1..kk]
  std::vector<size_t> perm;
  perm.push_back(0);
  for (size_t i = 0; i < k; ++i) perm.push_back(2 + 2 * i);
  perm.push_back(1);
  for (size_t i = 0; i < k; ++i) perm.push_back(3 + 2 * i);
  Tensor p = r.permute(perm);
  return p.reshape({B, prod(coarse), C * prod(kernel)});
}

Tensor tokens_to_blocks(const Tensor& tokens, int64_t channels,
                        const std::vector<int64_t>& coarse,
                        const std::vector<int64_t>& kernel) {
  const size_t k = kernel.size();
  COASTAL_CHECK(coarse.size() == k && tokens.ndim() == 3);
  const int64_t B = tokens.shape()[0];
  COASTAL_CHECK(tokens.shape()[1] == prod(coarse));
  COASTAL_CHECK(tokens.shape()[2] == channels * prod(kernel));

  tensor::Shape expanded{B};
  for (int64_t c : coarse) expanded.push_back(c);
  expanded.push_back(channels);
  for (int64_t kk : kernel) expanded.push_back(kk);
  Tensor r = tokens.reshape(expanded);
  // [B, c1..ck, C, k1..kk] -> [B, C, c1, k1, c2, k2, ...]
  std::vector<size_t> perm;
  perm.push_back(0);
  perm.push_back(1 + k);  // C
  for (size_t i = 0; i < k; ++i) {
    perm.push_back(1 + i);          // c_i
    perm.push_back(2 + k + i);      // k_i
  }
  Tensor p = r.permute(perm);
  tensor::Shape out_shape{B, channels};
  for (size_t i = 0; i < k; ++i) out_shape.push_back(coarse[i] * kernel[i]);
  return p.reshape(out_shape);
}

}  // namespace detail

PatchConvNd::PatchConvNd(int64_t in_channels, int64_t out_channels,
                         std::vector<int64_t> kernel, util::Rng& rng)
    : in_(in_channels), out_(out_channels), kernel_(std::move(kernel)) {
  int64_t kprod = 1;
  for (int64_t k : kernel_) {
    COASTAL_CHECK_MSG(k >= 1, "kernel entries must be >= 1");
    kprod *= k;
  }
  proj_ = register_module<Linear>("proj", in_ * kprod, out_, rng);
}

Tensor PatchConvNd::forward(const Tensor& x) const {
  COASTAL_CHECK(x.shape()[1] == in_);
  const int64_t B = x.shape()[0];
  std::vector<int64_t> coarse(kernel_.size());
  for (size_t i = 0; i < kernel_.size(); ++i)
    coarse[i] = x.shape()[i + 2] / kernel_[i];

  Tensor tokens = detail::blocks_to_tokens(x, kernel_);
  Tensor projected = proj_->forward(tokens);  // [B, nb, out]

  tensor::Shape grid{B};
  for (int64_t c : coarse) grid.push_back(c);
  grid.push_back(out_);
  Tensor g = projected.reshape(grid);
  std::vector<size_t> perm;
  perm.push_back(0);
  perm.push_back(kernel_.size() + 1);  // channels
  for (size_t i = 0; i < kernel_.size(); ++i) perm.push_back(1 + i);
  return g.permute(perm);
}

PatchConvTransposeNd::PatchConvTransposeNd(int64_t in_channels,
                                           int64_t out_channels,
                                           std::vector<int64_t> kernel,
                                           util::Rng& rng)
    : in_(in_channels), out_(out_channels), kernel_(std::move(kernel)) {
  int64_t kprod = 1;
  for (int64_t k : kernel_) {
    COASTAL_CHECK_MSG(k >= 1, "kernel entries must be >= 1");
    kprod *= k;
  }
  proj_ = register_module<Linear>("proj", in_, out_ * kprod, rng);
}

Tensor PatchConvTransposeNd::forward(const Tensor& x) const {
  COASTAL_CHECK(x.ndim() == kernel_.size() + 2 && x.shape()[1] == in_);
  const int64_t B = x.shape()[0];
  std::vector<int64_t> coarse(kernel_.size());
  int64_t nb = 1;
  for (size_t i = 0; i < kernel_.size(); ++i) {
    coarse[i] = x.shape()[i + 2];
    nb *= coarse[i];
  }
  // Channel-last tokens: [B, nb, Cin]
  std::vector<size_t> perm;
  perm.push_back(0);
  for (size_t i = 0; i < kernel_.size(); ++i) perm.push_back(2 + i);
  perm.push_back(1);
  Tensor tokens = x.permute(perm).reshape({B, nb, in_});
  Tensor projected = proj_->forward(tokens);  // [B, nb, Cout * kprod]
  return detail::tokens_to_blocks(projected, out_, coarse, kernel_);
}

PointwiseConvNd::PointwiseConvNd(int64_t in_channels, int64_t out_channels,
                                 util::Rng& rng)
    : in_(in_channels), out_(out_channels) {
  proj_ = register_module<Linear>("proj", in_, out_, rng);
}

Tensor PointwiseConvNd::forward(const Tensor& x) const {
  COASTAL_CHECK(x.ndim() >= 2 && x.shape()[1] == in_);
  const size_t nd = x.ndim();
  std::vector<size_t> to_last(nd);
  to_last[0] = 0;
  for (size_t i = 1; i + 1 < nd; ++i) to_last[i] = i + 1;
  to_last[nd - 1] = 1;
  Tensor tokens = x.permute(to_last);
  Tensor projected = proj_->forward(tokens);
  std::vector<size_t> to_first(nd);
  to_first[0] = 0;
  to_first[1] = nd - 1;
  for (size_t i = 2; i < nd; ++i) to_first[i] = i - 1;
  return projected.permute(to_first);
}

Tensor patch_recovery_head(const Tensor& x, int64_t d0, int64_t nd,
                           int64_t t0, const PatchConvTransposeNd& up,
                           const BatchNorm& bn, const PointwiseConvNd& head) {
  namespace ker = tensor::kernels;
  COASTAL_CHECK_MSG(!tensor::grad_enabled() && !bn.training() &&
                        bn.use_batch_stats_in_eval(),
                    "patch_recovery_head is inference-only: recording off, "
                    "BatchNorm in eval mode with batch statistics");
  const std::vector<int64_t>& kern = up.kernel();
  COASTAL_CHECK(kern.size() == 2 || kern.size() == 3);
  COASTAL_CHECK(x.ndim() == 6 && x.shape()[1] == up.in_channels());
  const int64_t B = x.shape()[0], Cin = x.shape()[1];
  const int64_t c1 = x.shape()[2], c2 = x.shape()[3], cd = x.shape()[4];
  const int64_t Tn = x.shape()[5];
  COASTAL_CHECK(d0 >= 0 && nd >= 1 && d0 + nd <= cd &&
                (kern.size() == 3 || nd == 1));
  COASTAL_CHECK(t0 >= 0 && t0 < Tn);
  const int64_t C = up.out_channels();
  const int64_t O = head.out_channels();
  COASTAL_CHECK(bn.channels() == C && head.in_channels() == C);
  COASTAL_CHECK(up.proj().bias.defined() && head.proj().bias.defined());

  const int64_t k1 = kern[0], k2 = kern[1];
  const int64_t k3 = kern.size() == 3 ? kern[2] : 1;
  const int64_t c3 = nd;
  const int64_t H = c1 * k1, W = c2 * k2, D = c3 * k3;
  const int64_t kp = k1 * k2 * k3;  // kernel offsets per channel
  const int64_t nb = c1 * c2 * c3;  // coarse blocks per frame
  const int64_t N = C * kp;         // projection width, columns (C, k...)
  const int64_t S = H * W * D;      // fine points per frame
  const int64_t BT = B * Tn;
  const int64_t Tk = Tn - t0;       // frames activated and projected

  // 1. Transposed-conv projection.  Tokens [BT·nb, Cin] in (b, t, c1, c2,
  // c3) order, as PatchConvTransposeNd lays them out; one GEMM into zeroed
  // memory, as Tensor::matmul runs it.  The bias is added on every read
  // below, as Linear adds it after the matmul.
  tensor::Storage tok = tensor::Storage::uninit(BT * nb * Cin);
  const float* px = x.raw();
  float* row = tok.data();
  for (int64_t b = 0; b < B; ++b)
    for (int64_t t = 0; t < Tn; ++t)
      for (int64_t i1 = 0; i1 < c1; ++i1)
        for (int64_t i2 = 0; i2 < c2; ++i2)
          for (int64_t i3 = 0; i3 < c3; ++i3)
            for (int64_t c = 0; c < Cin; ++c)
              *row++ = px[((((b * Cin + c) * c1 + i1) * c2 + i2) * cd + d0 +
                           i3) * Tn + t];
  tensor::Storage proj = tensor::Storage::zeros(BT * nb * N);
  ker::gemm(tok.data(), up.proj().weight.raw(), proj.data(), BT * nb, Cin, N);
  const float* pproj = proj.data();
  const float* pbias = up.proj().bias.raw();

  // Fine point p = (h, w, d) of a frame reads channel c's value at
  // pproj[frame + blk_off[p] + c·kp] + pbias[k_off[p] + c·kp].
  tensor::Workspace& ws = tensor::workspace();
  ws.head_offsets.resize(static_cast<size_t>(2 * S));
  int64_t* blk_off = ws.head_offsets.data();
  int64_t* k_off = blk_off + S;
  for (int64_t h = 0, p = 0; h < H; ++h)
    for (int64_t w = 0; w < W; ++w)
      for (int64_t d = 0; d < D; ++d, ++p) {
        const int64_t ko = ((h % k1) * k2 + w % k2) * k3 + d % k3;
        const int64_t blk = ((h / k1) * c2 + w / k2) * c3 + d / k3;
        blk_off[p] = blk * N + ko;
        k_off[p] = ko;
      }

  // 2. BatchNorm statistics, one task per (group, channel).  Each group's
  // rows are visited in the module path's (b, t, h, w, d) order with a
  // serial float accumulator, so every sum rounds exactly as
  // Tensor::mean_axis does.
  const int64_t G = BatchStatScope::groups();
  const int64_t R = BT * S;
  COASTAL_CHECK_MSG(R % G == 0, "BatchStatScope groups "
                                    << G << " do not divide batch rows " << R);
  const int64_t Rg = R / G;
  const float inv = 1.0f / static_cast<float>(Rg);
  const float eps = bn.eps();
  ws.head_stats.resize(static_cast<size_t>(2 * G * C));
  float* mean = ws.head_stats.data();
  float* den = mean + G * C;
  ker::parallel_for(G * C, 2 * Rg, [&](int64_t lo, int64_t hi) {
    for (int64_t task = lo; task < hi; ++task) {
      const int64_t g = task / C, c = task % C;
      const float* src = pproj + c * kp;
      const float* bsrc = pbias + c * kp;
      auto for_rows = [&](auto&& fn) {
        int64_t bt = g * Rg / S, p = g * Rg % S;
        for (int64_t n = 0; n < Rg; ++n) {
          fn(src[bt * nb * N + blk_off[p]] + bsrc[k_off[p]]);
          if (++p == S) {
            p = 0;
            ++bt;
          }
        }
      };
      float sum = 0.0f;
      for_rows([&](float v) { sum += v; });
      const float m = sum * inv;
      float sq = 0.0f;
      for_rows([&](float v) {
        const float dv = v - m;
        sq += dv * dv;
      });
      const float var = sq * inv;
      mean[task] = m;
      den[task] = std::sqrt(var + eps);
    }
  });

  // 3. Tiles of kept rows in (b, h, w, d, t) order, t >= t0 only:
  // normalize -> affine -> GELU into a [rows, C] tile, the 1x1 head as one
  // GEMM, then bias and a store straight into [B, O, H, W, D, Tk] (t is
  // innermost there, so each output channel's stores are contiguous).
  // Rows are independent, so tiling never changes a bit — provided each
  // tile's GEMM takes the same route (naive vs blocked) as the module
  // path's one [BT·S, C] x [C, O] GEMM: a blocked module GEMM keeps every
  // tile above gemm_small_madds, padding a short tile with zero rows.
  const float* gamma = bn.gamma.raw();
  const float* beta = bn.beta.raw();
  const float* wh = head.proj().weight.raw();
  const float* bh = head.proj().bias.raw();
  const int64_t small = ker::config().gemm_small_madds;
  const bool blocked = R * C * O > small;
  const int64_t tile_min = std::max<int64_t>(256, small / (C * O) + 1);
  const int64_t Q = B * S * Tk;
  const int64_t ntiles = std::max<int64_t>(1, Q / tile_min);
  tensor::Storage out = tensor::Storage::uninit(B * O * S * Tk);
  float* pout = out.data();
  // Kept rows advance t fastest, then the fine point, then the batch entry.
  auto next_row = [&](int64_t& b, int64_t& p, int64_t& tt) {
    if (++tt < Tk) return;
    tt = 0;
    if (++p < S) return;
    p = 0;
    ++b;
  };
  // Cost hint: a GELU'd element weighs like a transcendental unary op (8).
  ker::parallel_for(ntiles, tile_min * C * 8, [&](int64_t lo, int64_t hi) {
    std::vector<float>& tile = tensor::workspace().head_tile;
    for (int64_t i = lo; i < hi; ++i) {
      const int64_t q0 = i * Q / ntiles;
      const int64_t rows = (i + 1) * Q / ntiles - q0;
      const int64_t m = blocked ? std::max(rows, tile_min) : rows;
      tile.resize(static_cast<size_t>(m * (C + O)));
      float* a = tile.data();
      float* y = a + m * C;
      const int64_t b0 = q0 / (S * Tk), p0 = q0 / Tk % S, tt0 = q0 % Tk;
      for (int64_t r = 0, b = b0, p = p0, tt = tt0; r < rows; ++r) {
        const int64_t bt = b * Tn + t0 + tt;
        const int64_t g = (bt * S + p) / Rg;
        const float* src = pproj + bt * nb * N + blk_off[p];
        const float* bsrc = pbias + k_off[p];
        const float* mg = mean + g * C;
        const float* dg = den + g * C;
        float* arow = a + r * C;
        for (int64_t c = 0; c < C; ++c) {
          float v = src[c * kp] + bsrc[c * kp];
          v = (v - mg[c]) / dg[c];
          v = v * gamma[c];
          v = v + beta[c];
          arow[c] = ker::gelu_erf(v);
        }
        next_row(b, p, tt);
      }
      std::fill(a + rows * C, y + m * O, 0.0f);  // padding rows, GEMM output
      ker::gemm(a, wh, y, m, C, O);
      for (int64_t r = 0, b = b0, p = p0, tt = tt0; r < rows; ++r) {
        float* dst = pout + (b * O * S + p) * Tk + tt;
        for (int64_t o = 0; o < O; ++o) dst[o * S * Tk] = y[r * O + o] + bh[o];
        next_row(b, p, tt);
      }
    }
  });

  tensor::Shape shape{B, O, H, W};
  if (kern.size() == 3) shape.push_back(D);
  shape.push_back(Tk);
  return Tensor::from_storage(shape, std::move(out));
}

}  // namespace coastal::nn
