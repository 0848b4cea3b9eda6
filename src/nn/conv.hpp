#pragma once

/// \file conv.hpp
/// Convolution layers for the patch-embedding encoder front end and the
/// transposed-convolution decoder.
///
/// The surrogate only ever uses convolutions whose kernel equals the
/// stride: patch embedding is a kernel==stride conv (ViT-style), patch
/// recovery is a kernel==stride transposed conv, and the channel-mixing
/// convs are 1x1.  Restricting to these cases lets every conv be an exact
/// space<->channel rearrangement plus one Linear, which keeps the whole
/// model on the (well-tested) matmul path with correct gradients.  The
/// constructors enforce the restriction loudly.
///
/// Layout: channel-first, [B, C, d1, d2, ..., dk] for k spatial dims
/// (k = 2 for the zeta plane, 3 for u/v/w volumes; the 4-D encoder keeps
/// time as a separate trailing axis handled in core/).

#include <memory>
#include <vector>

#include "nn/layers.hpp"

namespace coastal::nn {

/// Non-overlapping (kernel == stride) N-d convolution: partitions each
/// spatial axis into blocks of the kernel size and linearly projects each
/// block.  Exactly torch's Conv{2,3}d(in, out, k, stride=k).
class PatchConvNd : public Module {
 public:
  PatchConvNd(int64_t in_channels, int64_t out_channels,
              std::vector<int64_t> kernel, util::Rng& rng);

  /// x: [B, Cin, d1..dk] with each di divisible by kernel[i].
  /// Returns [B, Cout, d1/k1 .. dk/kk].
  Tensor forward(const Tensor& x) const;

  int64_t in_channels() const { return in_; }
  int64_t out_channels() const { return out_; }
  const std::vector<int64_t>& kernel() const { return kernel_; }

 private:
  int64_t in_, out_;
  std::vector<int64_t> kernel_;
  std::shared_ptr<Linear> proj_;
};

/// Non-overlapping (kernel == stride) N-d transposed convolution: the exact
/// adjoint rearrangement of PatchConvNd.  Equals
/// torch's ConvTranspose{2,3}d(in, out, k, stride=k).
class PatchConvTransposeNd : public Module {
 public:
  PatchConvTransposeNd(int64_t in_channels, int64_t out_channels,
                       std::vector<int64_t> kernel, util::Rng& rng);

  /// x: [B, Cin, d1..dk] -> [B, Cout, d1*k1 .. dk*kk].
  Tensor forward(const Tensor& x) const;

  int64_t in_channels() const { return in_; }
  int64_t out_channels() const { return out_; }
  const std::vector<int64_t>& kernel() const { return kernel_; }
  /// [Cin, Cout * prod(kernel)] projection; columns are (Cout, k1..kk).
  const Linear& proj() const { return *proj_; }

 private:
  int64_t in_, out_;
  std::vector<int64_t> kernel_;
  std::shared_ptr<Linear> proj_;
};

/// 1x1 convolution over any spatial rank — a per-location channel mix.
class PointwiseConvNd : public Module {
 public:
  PointwiseConvNd(int64_t in_channels, int64_t out_channels, util::Rng& rng);

  Tensor forward(const Tensor& x) const;

  int64_t in_channels() const { return in_; }
  int64_t out_channels() const { return out_; }
  const Linear& proj() const { return *proj_; }

 private:
  int64_t in_, out_;
  std::shared_ptr<Linear> proj_;
};

/// Inference kernel for a patch-recovery head — PatchConvTransposeNd ->
/// BatchNorm -> GELU -> PointwiseConvNd — in one tiled pass from decoder
/// tokens straight to forecast frames.
///
/// `x` is the decoder output [B, Cin, c1, c2, cd, Tn] (time trailing).  The
/// head reads depth slices [d0, d0 + nd): a rank-3 `up` kernel (k1, k2, k3)
/// recovers a volume, a rank-2 one (k1, k2) a plane from nd == 1 slice.
/// Returns [B, Cout, c1·k1, c2·k2, (nd·k3,) Tn − t0]: frames t < t0 feed the
/// BatchNorm statistics but are never activated or projected (the
/// surrogate passes t0 = 1 to drop the initial-condition frame).
///
/// Bitwise equal to fold_time → up → bn → gelu → head → unfold_time →
/// slice (the module path, which stays the autograd path and the
/// reference): the same GEMM entry computes the projection; BatchNorm
/// statistics accumulate per (BatchStatScope group, channel) in float in
/// the module path's row order; and the normalize / affine / GELU ops run
/// in the module path's order, one rounding each — this translation unit
/// is built with -ffp-contract=off (see docs/kernels.md).  Inference only:
/// requires recording off and `bn` in eval mode with batch statistics.
/// Scratch comes from tensor::Workspace and pooled/arena storage, so a
/// steady-state call allocates nothing.
Tensor patch_recovery_head(const Tensor& x, int64_t d0, int64_t nd,
                           int64_t t0, const PatchConvTransposeNd& up,
                           const BatchNorm& bn, const PointwiseConvNd& head);

namespace detail {
/// [B, C, d1..dk] -> [B, n_blocks, C * prod(kernel)] token layout where
/// blocks enumerate the coarse grid in row-major order.  Shared by both
/// conv layers; public for tests.
Tensor blocks_to_tokens(const Tensor& x, const std::vector<int64_t>& kernel);
/// Inverse of blocks_to_tokens.
Tensor tokens_to_blocks(const Tensor& tokens, int64_t channels,
                        const std::vector<int64_t>& coarse,
                        const std::vector<int64_t>& kernel);
}  // namespace detail

}  // namespace coastal::nn
