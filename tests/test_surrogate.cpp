/// Tests for the 4-D Swin surrogate model: configuration validation,
/// forward shapes, gradient flow, checkpoint equivalence, learning on a
/// tiny problem, and parameter (de)serialization.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "core/surrogate.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "test_helpers.hpp"

namespace core = coastal::core;
namespace ct = coastal::tensor;
using coastal::core::SurrogateConfig;
using coastal::core::SurrogateModel;
using coastal::tensor::Tensor;
using coastal::testing::expect_tensor_near;
using coastal::util::Rng;

namespace {

SurrogateConfig mini_config() {
  SurrogateConfig cfg;
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

struct Inputs {
  Tensor volume, surface;
};

Inputs mini_inputs(uint64_t seed, int64_t batch = 1) {
  Rng rng(seed);
  return {Tensor::randn({batch, 3, 20, 20, 6, 4}, rng),
          Tensor::randn({batch, 1, 20, 20, 4}, rng)};
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

}  // namespace

TEST(SurrogateConfig, ValidatesGeometry) {
  SurrogateConfig cfg = mini_config();
  cfg.validate();  // fine
  cfg.H = 21;      // not divisible by patch 5
  EXPECT_THROW(cfg.validate(), coastal::util::CheckError);
  cfg = mini_config();
  cfg.heads = {2, 4};  // wrong stage count
  EXPECT_THROW(cfg.validate(), coastal::util::CheckError);
}

TEST(Surrogate, ForwardShapes) {
  Rng rng(1);
  SurrogateModel model(mini_config(), rng);
  auto in = mini_inputs(2);
  auto out = model.forward(in.volume, in.surface);
  EXPECT_EQ(out.volume.shape(), (ct::Shape{1, 3, 20, 20, 6, 3}));
  EXPECT_EQ(out.surface.shape(), (ct::Shape{1, 1, 20, 20, 3}));
}

TEST(Surrogate, RejectsWrongTimeLength) {
  Rng rng(3);
  SurrogateModel model(mini_config(), rng);
  Rng drng(4);
  Tensor vol = Tensor::randn({1, 3, 20, 20, 6, 5}, drng);
  Tensor surf = Tensor::randn({1, 1, 20, 20, 5}, drng);
  EXPECT_THROW(model.forward(vol, surf), coastal::util::CheckError);
}

TEST(Surrogate, ParameterCountIsReasonable) {
  Rng rng(5);
  SurrogateModel model(mini_config(), rng);
  const int64_t n = model.num_parameters();
  EXPECT_GT(n, 10'000);
  EXPECT_LT(n, 5'000'000);
}

TEST(Surrogate, GradientReachesEveryParameter) {
  Rng rng(6);
  SurrogateModel model(mini_config(), rng);
  auto in = mini_inputs(7);
  auto out = model.forward(in.volume, in.surface);
  out.volume.sum().add(out.surface.sum()).backward();
  size_t missing = 0;
  for (auto& [name, p] : model.named_parameters()) {
    if (!p.grad().defined()) {
      ADD_FAILURE() << "no gradient for " << name;
      ++missing;
    }
  }
  EXPECT_EQ(missing, 0u);
}

TEST(Surrogate, CheckpointedForwardMatches) {
  Rng rng(8);
  SurrogateModel model(mini_config(), rng);
  model.set_training(false);  // freeze BatchNorm stats for comparability
  auto in = mini_inputs(9);
  ct::NoGradGuard ng;
  auto plain = model.forward(in.volume, in.surface, /*use_checkpoint=*/false);
  auto ckpt = model.forward(in.volume, in.surface, /*use_checkpoint=*/true);
  expect_tensor_near(ckpt.volume, plain.volume, 1e-5);
  expect_tensor_near(ckpt.surface, plain.surface, 1e-5);
}

TEST(Surrogate, CheckpointedGradsMatch) {
  Rng rng(10);
  SurrogateConfig cfg = mini_config();
  SurrogateModel model(cfg, rng);
  model.set_training(false);  // BatchNorm running stats must not drift
  auto in = mini_inputs(11);

  auto loss_of = [&](bool ckpt) {
    model.zero_grad();
    auto out = model.forward(in.volume, in.surface, ckpt);
    out.volume.mul(out.volume).sum().add(out.surface.mul(out.surface).sum())
        .backward();
    std::vector<float> grads;
    for (auto& p : model.parameters()) {
      auto g = p.grad();
      EXPECT_TRUE(g.defined());
      if (g.defined())
        grads.insert(grads.end(), g.data().begin(), g.data().end());
    }
    return grads;
  };
  std::vector<float> g_plain = loss_of(false);
  std::vector<float> g_ckpt = loss_of(true);
  ASSERT_EQ(g_plain.size(), g_ckpt.size());
  double worst = 0;
  for (size_t i = 0; i < g_plain.size(); ++i)
    worst = std::max(worst, std::abs(static_cast<double>(g_plain[i]) - g_ckpt[i]));
  EXPECT_LT(worst, 1e-4);
}

TEST(Surrogate, CheckpointReducesPeakActivationMemory) {
  Rng rng(12);
  SurrogateModel model(mini_config(), rng);
  auto in = mini_inputs(13);

  auto peak_of = [&](bool ckpt) {
    model.zero_grad();
    ct::reset_peak_bytes();
    auto out = model.forward(in.volume, in.surface, ckpt);
    const uint64_t peak = ct::alloc_stats().peak_bytes;
    out.volume.sum().backward();  // finish the graph so buffers release
    return peak;
  };
  const uint64_t peak_plain = peak_of(false);
  const uint64_t peak_ckpt = peak_of(true);
  EXPECT_LT(peak_ckpt, peak_plain);
}

TEST(Surrogate, LearnsIdentityLikeMapping) {
  // A few Adam steps on one sample must reduce the loss substantially —
  // the sanity bar for the whole model + autograd stack.
  Rng rng(14);
  SurrogateConfig cfg = mini_config();
  SurrogateModel model(cfg, rng);
  auto in = mini_inputs(15);
  Rng trng(16);
  Tensor target_vol = Tensor::randn({1, 3, 20, 20, 6, 3}, trng, 0.1f);
  Tensor target_surf = Tensor::randn({1, 1, 20, 20, 3}, trng, 0.1f);

  coastal::nn::Adam opt(model.parameters(), 3e-3f);
  double first = -1, last = -1;
  for (int step = 0; step < 12; ++step) {
    opt.zero_grad();
    auto out = model.forward(in.volume, in.surface);
    Tensor loss = ct::mse_loss(out.volume, target_vol)
                      .add(ct::mse_loss(out.surface, target_surf));
    if (first < 0) first = loss.item();
    last = loss.item();
    loss.backward();
    opt.step();
  }
  EXPECT_LT(last, first * 0.6) << "loss failed to drop: " << first << " -> "
                               << last;
}

TEST(Surrogate, SaveLoadReproducesOutputs) {
  Rng rng1(17), rng2(18);
  SurrogateModel a(mini_config(), rng1);
  SurrogateModel b(mini_config(), rng2);  // different init
  a.set_training(false);
  b.set_training(false);
  auto in = mini_inputs(19);
  ct::NoGradGuard ng;

  const std::string path =
      (std::filesystem::temp_directory_path() / "surrogate.bin").string();
  coastal::nn::save_parameters(a, path);
  coastal::nn::load_parameters(b, path);
  auto oa = a.forward(in.volume, in.surface);
  auto ob = b.forward(in.volume, in.surface);
  expect_tensor_near(ob.volume, oa.volume, 0.0);
  expect_tensor_near(ob.surface, oa.surface, 0.0);
  std::remove(path.c_str());
}

TEST(Surrogate, DeterministicForSeed) {
  auto in = mini_inputs(20);
  ct::NoGradGuard ng;
  Rng r1(21), r2(21);
  SurrogateModel a(mini_config(), r1), b(mini_config(), r2);
  a.set_training(false);
  b.set_training(false);
  auto oa = a.forward(in.volume, in.surface);
  auto ob = b.forward(in.volume, in.surface);
  expect_tensor_near(oa.volume, ob.volume, 0.0);
}

TEST(Surrogate, FusedInferenceHeadsMatchRecordedModulePathBitwise) {
  // An eval forward under NoGradGuard takes the fused patch-recovery
  // heads; the same forward with recording on builds a graph and so takes
  // the module path.  Served outputs must not depend on which ran.
  Rng rng(22);
  SurrogateModel model(mini_config(), rng);
  model.set_training(false);
  auto in = mini_inputs(23);
  core::SurrogateOutput fused;
  {
    ct::NoGradGuard ng;
    fused = model.forward(in.volume, in.surface);
  }
  auto recorded = model.forward(in.volume, in.surface);
  ASSERT_TRUE(recorded.volume.has_grad_fn()) << "module path not recorded";
  EXPECT_TRUE(bitwise_equal(fused.volume, recorded.volume));
  EXPECT_TRUE(bitwise_equal(fused.surface, recorded.surface));
}

TEST(Surrogate, GroupedBatchForwardMatchesSingleForwardsBitwise) {
  // The serving shape: B requests stacked under BatchStatScope(B) give
  // each request exactly its B == 1 forecast.
  Rng rng(24);
  SurrogateModel model(mini_config(), rng);
  model.set_training(false);
  const int64_t B = 3;
  auto in = mini_inputs(25, B);
  ct::NoGradGuard ng;
  core::SurrogateOutput batched;
  {
    coastal::nn::BatchStatScope scope(B);
    batched = model.forward(in.volume, in.surface);
  }
  for (int64_t b = 0; b < B; ++b) {
    auto single = model.forward(in.volume.slice(0, b, 1),
                                in.surface.slice(0, b, 1));
    EXPECT_TRUE(bitwise_equal(batched.volume.slice(0, b, 1), single.volume))
        << "volume of entry " << b;
    EXPECT_TRUE(bitwise_equal(batched.surface.slice(0, b, 1), single.surface))
        << "surface of entry " << b;
  }
}
