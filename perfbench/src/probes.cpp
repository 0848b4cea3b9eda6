#include "probes.hpp"

#include <span>

#include "core/decode.hpp"
#include "core/patch_ops.hpp"
#include "core/swin_block.hpp"
#include "core/trainer.hpp"
#include "core/verification.hpp"
#include "core/workflow.hpp"
#include "data/sample.hpp"
#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "ocean/archive.hpp"
#include "serve/cache.hpp"
#include "serve/server.hpp"
#include "tensor/storage.hpp"

namespace perfbench {

using namespace coastal;
using tensor::Tensor;

namespace {

/// Largest window <= `base` that divides `dim` — the surrogate's own
/// window fitting, so the mirrored stages run the model's real windows.
core::Window4d fit_window(const core::Window4d& base,
                          const std::array<int64_t, 4>& dims) {
  core::Window4d w{};
  for (size_t i = 0; i < 4; ++i) {
    w[i] = std::min(base[i], dims[i]);
    while (w[i] > 1 && dims[i] % w[i] != 0) --w[i];
  }
  return w;
}

/// The surrogate's layers, rebuilt at the model's configuration (its own
/// modules are private).  Weights differ from the trained model's; the
/// shapes, and so the work, are the same.
struct MirrorModel {
  core::SurrogateConfig cfg;
  util::Rng rng{7};
  std::shared_ptr<core::PatchEmbed4d> embed;
  std::shared_ptr<core::PositionalEmbedding4d> pos;
  std::vector<std::shared_ptr<core::SwinBlockPair4d>> stages;
  std::vector<std::shared_ptr<core::PatchMerging4d>> merges;
  struct Up {
    std::shared_ptr<nn::PatchConvTransposeNd> up;
    std::shared_ptr<nn::BatchNorm> bn;
    std::shared_ptr<nn::PointwiseConvNd> fuse;
  };
  std::vector<Up> ups;
  std::shared_ptr<nn::PatchConvTransposeNd> recover3d, recover2d;
  std::shared_ptr<nn::BatchNorm> bn3d, bn2d;
  std::shared_ptr<nn::PointwiseConvNd> head3d, head2d;
  std::vector<core::Window4d> windows;

  explicit MirrorModel(const core::SurrogateConfig& c) : cfg(c) {
    const int64_t C = cfg.embed_dim;
    embed = std::make_shared<core::PatchEmbed4d>(C, cfg.patch_h, cfg.patch_w,
                                                 cfg.patch_d, rng);
    pos = std::make_shared<core::PositionalEmbedding4d>(
        C, cfg.h1(), cfg.w1(), cfg.d1(), cfg.tn(), rng);
    int64_t h = cfg.h1(), w = cfg.w1(), d = cfg.d1();
    for (int i = 0; i < cfg.stages; ++i) {
      const int64_t dim = C << i;
      windows.push_back(fit_window(i == 0 ? cfg.window_first : cfg.window_rest,
                                   {h, w, d, cfg.tn()}));
      stages.push_back(std::make_shared<core::SwinBlockPair4d>(
          dim, cfg.heads[static_cast<size_t>(i)], windows.back(), rng));
      if (i + 1 < cfg.stages) {
        merges.push_back(std::make_shared<core::PatchMerging4d>(dim, rng));
        h /= 2;
        w /= 2;
        d /= 2;
      }
    }
    for (int i = cfg.stages - 2; i >= 0; --i) {
      const int64_t in = C << (i + 1), out = C << i;
      ups.push_back({std::make_shared<nn::PatchConvTransposeNd>(
                         in, out, std::vector<int64_t>{2, 2, 2}, rng),
                     std::make_shared<nn::BatchNorm>(out, 1e-5f, 0.1f, true),
                     std::make_shared<nn::PointwiseConvNd>(2 * out, out, rng)});
    }
    recover3d = std::make_shared<nn::PatchConvTransposeNd>(
        C, C, std::vector<int64_t>{cfg.patch_h, cfg.patch_w, cfg.patch_d}, rng);
    bn3d = std::make_shared<nn::BatchNorm>(C, 1e-5f, 0.1f, true);
    head3d = std::make_shared<nn::PointwiseConvNd>(C, 3, rng);
    recover2d = std::make_shared<nn::PatchConvTransposeNd>(
        C, C, std::vector<int64_t>{cfg.patch_h, cfg.patch_w}, rng);
    bn2d = std::make_shared<nn::BatchNorm>(C, 1e-5f, 0.1f, true);
    head2d = std::make_shared<nn::PointwiseConvNd>(C, 1, rng);
    for (nn::Module* m : all()) m->set_training(false);
  }

  std::vector<nn::Module*> all() {
    std::vector<nn::Module*> v{embed.get(), pos.get(), recover3d.get(),
                               bn3d.get(), head3d.get(), recover2d.get(),
                               bn2d.get(), head2d.get()};
    for (auto& s : stages) v.push_back(s.get());
    for (auto& m : merges) v.push_back(m.get());
    for (auto& u : ups) {
      v.push_back(u.up.get());
      v.push_back(u.bn.get());
      v.push_back(u.fuse.get());
    }
    return v;
  }

  /// SurrogateModel::forward's decoder and patch-recovery heads.
  void decode(Tensor x, const std::vector<Tensor>& skips, int64_t B) {
    for (size_t u = 0; u < ups.size(); ++u) {
      Tensor up = ups[u].up->forward(core::fold_time(x));
      x = core::unfold_time(ups[u].bn->forward(up).gelu(), B, cfg.tn());
      x = ups[u].fuse->forward(
          tensor::concat({x, skips[skips.size() - 1 - u]}, 1));
    }
    const int64_t dv = cfg.D / cfg.patch_d;
    Tensor vol = x.slice(4, 0, dv);
    Tensor surf = x.slice(4, dv, 1);
    const tensor::Shape ss = surf.shape();
    surf = surf.reshape({ss[0], ss[1], ss[2], ss[3], ss[5]});
    core::unfold_time(
        head3d->forward(
            bn3d->forward(recover3d->forward(core::fold_time(vol))).gelu()),
        B, cfg.tn());
    core::unfold_time(
        head2d->forward(
            bn2d->forward(recover2d->forward(core::fold_time(surf))).gelu()),
        B, cfg.tn());
  }
};

data::BatchedInput batch_of(const World& w, int B) {
  std::vector<std::span<const data::CenterFields>> windows;
  for (int b = 0; b < B; ++b)
    windows.emplace_back(w.test_fields_norm.data() + b * kT,
                         static_cast<size_t>(kT + 1));
  return data::make_batched_input(w.spec(), windows);
}

/// Times one batch size's forward, its layers, and the residual.
void probe_forward(World& w, MirrorModel& mm, int B, const std::string& sfx,
                   Metrics& m, double* forward_s) {
  const std::string b = ".b" + std::to_string(B) + sfx;
  const data::BatchedInput in = batch_of(w, B);
  tensor::NoGradGuard ng;
  w.model->set_training(false);
  nn::BatchStatScope groups(B);

  // Each stage's input, outside any arena: the leaf probes below run at
  // these shapes.
  std::vector<Tensor> stage_in{
      mm.pos->forward(mm.embed->forward(in.volume, in.surface))};
  for (size_t i = 0; i + 1 < mm.stages.size(); ++i)
    stage_in.push_back(mm.merges[i]->forward(mm.stages[i]->forward(stage_in.back())));
  auto layer = [&](const std::function<void()>& fn) {
    return time_median([&] {
      tensor::ArenaScope arena;
      fn();
    });
  };

  // Layer spans: one mirrored forward pass per sample, timing each call
  // in sequence so every layer sees the cache state a whole forward
  // leaves it.  Segments: embed, swin0..swinN-1, merges, decoder.  Each
  // sample also times one forward of the served model, so host-speed
  // drift cancels out of the attribution residual.
  const size_t ns = mm.stages.size();
  std::vector<std::vector<double>> seg(ns + 3);
  std::vector<double> forwards;
  auto pass = [&](bool record) {
    double a = now_s();
    {
      tensor::ArenaScope arena;
      w.model->forward(in.volume, in.surface);
    }
    if (record) forwards.push_back(now_s() - a);
    tensor::ArenaScope arena;
    std::vector<double> t(ns + 3, 0.0);
    a = now_s();
    Tensor x = mm.pos->forward(mm.embed->forward(in.volume, in.surface));
    t[0] = now_s() - a;
    std::vector<Tensor> pass_skips;
    for (size_t i = 0; i < ns; ++i) {
      a = now_s();
      x = mm.stages[i]->forward(x);
      t[1 + i] = now_s() - a;
      if (i + 1 < ns) {
        pass_skips.push_back(x);
        a = now_s();
        x = mm.merges[i]->forward(x);
        t[ns + 1] += now_s() - a;
      }
    }
    a = now_s();
    mm.decode(x, pass_skips, B);
    t[ns + 2] = now_s() - a;
    if (record)
      for (size_t k = 0; k < t.size(); ++k) seg[k].push_back(t[k]);
  };
  pass(false);
  const double start = now_s();
  while (seg[0].size() < 5 || now_s() - start < 0.3) pass(true);
  const double fwd = median(forwards);

  double attributed = 0.0;
  auto span = [&](const std::string& name, size_t k) {
    const double v = median(seg[k]);
    attributed += v;
    m.add(name + b, v * 1e3, "ms");
  };
  span("core.embed_ms", 0);
  for (size_t i = 0; i < ns; ++i) span("core.swin" + std::to_string(i) + "_ms", 1 + i);
  span("core.merge_ms", ns + 1);
  span("core.decoder_ms", ns + 2);
  m.add("core.forward_ms" + b, fwd * 1e3, "ms");
  m.add("core.forward_unattributed_frac" + b, 1.0 - attributed / fwd, "ratio");
  *forward_s = fwd;

  // Real window token counts N and head dims of the three stages.
  for (size_t i = 0; i < mm.stages.size(); ++i) {
    const auto& win = mm.windows[i];
    const int64_t n = win[0] * win[1] * win[2] * win[3];
    const int64_t dim = mm.cfg.embed_dim << i;
    const tensor::Shape sh = stage_in[i].shape();  // [B, C, H, W, D, T]
    const int64_t nwin = (sh[2] / win[0]) * (sh[3] / win[1]) *
                         (sh[4] / win[2]) * (sh[5] / win[3]);
    nn::MultiHeadSelfAttention attn(dim, mm.cfg.heads[i], mm.rng);
    const Tensor x = Tensor::randn({B * nwin, n, dim}, mm.rng);
    m.add("nn.attention_n" + std::to_string(n) + "_us" + b,
          layer([&] { attn.forward(x); }) * 1e6, "us");
  }
  const tensor::Shape s0 = stage_in[0].shape();
  nn::Mlp mlp(mm.cfg.embed_dim, mm.cfg.embed_dim * mm.cfg.mlp_ratio, mm.rng);
  const Tensor tokens =
      Tensor::randn({s0[0], s0[2], s0[3], s0[4], s0[5], s0[1]}, mm.rng);
  m.add("nn.mlp_us" + b, layer([&] { mlp.forward(tokens); }) * 1e6, "us");

  if (B == 1) {
    const core::Window4d& win = mm.windows[0];
    const core::FeatureDims d = core::FeatureDims::of(stage_in[0]);
    const std::array<int64_t, 4> extent{d.H, d.W, d.D, d.T};
    core::Window4d shift{};
    for (size_t a = 0; a < 4; ++a)
      shift[a] = extent[a] > win[a] ? win[a] / 2 : 0;
    m.add("core.window_shift_us" + sfx, layer([&] {
            Tensor t = core::window_partition(
                core::cyclic_shift(stage_in[0], shift), win);
            core::cyclic_unshift(core::window_reverse(t, d, win), shift);
          }) * 1e6,
          "us");
  }
}

}  // namespace

EpisodeCost probe_layers(World& w, const std::string& sfx, Metrics& m) {
  EpisodeCost cost;
  MirrorModel mm(model_config(w.spec()));
  double fwd8 = 0.0;
  probe_forward(w, mm, 1, sfx, m, &cost.forward_b1_s);
  probe_forward(w, mm, 8, sfx, m, &fwd8);

  // Verification and decode of one served entry.
  const data::CenterFields current =
      data::denormalized_copy(w.test_fields_norm[0], w.norm());
  std::vector<data::CenterFields> seq{current};
  for (int t = 1; t <= kT; ++t) seq.push_back(w.test_fields[static_cast<size_t>(t)]);
  const core::MassVerifier verifier(w.grid, serve::ServerConfig{}.threshold);
  cost.verify_s = time_median([&] { verifier.check_sequence(seq, kSnapshotDt); });
  m.add("core.verify_ms" + sfx, cost.verify_s * 1e3, "ms");
  {
    const data::BatchedInput in = batch_of(w, 8);
    tensor::NoGradGuard ng;
    nn::BatchStatScope groups(8);
    const core::SurrogateOutput out = w.model->forward(in.volume, in.surface);
    cost.decode_s = time_median(
        [&] { core::decode_prediction_entry(w.spec(), out, 0, w.norm()); });
  }
  m.add("core.decode_us" + sfx, cost.decode_s * 1e6, "us");
  cost.fallback_s = time_median(
      [&] {
        core::numerical_episode(w.grid, w.tides, w.params, current,
                                current.time, kSnapshotDt, kT);
      },
      3, 0.0);
  m.add("core.fallback_episode_ms" + sfx, cost.fallback_s * 1e3, "ms");

  // One training epoch of a fresh surrogate on the world's training set.
  {
    util::Rng rng(7);
    core::SurrogateModel fresh(model_config(w.spec()), rng);
    core::TrainConfig tcfg;
    tcfg.epochs = 1;
    tcfg.lr = 2e-3f;
    tcfg.loader.num_workers = 1;
    const double a = now_s();
    core::train(fresh, w.train_set, tcfg);
    m.add("core.train_epoch_s" + sfx, now_s() - a, "s");
  }

  // Largest GEMM the forward runs: the 3-D patch-recovery projection of a
  // B = 8 batch, [B*Tn*h1*w1*D/pd, C] x [C, C*ph*pw*pd], via the batched
  // kernel every Tensor::matmul calls.
  {
    const core::SurrogateConfig c = model_config(w.spec());
    const int64_t gm = 8 * c.tn() * c.h1() * c.w1() * (c.D / c.patch_d);
    const int64_t gk = c.embed_dim;
    const int64_t gn = c.embed_dim * c.patch_h * c.patch_w * c.patch_d;
    std::vector<float> A(static_cast<size_t>(gm * gk), 0.5f),
        B(static_cast<size_t>(gk * gn), 0.25f), C(static_cast<size_t>(gm * gn));
    const std::vector<int64_t> off{0};
    m.add("tensor.gemm_us" + sfx, time_median([&] {
            tensor::kernels::gemm_batched(A.data(), B.data(), C.data(), gm, gk,
                                          gn, 1, off, off);
          }) * 1e6,
          "us");
  }

  {
    auto& pool = par::ThreadPool::global();
    const size_t chunks = pool.size();
    m.add("parallel.roundtrip_us" + sfx, time_median([&] {
            pool.parallel_for(0, chunks, [](size_t, size_t) {}, chunks);
          }) * 1e6,
          "us");
  }
  {
    std::vector<std::span<const data::CenterFields>> windows;
    for (int b = 0; b < 8; ++b)
      windows.emplace_back(w.test_fields_norm.data() + b * kT,
                           static_cast<size_t>(kT + 1));
    m.add("data.pack_us.b8" + sfx, time_median([&] {
            tensor::ArenaScope arena;
            data::make_batched_input(w.spec(), windows);
          }) * 1e6,
          "us");
  }
  {
    ocean::TidalModel ocean_model(w.grid, w.tides, w.params);
    m.add("ocean.step_us" + sfx,
          time_median([&] { ocean_model.step(); }) * 1e6, "us");
    // The training year's archive (the test year is 10x longer).
    ocean::ArchiveConfig acfg;
    acfg.spinup_seconds = 2 * 3600.0;
    acfg.duration_seconds = 30 * 3600.0;
    acfg.interval_seconds = kSnapshotDt;
    m.add("ocean.archive_s" + sfx, time_median([&] {
            ocean::simulate_archive(w.grid, w.tides, w.params, acfg);
          }, 1, 0.0),
          "s");
  }
  return cost;
}

void probe_serial_layers(World& w, Metrics& m) {
  // Activation high-water of one B = 8 forward.
  {
    const data::BatchedInput in = batch_of(w, 8);
    tensor::NoGradGuard ng;
    w.model->set_training(false);
    nn::BatchStatScope groups(8);
    const uint64_t before = tensor::alloc_stats().current_bytes;
    tensor::reset_peak_bytes();
    w.model->forward(in.volume, in.surface);
    const double peak =
        static_cast<double>(tensor::alloc_stats().peak_bytes - before);
    m.add("tensor.peak_mb.b8", peak / (1024.0 * 1024.0), "MB");
  }

  // Forecast-cache probe / insert at served window shapes.
  serve::ForecastCache cache{serve::CachePolicy{}};
  const int n = 128;
  auto window = [&](int i) {
    return std::span<const data::CenterFields>(
        w.test_fields_norm.data() + i, static_cast<size_t>(kT + 1));
  };
  const std::vector<data::CenterFields> frames(
      w.test_fields.begin() + 1, w.test_fields.begin() + 1 + kT);
  const core::VerificationResult verdict;
  std::vector<double> insert_s, hit_s, miss_s;
  for (int i = 0; i < n; ++i) {
    const double a = now_s();
    cache.insert(0, 0, w.spec(), window(i), frames, verdict, true);
    insert_s.push_back(now_s() - a);
  }
  for (int i = 0; i < n; ++i) {
    double a = now_s();
    cache.probe(0, 0, w.spec(), window(i));
    hit_s.push_back(now_s() - a);
    a = now_s();
    cache.probe(0, 0, w.spec(), window(n + i));
    miss_s.push_back(now_s() - a);
  }
  m.add("serve.cache_probe_hit_us", median(hit_s) * 1e6, "us");
  m.add("serve.cache_probe_miss_us", median(miss_s) * 1e6, "us");
  m.add("serve.cache_insert_us", median(insert_s) * 1e6, "us");
}

}  // namespace perfbench
