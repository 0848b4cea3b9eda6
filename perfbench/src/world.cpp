#include "world.hpp"

#include <filesystem>

#include "core/trainer.hpp"
#include "ocean/archive.hpp"
#include "ocean/bathymetry.hpp"

namespace perfbench {

using namespace coastal;

namespace {

constexpr double kSpinupSeconds = 2 * 3600.0;
constexpr double kTrainSeconds = 30 * 3600.0;
constexpr double kTestSeconds = kForecastEpisodes * kT * kSnapshotDt;

}  // namespace

core::SurrogateConfig model_config(const data::SampleSpec& spec) {
  core::SurrogateConfig mcfg;
  mcfg.H = spec.H;
  mcfg.W = spec.W;
  mcfg.D = spec.D;
  mcfg.T = spec.T;
  mcfg.patch_h = 5;
  mcfg.patch_w = 5;
  mcfg.patch_d = 2;
  mcfg.embed_dim = 8;
  mcfg.stages = 3;
  mcfg.heads = {2, 4, 8};
  return mcfg;
}

World make_world(const std::string& workdir) {
  World w;
  w.params.dt = 10.0;
  ocean::generate_estuary(w.grid, ocean::EstuaryParams{}, 42);

  ocean::ArchiveConfig train_cfg;
  train_cfg.spinup_seconds = kSpinupSeconds;
  train_cfg.duration_seconds = kTrainSeconds;
  train_cfg.interval_seconds = kSnapshotDt;
  const auto train_fields = data::center_archive(
      w.grid, ocean::simulate_archive(w.grid, w.tides, w.params, train_cfg));

  // The test year continues the same ocean past the training span.
  ocean::ArchiveConfig test_cfg;
  test_cfg.spinup_seconds = kSpinupSeconds + kTrainSeconds + 3600.0;
  test_cfg.duration_seconds = kTestSeconds;
  test_cfg.interval_seconds = kSnapshotDt;
  const auto test_snaps =
      ocean::simulate_archive(w.grid, w.tides, w.params, test_cfg);
  w.test_t0 = test_snaps.front().time;
  w.test_fields = data::center_archive(w.grid, test_snaps);

  data::DatasetConfig dcfg;
  dcfg.T = kT;
  dcfg.stride = 1;
  dcfg.multiple_hw = 4;
  dcfg.multiple_d = 2;
  dcfg.dir = (std::filesystem::path(workdir) / "train_set").string();
  std::filesystem::remove_all(dcfg.dir);
  std::filesystem::create_directories(dcfg.dir);
  w.train_set = data::build_dataset(train_fields, dcfg);

  w.test_fields_norm = w.test_fields;
  for (auto& f : w.test_fields_norm) w.train_set.normalizer.normalize_fields(f);

  util::Rng rng(7);
  w.model = std::make_unique<core::SurrogateModel>(model_config(w.spec()), rng);
  core::TrainConfig tcfg;
  tcfg.epochs = 4;
  tcfg.lr = 2e-3f;
  tcfg.loader.num_workers = 1;
  core::train(*w.model, w.train_set, tcfg);
  return w;
}

}  // namespace perfbench
