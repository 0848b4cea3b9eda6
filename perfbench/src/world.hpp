#pragma once

/// \file world.hpp
/// The benchmark's miniature ocean: the same recipe the repository's
/// figure benches build (20x20x6 estuary, 30 h training year, T = 3
/// surrogate trained for 4 epochs), plus a held-out 12-day test year.
/// Nothing here depends on the workload seed: the seed only chooses which
/// inputs the serving workloads feed to the trained system.

#include <memory>
#include <string>
#include <vector>

#include "core/surrogate.hpp"
#include "data/dataset.hpp"
#include "ocean/grid.hpp"
#include "ocean/solver.hpp"
#include "ocean/tides.hpp"

namespace perfbench {

/// Snapshot cadence of every archive (the paper's 30 minutes).
inline constexpr double kSnapshotDt = 1800.0;
/// Forecast steps per surrogate episode.
inline constexpr int kT = 3;
/// Episodes in one verified 12-day forecast: 12 d * 48 snapshots / T.
inline constexpr int kForecastEpisodes = 12 * 48 / kT;

struct World {
  coastal::ocean::Grid grid{20, 20, 6, 400.0, 400.0};
  coastal::ocean::TidalForcing tides =
      coastal::ocean::TidalForcing::gulf_coast_default();
  coastal::ocean::PhysicsParams params;

  coastal::data::Dataset train_set;
  /// Held-out test year (denormalized ROMS-stand-in truth) and the same
  /// frames normalized with the training statistics.
  std::vector<coastal::data::CenterFields> test_fields;
  std::vector<coastal::data::CenterFields> test_fields_norm;
  double test_t0 = 0.0;

  std::unique_ptr<coastal::core::SurrogateModel> model;

  const coastal::data::SampleSpec& spec() const { return train_set.spec; }
  const coastal::data::Normalizer& norm() const {
    return train_set.normalizer;
  }
};

/// Model geometry of the benchmark surrogate for a sample spec.
coastal::core::SurrogateConfig model_config(
    const coastal::data::SampleSpec& spec);

/// Simulate both archives, build the training set under `workdir`, and
/// train the surrogate (4 epochs).  Deterministic: every call returns a
/// bitwise-identical world.
World make_world(const std::string& workdir);

}  // namespace perfbench
