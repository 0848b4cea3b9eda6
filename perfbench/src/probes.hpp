#pragma once

/// \file probes.hpp
/// The traced run's per-layer battery.  Each probe times calls into one
/// module's public functions from the benchmark's own code, on the
/// inputs and shapes the workloads use: B = 1 (forecast-12d) and B = 8
/// (a serve-cold burst), at one kernel thread (`.t1`) and at every host
/// core (`.tmax`).

#include "harness.hpp"
#include "world.hpp"

namespace perfbench {

/// Costs of the pieces of one forecast episode, for the forecast
/// attribution check.
struct EpisodeCost {
  double forward_b1_s = 0.0, verify_s = 0.0, decode_s = 0.0,
         fallback_s = 0.0;
};

/// Per-layer timings at the current kernel thread count, each name
/// suffixed `sfx` (".t1" / ".tmax").
EpisodeCost probe_layers(World& w, const std::string& sfx, Metrics& m);

/// Probes that do not use the kernel threads: forecast-cache probe and
/// insert, activation high-water of a B = 8 forward.
void probe_serial_layers(World& w, Metrics& m);

}  // namespace perfbench
