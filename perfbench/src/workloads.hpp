#pragma once

/// \file workloads.hpp
/// The three workloads, each driven through the entry points users call:
///
///  - forecast-12d: core::run_workflow over the 192 episodes of a 12-day
///    test window, one forecast at a time, at one kernel thread.
///  - serve-cold:   ForecastServer::submit in closed-loop bursts of
///    exactly max_batch distinct single-episode windows; every cache
///    probe misses.
///  - serve-hot:    ForecastServer::submit with 4 requests in flight,
///    drawn from a small rotating set of "current" windows (1-episode
///    windows and the 2-episode chains extending them); almost every
///    request resolves without a forward.
///
/// A session's constructor is the workload's share of set-up (server
/// construction and an untimed warm-up pass); measure() is the timed
/// phase; check() recomputes a serial reference for every distinct
/// served window and counts outputs that differ from it bitwise.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "world.hpp"

namespace perfbench {

/// Serving counters over the measured phase (warm-up excluded).
struct ServeCounters {
  uint64_t served = 0, batches = 0, coalesced = 0;
  uint64_t cache_hits = 0, cache_prefix_hits = 0, cache_evictions = 0;
  uint64_t breaker_trips = 0, fallbacks = 0, failed = 0, rejected = 0;
  uint64_t distinct_episodes = 0;  ///< sum over forwards of distinct entries

  void add_delta(const coastal::serve::ServerStatsSnapshot& after,
                 const coastal::serve::ServerStatsSnapshot& before);
};

struct RunResult {
  std::vector<double> latency_ms;  ///< one per measured request / forecast
  std::vector<double> queue_ms, service_ms;  ///< ForecastResult split
  double measured_s = 0.0;  ///< wall time of the measured phase
  /// Requests resolved ÷ wall time, per measured interval: a serve-cold
  /// pass, one serve-hot rotation (128 requests), or one forecast.  Their
  /// median is throughput_rps, so a host stall in part of a run moves it
  /// no more than it moves the median latency.
  std::vector<double> interval_rps;
  uint64_t attempted = 0;
  uint64_t errors = 0;      ///< rejected or typed ForecastError
  uint64_t mismatches = 0;  ///< outputs differing from the reference
  uint64_t episodes = 0;    ///< surrogate episodes answered
  uint64_t fallbacks = 0;   ///< of which recomputed by the numerical model
  double zeta_sq_cm2 = 0.0;  ///< sum of squared zeta error over wet cells
  uint64_t zeta_cells = 0;
  ServeCounters serve;
  /// Mean of coastal_stage_duration_us per stage, measured phase only
  /// (the histogram's percentiles are bucket representatives, so a p50
  /// would read identically across runs).
  std::map<std::string, double> stage_mean_us;

  double zeta_rmse_cm() const;
  double verified_frac() const;
};

class Session {
 public:
  virtual ~Session() = default;
  virtual void measure(double seconds, RunResult& r) = 0;
  virtual void check(RunResult& r) = 0;
};

/// `seed` chooses the serving workloads' windows and their order;
/// forecast-12d has one fixed input, the whole 12-day test year.
/// `trace_requests` turns on the server's per-request span recording
/// (obs::TraceConfig); the end-to-end runs leave it at its default, off.
std::unique_ptr<Session> make_session(const std::string& workload, World& w,
                                      uint64_t seed,
                                      bool trace_requests = false);

/// Sum of squared zeta error (cm^2) of `frames` against the truth frames
/// that follow test-year snapshot `start`, over wet cells.
void add_zeta_error(const World& w, size_t start,
                    const std::vector<coastal::data::CenterFields>& frames,
                    RunResult& r);

}  // namespace perfbench
