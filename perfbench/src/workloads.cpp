#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <numeric>
#include <random>
#include <span>

#include "core/rollout.hpp"
#include "core/workflow.hpp"
#include "harness.hpp"
#include "obs/profile.hpp"

namespace perfbench {

using namespace coastal;

namespace {

/// forecast-12d's verification threshold (m/s): with this world about a
/// third of episodes fail the mass check and fall back to the numerical
/// model, a deterministic share for a given start.
constexpr double kForecastThreshold = 1e-4;
/// serve-cold: distinct windows one server sees (24 bursts of 8).
constexpr int kColdPool = 192;
/// serve-hot: requests kept in flight, and requests per "current" set
/// before it rotates to the next snapshot.
constexpr size_t kHotInFlight = 4;
constexpr uint64_t kHotRotation = 128;

std::vector<data::CenterFields> test_window(const World& w, size_t start,
                                            int episodes) {
  const auto first = w.test_fields_norm.begin() + static_cast<long>(start);
  return {first, first + episodes * kT + 1};
}

/// The serving layer's pinned contract: one request served alone,
/// serially, with the same verification and fallback as the server.
std::vector<data::CenterFields> serial_reference(World& w, size_t start,
                                                 int episodes,
                                                 bool& fallback) {
  const auto window = test_window(w, start, episodes);
  std::vector<data::CenterFields> frames;
  if (episodes == 1) {
    tensor::NoGradGuard ng;
    w.model->set_training(false);
    frames = core::forecast_episode(*w.model, w.spec(), w.norm(), window,
                                    nullptr);
  } else {
    frames = core::rollout(*w.model, w.spec(), w.norm(), window, episodes);
  }
  const auto current = data::denormalized_copy(window.front(), w.norm());
  const core::MassVerifier verifier(w.grid, serve::ServerConfig{}.threshold);
  fallback = core::verify_or_fallback(frames, current, verifier, w.grid,
                                      w.tides, w.params, current.time,
                                      kSnapshotDt)
                 .fallback;
  return frames;
}

std::map<std::string, double> stage_mean_us(serve::ForecastServer& server) {
  std::map<std::string, double> out;
  for (const auto& h : server.metrics().snapshot().histograms) {
    if (h.name == "coastal_stage_duration_us" && h.total > 0)
      out[h.label_value] = h.sum / static_cast<double>(h.total);
  }
  return out;
}

// ---------------------------------------------------------------------------
// forecast-12d
// ---------------------------------------------------------------------------

class ForecastSession : public Session {
 public:
  /// forecast-12d is the single-thread baseline: the session runs the
  /// kernels on one thread, as COASTAL_NUM_THREADS=1 would, and restores
  /// the default sizing when it ends.
  explicit ForecastSession(World& w) : w_(w) {
    set_kernel_threads(1);
    run(kWarmupEpisodes);  // touches the surrogate and the fallback path
  }
  ~ForecastSession() override { set_kernel_threads(0); }
  ForecastSession(const ForecastSession&) = delete;
  ForecastSession& operator=(const ForecastSession&) = delete;

  /// Every forecast covers the same 12 days, so each repeat must equal
  /// the first bitwise.
  void measure(double seconds, RunResult& r) override {
    std::vector<data::CenterFields> first;
    const double start = now_s();
    do {
      ++r.attempted;
      try {
        const double a = now_s();
        core::WorkflowResult res = run(kForecastEpisodes);
        const double wall = now_s() - a;
        r.latency_ms.push_back(wall * 1e3);
        r.interval_rps.push_back(1.0 / wall);
        r.episodes += res.episodes;
        r.fallbacks += res.fallbacks;
        if (first.empty()) first = std::move(res.frames);
        else if (!frames_equal(res.frames, first)) ++r.mismatches;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "forecast failed: %s\n", e.what());
        ++r.errors;
      }
    } while (now_s() - start < seconds);
    r.measured_s = now_s() - start;
    add_zeta_error(w_, 0, first, r);
  }

  void check(RunResult&) override {}  // every repeat is checked in measure

 private:
  static constexpr int kWarmupEpisodes = 8;

  core::WorkflowResult run(int episodes) {
    core::WorkflowConfig cfg;
    cfg.threshold = kForecastThreshold;
    cfg.snapshot_dt = kSnapshotDt;
    const std::span<const data::CenterFields> truth(
        w_.test_fields_norm.data(), static_cast<size_t>(episodes * kT + 1));
    return core::run_workflow(*w_.model, w_.spec(), w_.norm(), w_.grid,
                              w_.tides, w_.params, truth, episodes,
                              w_.test_t0, cfg);
  }

  World& w_;
};

// ---------------------------------------------------------------------------
// Serving sessions: shared submit / resolve / check plumbing
// ---------------------------------------------------------------------------

class ServeSession : public Session {
 public:
  ServeSession(World& w, bool trace_requests)
      : w_(w), trace_requests_(trace_requests) {}

  void check(RunResult& r) override {
    server_.reset();  // the reference forwards must not race a worker
    uint64_t mismatches = 0;
    for (const auto& [id, s] : served_) {
      bool fallback = false;
      const auto ref = serial_reference(w_, start_of(id), episodes_of(id),
                                        fallback);
      // Requests that differed from the first result were counted when
      // they resolved; a first result that differs from the reference
      // makes every request of the window a mismatch.
      mismatches += (!frames_equal(ref, s.frames) || fallback != s.fallback)
                        ? s.requests
                        : s.differ;
      for (uint64_t i = 0; i < s.measured; ++i)
        add_zeta_error(w_, start_of(id), s.frames, r);
    }
    r.mismatches += mismatches;
    r.errors += errors_;
    r.attempted += unmeasured_;
  }

 protected:
  /// Window ids encode (start snapshot, episodes).
  static int id_of(size_t start, int episodes) {
    return static_cast<int>(start) * 2 + (episodes - 1);
  }
  static size_t start_of(int id) { return static_cast<size_t>(id / 2); }
  static int episodes_of(int id) { return id % 2 + 1; }

  struct Pending {
    std::optional<std::future<serve::ForecastResult>> future;
    double submitted = 0.0;
    int id = 0;
  };

  void new_server() {
    serve::ServerConfig cfg;
    cfg.fallback = serve::FallbackContext{w_.tides, w_.params};
    cfg.obs.trace.enabled = trace_requests_;
    server_ = std::make_unique<serve::ForecastServer>(
        std::vector<serve::ModelSlot>{{w_.model.get(), w_.spec(), 0}},
        w_.norm(), &w_.grid, cfg);
  }

  Pending submit(int id) {
    serve::ForecastRequest req;
    req.window = test_window(w_, start_of(id), episodes_of(id));
    Pending p;
    p.id = id;
    p.submitted = now_s();
    p.future = server_->submit(std::move(req));
    return p;
  }

  /// Wait for `p`; record it into `r` when measured (r != nullptr) and
  /// check it bitwise against the first result served for its window.
  void resolve(Pending& p, RunResult* r) {
    if (r) ++r->attempted; else ++unmeasured_;
    if (!p.future) {
      ++errors_;
      return;
    }
    serve::ForecastResult res;
    try {
      res = p.future->get();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "request failed: %s\n", e.what());
      ++errors_;
      return;
    }
    const double done = now_s();
    auto [it, first] = served_.try_emplace(p.id);
    Served& s = it->second;
    if (first) {
      s.frames = std::move(res.frames);
      s.fallback = res.fallback;
    } else if (res.fallback != s.fallback ||
               !frames_equal(res.frames, s.frames)) {
      ++s.differ;
    }
    ++s.requests;
    if (!r) return;
    ++s.measured;
    r->latency_ms.push_back((done - p.submitted) * 1e3);
    r->queue_ms.push_back(res.queue_seconds * 1e3);
    r->service_ms.push_back(res.service_seconds * 1e3);
    const auto eps = static_cast<uint64_t>(episodes_of(p.id));
    r->episodes += eps;
    if (res.fallback) r->fallbacks += eps;
  }

  World& w_;
  bool trace_requests_;
  std::unique_ptr<serve::ForecastServer> server_;

 private:
  struct Served {
    std::vector<data::CenterFields> frames;
    bool fallback = false;
    uint64_t requests = 0;  ///< all requests for this window
    uint64_t measured = 0;  ///< of which in the measured phase
    uint64_t differ = 0;    ///< of which differed from the first result
  };
  std::map<int, Served> served_;
  uint64_t errors_ = 0, unmeasured_ = 0;
};

// ---------------------------------------------------------------------------
// serve-cold
// ---------------------------------------------------------------------------

class ColdSession : public ServeSession {
 public:
  ColdSession(World& w, uint64_t seed, bool trace_requests)
      : ServeSession(w, trace_requests) {
    std::vector<int> ids(w.test_fields_norm.size() - kT);
    for (size_t s = 0; s < ids.size(); ++s) ids[s] = id_of(s, 1);
    std::mt19937_64 rng(seed);
    std::shuffle(ids.begin(), ids.end(), rng);
    const auto burst = static_cast<long>(serve::BatchPolicy{}.max_batch);
    warmup_.assign(ids.begin(), ids.begin() + burst);
    pool_.assign(ids.begin() + burst, ids.begin() + burst + kColdPool);
    warm_server();
  }

  /// Whole passes over the pool until `seconds` of serving are measured.
  /// Each pass uses a fresh server, so every window reaches an empty
  /// cache: every probe misses and every result is inserted.
  void measure(double seconds, RunResult& r) override {
    obs::StageProfiler::instance().reset();
    const size_t burst = warmup_.size();
    for (;;) {
      if (!server_) warm_server();
      const auto before = server_->stats();
      const double a = now_s();
      for (size_t k = 0; k < pool_.size(); k += burst)
        run_burst(std::span<const int>(pool_).subspan(k, burst), &r);
      const double pass_s = now_s() - a;
      r.measured_s += pass_s;
      r.interval_rps.push_back(static_cast<double>(pool_.size()) / pass_s);
      r.serve.add_delta(server_->stats(), before);
      if (r.measured_s >= seconds) break;
      server_.reset();
    }
    r.stage_mean_us = stage_mean_us(*server_);
  }

 private:
  void warm_server() {
    new_server();
    auto& profiler = obs::StageProfiler::instance();
    profiler.set_enabled(false);
    run_burst(warmup_, nullptr);
    profiler.set_enabled(server_->config().obs.profile_stages);
  }

  /// Closed loop: submit a whole burst, then wait for all of it.
  void run_burst(std::span<const int> ids, RunResult* r) {
    std::vector<Pending> pending;
    pending.reserve(ids.size());
    for (int id : ids) pending.push_back(submit(id));
    for (auto& p : pending) resolve(p, r);
  }

  std::vector<int> warmup_, pool_;
};

// ---------------------------------------------------------------------------
// serve-hot
// ---------------------------------------------------------------------------

class HotSession : public ServeSession {
 public:
  HotSession(World& w, uint64_t seed, bool trace_requests)
      : ServeSession(w, trace_requests), rng_(seed) {
    bases_.resize(w.test_fields_norm.size() - 2 * kT);
    std::iota(bases_.begin(), bases_.end(), size_t{0});
    std::shuffle(bases_.begin(), bases_.end(), rng_);
    new_server();
    // Warm-up: one whole rotation, untimed.
    run_loop([&] { return next_ >= kHotRotation; }, nullptr);
  }

  void measure(double seconds, RunResult& r) override {
    obs::StageProfiler::instance().reset();
    const auto before = server_->stats();
    const double a = now_s();
    run_loop([&] { return now_s() - a >= seconds; }, &r);
    r.measured_s = now_s() - a;
    r.serve.add_delta(server_->stats(), before);
    r.stage_mean_us = stage_mean_us(*server_);
  }

 private:
  /// Request n of the schedule: the current set is {the 1-episode window
  /// at the current snapshot, the 2-episode chain extending it}; every
  /// kHotRotation requests it moves to the next snapshot of a seeded
  /// permutation of the test year.
  int next_id() {
    const size_t base = bases_[(next_ / kHotRotation) % bases_.size()];
    ++next_;
    return id_of(base, static_cast<int>(rng_() % 2) + 1);
  }

  /// Closed loop from one thread: keep kHotInFlight requests outstanding,
  /// sending the next only when the oldest resolves, until `stop()`.
  template <typename Stop>
  void run_loop(Stop stop, RunResult* r) {
    std::deque<Pending> inflight;
    while (inflight.size() < kHotInFlight) inflight.push_back(submit(next_id()));
    double mark = now_s();
    uint64_t resolved = 0;
    while (!inflight.empty()) {
      resolve(inflight.front(), r);
      inflight.pop_front();
      if (r && ++resolved % kHotRotation == 0) {
        const double t = now_s();
        r->interval_rps.push_back(static_cast<double>(kHotRotation) / (t - mark));
        mark = t;
      }
      if (!stop()) inflight.push_back(submit(next_id()));
    }
  }

  std::mt19937_64 rng_;
  std::vector<size_t> bases_;
  uint64_t next_ = 0;
};

}  // namespace

void ServeCounters::add_delta(const serve::ServerStatsSnapshot& after,
                              const serve::ServerStatsSnapshot& before) {
  served += after.served - before.served;
  batches += after.batches - before.batches;
  coalesced += after.coalesced - before.coalesced;
  cache_hits += after.cache_hits - before.cache_hits;
  cache_prefix_hits += after.cache_prefix_hits - before.cache_prefix_hits;
  cache_evictions += after.cache_evictions - before.cache_evictions;
  breaker_trips += after.breaker_trips - before.breaker_trips;
  fallbacks += after.fallbacks - before.fallbacks;
  failed += after.failed - before.failed;
  rejected += after.rejected - before.rejected;
  for (size_t i = 0; i < after.batch_hist.size(); ++i)
    distinct_episodes +=
        (i + 1) * (after.batch_hist[i] - before.batch_hist[i]);
}

double RunResult::zeta_rmse_cm() const {
  return zeta_cells ? std::sqrt(zeta_sq_cm2 / static_cast<double>(zeta_cells))
                    : 0.0;
}

double RunResult::verified_frac() const {
  return episodes ? 1.0 - static_cast<double>(fallbacks) /
                              static_cast<double>(episodes)
                  : 0.0;
}

void add_zeta_error(const World& w, size_t start,
                    const std::vector<data::CenterFields>& frames,
                    RunResult& r) {
  for (size_t i = 0; i < frames.size(); ++i) {
    const data::CenterFields& f = frames[i];
    const data::CenterFields& truth = w.test_fields[start + 1 + i];
    for (int iy = 0; iy < f.ny; ++iy) {
      for (int ix = 0; ix < f.nx; ++ix) {
        if (!w.grid.wet(ix, iy)) continue;
        const double d =
            100.0 * (f.zeta[f.cell2(iy, ix)] - truth.zeta[truth.cell2(iy, ix)]);
        r.zeta_sq_cm2 += d * d;
        ++r.zeta_cells;
      }
    }
  }
}

std::unique_ptr<Session> make_session(const std::string& workload, World& w,
                                      uint64_t seed, bool trace_requests) {
  if (workload == "forecast-12d")
    return std::make_unique<ForecastSession>(w);
  if (workload == "serve-cold")
    return std::make_unique<ColdSession>(w, seed, trace_requests);
  if (workload == "serve-hot")
    return std::make_unique<HotSession>(w, seed, trace_requests);
  return nullptr;
}

}  // namespace perfbench
