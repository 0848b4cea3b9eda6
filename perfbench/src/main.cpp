/// perfbench — end-to-end and per-layer benchmark of the verified coastal
/// forecast.  See perfbench/README.md; normally launched by run.py.
///
///   perfbench --workload <forecast-12d|serve-cold|serve-hot> --seed <n>
///             --seconds <s> --trace <0|1> [--workdir <dir>]
///
/// The last line of standard output is the result object.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.hpp"
#include "obs/profile.hpp"
#include "probes.hpp"
#include "tensor/storage.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

using namespace coastal;
using namespace perfbench;

namespace {

/// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench/work";
};

bool parse(int argc, char** argv, Args& a) {
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10), have_seed = true;
    else if (k == "--seconds") a.seconds = std::atof(v.c_str()), have_seconds = true;
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else return false;
  }
  return argc % 2 == 1 && have_seed && have_seconds && a.seconds > 0 &&
         (a.workload == "forecast-12d" || a.workload == "serve-cold" ||
          a.workload == "serve-hot");
}

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const Metrics& m) {
  std::printf("host %s\n", host_stamp().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  std::fflush(stdout);
}

double frac(uint64_t num, uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Per-layer serving counters of one workload's measured phase.
void add_serve_layers(const RunResult& r, const std::string& wl, Metrics& m) {
  const ServeCounters& s = r.serve;
  m.add("serve.queue_ms." + wl, median(r.queue_ms), "ms");
  m.add("serve.service_ms." + wl, median(r.service_ms), "ms");
  m.add("serve.forwards_per_req." + wl, frac(s.batches, s.served), "ratio");
  m.add("serve.distinct_per_forward." + wl, frac(s.distinct_episodes, s.batches),
        "ratio");
  m.add("serve.coalesced_frac." + wl, frac(s.coalesced, s.served), "ratio");
  m.add("serve.cache_hit_frac." + wl, frac(s.cache_hits, s.served), "ratio");
  m.add("serve.cache_prefix_frac." + wl, frac(s.cache_prefix_hits, s.served),
        "ratio");
  m.add("serve.cache_evictions." + wl, static_cast<double>(s.cache_evictions),
        "count");
  m.add("serve.breaker_trips." + wl, static_cast<double>(s.breaker_trips),
        "count");
  // Stages on the unsharded serving path; the numerical fallback stays
  // idle at the default threshold (verified_frac shows if it wakes).
  using obs::Stage;
  for (Stage st : {Stage::kQueue, Stage::kPack, Stage::kCacheProbe,
                   Stage::kForward, Stage::kGemm, Stage::kAttention,
                   Stage::kVerify, Stage::kDecode}) {
    const std::string stage = obs::stage_name(st);
    const auto it = r.stage_mean_us.find(stage);
    m.add("obs.stage." + stage + "_us." + wl,
          it == r.stage_mean_us.end() ? 0.0 : it->second, "us");
  }
}

/// A run is valid when every output matched its reference and the
/// breaker never tripped (a trip changes the served mix mid-run).
bool valid(const RunResult& r) {
  return r.mismatches == 0 && r.serve.breaker_trips == 0 &&
         !r.latency_ms.empty();
}

int run_end_to_end(const Args& a) {
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  std::unique_ptr<Session> session;
  for (int i = 0; i < kSetups; ++i) {
    session.reset();
    world.reset();
    const double t0 = now_s();
    world = std::make_unique<World>(make_world(a.workdir));
    session = make_session(a.workload, *world, a.seed);
    setup_s.push_back(now_s() - t0);
  }

  RunResult r;
  session->measure(a.seconds, r);
  session->check(r);

  const uint64_t failed = r.errors + r.mismatches;
  const double forecast_s = median(r.latency_ms) / 1e3;
  const ServeCounters& s = r.serve;
  std::printf("workload %s seed %llu: %zu measured %s in %.3f s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              r.latency_ms.size(),
              a.workload == "forecast-12d" ? "forecasts" : "requests",
              r.measured_s);
  Metrics info;
  if (a.workload == "forecast-12d") info.add("forecast_s", forecast_s, "s");
  info.add("fallback_frac", 1.0 - r.verified_frac(), "ratio");
  info.add("error_frac", frac(failed, r.attempted), "ratio");
  // The tail is printed but not part of the result line: a forecast-12d
  // run holds about ten forecasts, too few for any tail percentile to
  // have ten samples beyond it.
  info.add("latency_p90_ms", quantile(r.latency_ms, 0.9), "ms");
  info.add("latency_samples", static_cast<double>(r.latency_ms.size()), "count");
  if (a.workload != "forecast-12d") {
    info.add("exact_hit_frac", frac(s.cache_hits, s.served), "ratio");
    info.add("prefix_resume_frac", frac(s.cache_prefix_hits, s.served), "ratio");
    info.add("collapsed_frac", frac(s.coalesced, s.served), "ratio");
    info.add("forwards", static_cast<double>(s.batches), "count");
    info.add("breaker_trips", static_cast<double>(s.breaker_trips), "count");
  }
  info.print_table(stdout);

  Metrics m;
  m.add("setup_s", median(setup_s), "s");
  m.add("throughput_rps", median(r.interval_rps), "req/s");
  m.add("latency_p50_ms", median(r.latency_ms), "ms");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("verified_frac", r.verified_frac(), "ratio");
  m.add("zeta_rmse_cm", r.zeta_rmse_cm(), "cm");
  m.print_table(stdout);
  const bool ok = valid(r);
  if (!ok) std::fprintf(stderr, "run invalid: output mismatch or breaker trip\n");
  print_result(ok, r.attempted, failed, m);
  return ok ? 0 : 1;
}

/// The traced run: short traced passes of both serving workloads and one
/// forecast, then the layer battery at one thread and at every core.
int run_traced(const Args& a) {
  World w = make_world(a.workdir);
  const double phase_s = std::max(1.0, a.seconds / 5.0);
  Metrics m;
  RunResult total;
  bool ok = true;
  auto finish = [&](Session& s, RunResult& r) {
    s.check(r);
    ok = ok && valid(r);
    total.attempted += r.attempted;
    total.errors += r.errors + r.mismatches;
  };

  {
    RunResult r;
    auto s = make_session("serve-cold", w, a.seed);
    const uint64_t allocs = tensor::alloc_stats().total_allocs;
    s->measure(phase_s, r);
    const uint64_t heap = tensor::alloc_stats().total_allocs - allocs;
    finish(*s, r);
    add_serve_layers(r, "cold", m);
    m.add("tensor.heap_allocs_per_episode", frac(heap, r.episodes), "count");
  }
  {
    // Request tracing off, then on: obs.trace_overhead_frac compares the
    // two passes' serve-hot throughput.
    RunResult off, on;
    auto s_off = make_session("serve-hot", w, a.seed, false);
    s_off->measure(phase_s, off);
    finish(*s_off, off);
    add_serve_layers(off, "hot", m);
    auto s_on = make_session("serve-hot", w, a.seed, true);
    s_on->measure(phase_s, on);
    finish(*s_on, on);
    m.add("obs.trace_overhead_frac",
          1.0 - median(on.interval_rps) / median(off.interval_rps), "ratio");
  }

  RunResult fr;
  {
    auto s = make_session("forecast-12d", w, a.seed);
    s->measure(phase_s, fr);
    finish(*s, fr);
  }
  m.add("forecast.wall_s.t1", median(fr.latency_ms) / 1e3, "s");
  m.add("forecast.verified_frac", fr.verified_frac(), "ratio");
  set_kernel_threads(1);
  const EpisodeCost c1 = probe_layers(w, ".t1", m);
  // Every repeat is the same forecast, so per-forecast counts are exact.
  const double n = static_cast<double>(fr.latency_ms.size());
  const double attributed =
      fr.episodes / n * (c1.forward_b1_s + c1.verify_s + c1.decode_s) +
      fr.fallbacks / n * c1.fallback_s;
  m.add("forecast.unattributed_frac",
        1.0 - attributed / (median(fr.latency_ms) / 1e3), "ratio");

  set_kernel_threads(host_cores());
  probe_layers(w, ".tmax", m);
  probe_serial_layers(w, m);

  m.print_table(stdout);
  if (!ok) std::fprintf(stderr, "run invalid: output mismatch or breaker trip\n");
  print_result(ok, total.attempted, total.errors, m);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s --workload <forecast-12d|serve-cold|serve-hot> "
                 "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]\n",
                 argv[0]);
    return 2;
  }
  util::set_log_level(util::LogLevel::kWarn);
  std::filesystem::create_directories(a.workdir);
  try {
    return a.trace ? run_traced(a) : run_end_to_end(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
