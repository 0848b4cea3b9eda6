#pragma once

/// \file harness.hpp
/// Small measurement helpers shared by the workloads and the layer
/// probes: a steady clock, order statistics, the process high-water RSS,
/// the host stamp, and the metric list the result line is built from.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "data/center_fields.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernels.hpp"

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Process high-water resident set size, MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

inline int host_cores() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Size both the kernels' chunking decisions and the global pool; 0
/// restores the default (COASTAL_NUM_THREADS, else every core).
inline void set_kernel_threads(int n) {
  coastal::tensor::kernels::config().num_threads = n;
  coastal::par::ThreadPool::global().resize(static_cast<size_t>(n));
}

/// Bitwise equality of two frame sequences (every u/v/w/zeta float).
inline bool frames_equal(const std::vector<coastal::data::CenterFields>& a,
                         const std::vector<coastal::data::CenterFields>& b) {
  if (a.size() != b.size()) return false;
  auto same = [](const std::vector<float>& x, const std::vector<float>& y) {
    return x.size() == y.size() &&
           std::equal(x.begin(), x.end(), y.begin(), [](float p, float q) {
             return std::memcmp(&p, &q, sizeof(float)) == 0;
           });
  };
  for (size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i].u, b[i].u) || !same(a[i].v, b[i].v) ||
        !same(a[i].w, b[i].w) || !same(a[i].zeta, b[i].zeta))
      return false;
  }
  return true;
}

/// Median wall time of `fn`, in seconds: one untimed warm-up call, then
/// at least `min_reps` timed calls and at least `budget_s` of them.
inline double time_median(const std::function<void()>& fn, int min_reps = 5,
                          double budget_s = 0.15) {
  fn();
  std::vector<double> t;
  const double start = now_s();
  while (static_cast<int>(t.size()) < min_reps || now_s() - start < budget_s) {
    const double a = now_s();
    fn();
    t.push_back(now_s() - a);
  }
  return median(t);
}

/// Ordered (name, value, unit) list; printed as a table for people and as
/// the `metrics` object of the result line.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }

  void print_table(std::FILE* f) const {
    for (const auto& m : items_)
      std::fprintf(f, "  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
  }

  std::string json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < items_.size(); ++i) {
      const double v = std::isfinite(items_[i].value) ? items_[i].value : 0.0;
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// One-line host fingerprint: numbers from hosts with different stamps
/// are not comparable.
inline std::string host_stamp() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %d, \"cpu\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"kernel_threads\": %d}",
                host_cores(), cpu.c_str(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE,
                coastal::tensor::kernels::resolved_threads());
  return buf;
}

}  // namespace perfbench
