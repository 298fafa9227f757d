// Statistics, machine fingerprint and JSON output of hadfl_perf.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/export.hpp"
#include "perf.hpp"

#ifndef HADFL_PERF_COMPILER
#define HADFL_PERF_COMPILER "unknown"
#endif
#ifndef HADFL_PERF_FLAGS
#define HADFL_PERF_FLAGS "unknown"
#endif
#ifndef HADFL_PERF_BUILD_TYPE
#define HADFL_PERF_BUILD_TYPE "unknown"
#endif

namespace perf {

double now_s() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double histogram_percentile(const obs::HistogramSample& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const std::uint64_t in_bucket = h.buckets[i];
    if (in_bucket == 0 || static_cast<double>(seen + in_bucket) < rank) {
      seen += in_bucket;
      continue;
    }
    // Interpolate inside [lower, upper], clamped to the observed range.
    const double lower =
        std::max(h.min, i == 0 ? h.min : h.bounds[i - 1]);
    const double upper =
        std::min(h.max, i < h.bounds.size() ? h.bounds[i] : h.max);
    const double frac =
        (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
    return lower + std::clamp(frac, 0.0, 1.0) * (upper - lower);
  }
  return h.max;
}

double crossing_index(const std::vector<fl::ConvergencePoint>& points,
                      double target) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].test_accuracy < target) continue;
    if (i == 0) return 0.0;
    const double below = points[i - 1].test_accuracy;
    return static_cast<double>(i - 1) +
           (target - below) / (points[i].test_accuracy - below);
  }
  return -1.0;
}

double time_at(const std::vector<double>& times, double index) {
  if (times.empty() || index < 0.0) return -1.0;
  const auto lo = std::min(static_cast<std::size_t>(index), times.size() - 1);
  const std::size_t hi = std::min(lo + 1, times.size() - 1);
  const double frac = index - static_cast<double>(lo);
  return times[lo] + frac * (times[hi] - times[lo]);
}

Fingerprint machine_fingerprint(const std::string& source_id,
                                std::size_t compute_threads) {
  Fingerprint f;
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  f.nproc = ::sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                ? static_cast<std::size_t>(CPU_COUNT(&cpus))
                : 0;
  f.compute_threads = compute_threads;
  f.scalar_threads = compute_threads;
  f.net_node_threads = 1;
  f.compiler = HADFL_PERF_COMPILER;
  f.flags = HADFL_PERF_FLAGS;
  f.build_type = HADFL_PERF_BUILD_TYPE;
  f.source_id = source_id;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  int lanes = 4;  // SSE: 4 fp32 lanes
  while (std::getline(cpuinfo, line)) {
    const auto value = [&line] {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? std::string()
                                        : line.substr(colon + 2);
    };
    if (f.cpu_model.empty() && line.rfind("model name", 0) == 0) {
      f.cpu_model = value();
    } else if (f.cpu_mhz == 0.0 && line.rfind("cpu MHz", 0) == 0) {
      f.cpu_mhz = std::atof(value().c_str());
    } else if (line.rfind("flags", 0) == 0) {
      if (line.find(" avx512f") != std::string::npos) {
        lanes = 16;
      } else if (line.find(" avx2") != std::string::npos &&
                 line.find(" fma") != std::string::npos) {
        lanes = std::max(lanes, 8);
      }
    }
  }
  // Two FMA ports, two FLOPs per FMA lane, on every compute thread: the
  // fp32 roofline the GEMM fraction is measured against.
  f.peak_gflops = static_cast<double>(compute_threads) * f.cpu_mhz * 1e-3 *
                  2.0 * 2.0 * lanes;
  return f;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out(1, '"');
  out += obs::json_escape(s);
  out += '"';
  return out;
}

std::string fingerprint_json(const Fingerprint& f) {
  std::ostringstream out;
  out << "{\"nproc\": " << f.nproc
      << ", \"cpu_model\": " << json_string(f.cpu_model)
      << ", \"cpu_mhz\": " << json_number(f.cpu_mhz)
      << ", \"peak_gflops_fp32\": " << json_number(f.peak_gflops)
      << ", \"compiler\": " << json_string(f.compiler)
      << ", \"flags\": " << json_string(f.flags)
      << ", \"build_type\": " << json_string(f.build_type)
      << ", \"source\": " << json_string(f.source_id)
      << ", \"compute_threads\": " << f.compute_threads
      << ", \"fleet_scalar_threads\": " << f.scalar_threads
      << ", \"net_node_threads\": " << f.net_node_threads << "}";
  return out.str();
}

}  // namespace perf
