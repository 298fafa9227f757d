// Shared types of hadfl_perf, the repository benchmark binary.
//
// hadfl_perf runs one workload per process: it builds the workload's
// inputs from the benchmark seed, runs closed-loop training jobs through
// the public backend entry points (core::run_hadfl, rt::run_hadfl_rt,
// net::run_hadfl_net, core::run_hadfl_fleet), checks every job's output,
// and prints one JSON result line. `--trace 1` instead runs one traced job
// plus the per-layer replays in layers.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/fleet.hpp"
#include "exp/fleet_world.hpp"
#include "fl/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "rt/config.hpp"

namespace perf {

using namespace hadfl;

/// Seconds on the steady clock since hadfl_perf started.
double now_s();

// ---- workloads -------------------------------------------------------------

enum class Backend { kSim, kRt, kNet, kFleet };

struct WorkloadDef {
  std::string name;
  Backend backend = Backend::kSim;
  /// Scenario flags for exp::make_run_setup (sim/rt/net). The net backend
  /// forwards the same list to every hadfl_node process.
  std::vector<std::string> flags;
  /// Fleet world and engine knobs (fleet only).
  exp::FleetWorldConfig world;
  core::FleetConfig fleet;
  /// Accuracy every job must reach; also the time-to-target threshold.
  double target_accuracy = 0.0;
};

/// The workload's scenario flags as exp::make_run_setup reads them.
hadfl::ArgParser scenario_args(const WorkloadDef& w);

/// The named workload at `seed`; `tiny` shrinks it for the self-test.
/// Throws hadfl::InvalidArgument on an unknown name.
WorkloadDef make_workload(const std::string& name, std::uint64_t seed,
                          bool tiny);

/// Everything hadfl_perf reads back from one training job.
struct Job {
  std::size_t input = 0;     ///< index of the run's input it trained on
  double setup_s = 0.0;      ///< environment + model (+ net fork/handshake)
  double run_wall_s = 0.0;   ///< the backend entry point call
  double run_start_s = 0.0;  ///< now_s() when the call started
  std::uint64_t hash = 0;    ///< exp::state_hash of the final aggregate
  std::vector<fl::ConvergencePoint> points;
  bool points_are_wall = false;  ///< rt/net points carry wall seconds
  std::size_t sync_rounds = 0;
  std::size_t train_samples = 0;  ///< training-set size
  std::size_t state_floats = 0;
  std::size_t wire_bytes = 0;     ///< accounted volume, all devices
  std::size_t warn_lines = 0;     ///< "[hadfl WARN]" lines during the run

  // Telemetry, filled by traced jobs only.
  std::vector<obs::Span> spans;   ///< program spans, now_s() clock
  std::size_t devices = 0;
  obs::MetricsSnapshot metrics;   ///< rt/net
  rt::BufferPool::Stats pool;     ///< rt/net
  core::FleetStats fleet_stats;   ///< fleet
};

struct RunOptions {
  bool traced = false;
  std::string node_binary;       ///< net: hadfl_node path
  std::size_t compute_threads = 1;
};

/// Builds the workload's environment and model (net: plus the fork and
/// handshake of its node processes) and discards them; returns seconds.
double measure_setup(const WorkloadDef& w, const RunOptions& options);

/// One job of the workload on its own backend.
Job run_job(const WorkloadDef& w, const RunOptions& options);

/// Untimed reference runs for the correctness checks.
/// sim: the simulator on the same inputs (rt/net share its state hash and
/// virtual-time convergence curve). rt: the inproc rt backend.
Job run_reference(const WorkloadDef& w, Backend backend,
                  const RunOptions& options);

/// Counts "[hadfl WARN]" lines written to std::cerr while alive (the lines
/// still reach stderr).
class WarnLineCounter {
 public:
  WarnLineCounter();
  ~WarnLineCounter();
  WarnLineCounter(const WarnLineCounter&) = delete;
  WarnLineCounter& operator=(const WarnLineCounter&) = delete;
  std::size_t count() const;

 private:
  struct Buf;
  std::unique_ptr<Buf> buf_;
};

// ---- per-layer replays -----------------------------------------------------

/// Named per-layer values (metric name -> value).
using LayerValues = std::map<std::string, double>;

/// Times the workload's layers from outside on its own shapes: GEMM,
/// per-layer forward/backward, SGD, batching, codec, fold, frame codec and
/// a loopback socket round trip. Each replay gets about `budget_s` seconds
/// and is recorded as a span on `track`.
LayerValues replay_layers(const WorkloadDef& w, double peak_gflops,
                          double budget_s, std::size_t track,
                          std::vector<obs::Span>& spans);

/// Per-layer values the traced job's own telemetry carries (rt, comm,
/// net and fleet counters).
LayerValues telemetry_layers(const WorkloadDef& w, const Job& traced);

// ---- statistics and output -------------------------------------------------

double median(std::vector<double> values);
/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);
/// Percentile of a fixed-bucket histogram, interpolated inside the bucket.
double histogram_percentile(const obs::HistogramSample& h, double q);

/// Fractional convergence-point index at which test accuracy first
/// reaches `target`, linear between the two bracketing points; negative
/// when the curve never reaches it.
double crossing_index(const std::vector<fl::ConvergencePoint>& points,
                      double target);
/// The time at a fractional point index, linear between points.
double time_at(const std::vector<double>& times, double index);

struct Fingerprint {
  std::size_t nproc = 0;
  std::string cpu_model;
  double cpu_mhz = 0.0;
  double peak_gflops = 0.0;   ///< nproc * GHz * fp32 FLOP/cycle
  std::string compiler;
  std::string flags;
  std::string build_type;
  std::string source_id;      ///< git sha or source digest (from run.py)
  std::size_t compute_threads = 0;
  std::size_t scalar_threads = 0;
  std::size_t net_node_threads = 0;
};

Fingerprint machine_fingerprint(const std::string& source_id,
                                std::size_t compute_threads);

/// Peak resident set of this process plus its largest reaped child, MB.
double peak_rss_mb();

/// JSON helpers (numbers keep every digit).
std::string json_number(double v);
std::string json_string(const std::string& s);
std::string fingerprint_json(const Fingerprint& f);

}  // namespace perf
