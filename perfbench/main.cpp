// hadfl_perf — the repository benchmark binary. perfbench/run.py builds and
// runs it; see perfbench/README.md for the workloads and metrics.
//
//   hadfl_perf --workload=NAME --seed=N --seconds=S --trace=0|1
//              --node-binary=PATH --out-dir=DIR --threads=T
//              [--source-id=ID] [--tiny]
//
// --trace=0 runs closed-loop jobs for S seconds (at least two) and prints
// the end-to-end metrics; --trace=1 runs one untraced and one traced job
// plus the per-layer replays and prints the per-layer metrics. Either way
// the last stdout line is the JSON result, a record with the machine
// fingerprint lands in DIR, and the exit code is 0 only when every
// correctness check passed.
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/export.hpp"
#include "perf.hpp"
#include "tensor/kernel_config.hpp"

namespace {

using namespace perf;

/// Metric name -> unit, for both sets (BENCHMARK.json lists the same).
const std::map<std::string, std::string>& units() {
  static const std::map<std::string, std::string> kUnits = [] {
    std::map<std::string, std::string> u{
        // end to end
        {"setup_s", "s"},
        {"run_wall_s", "s"},
        {"samples_per_s", "1/s"},
        {"rounds_per_s", "1/s"},
        {"time_to_target_s", "s"},
        {"round_wall_s.p50", "s"},
        {"round_wall_s.p90", "s"},
        {"peak_rss_mb", "MB"},
        {"best_accuracy", "frac"},
        {"virtual_time_to_target_s", "s"},
        // per layer
        {"tensor.gemm.gflops.single", "GFLOP/s"},
        {"tensor.gemm.gflops.concurrent4", "GFLOP/s"},
        {"tensor.gemm.roofline_frac", "frac"},
        {"nn.step_s", "s"},
        {"nn.sgd_update_s", "s"},
        {"data.batch_s", "s"},
        {"rt.train_s", "s"},
        {"rt.stall_share", "frac"},
        {"rt.sync_s.p50", "s"},
        {"rt.buffer_pool.miss_ratio", "frac"},
        {"comm.encode_gbps.topk", "GB/s"},
        {"comm.decode_gbps.topk", "GB/s"},
        {"comm.fold_gbps", "GB/s"},
        {"comm.wire_bytes_per_round", "B"},
        {"comm.compression_ratio", "ratio"},
        {"net.frames_per_round", "count"},
        {"net.bytes_per_round", "B"},
        {"net.heartbeat_frame_share", "frac"},
        {"net.frame_codec_ns", "ns"},
        {"net.tcp_roundtrip_us.p50", "us"},
        {"net.tcp_roundtrip_us.p90", "us"},
        {"fleet.peak_state_mb", "MB"},
        {"fleet.warn_lines_per_round", "count"},
        {"trace.overhead_s", "s"},
    };
    for (const char* kind : {"conv2d", "batchnorm", "dense", "pool",
                             "activation", "residual"}) {
      u[std::string("nn.fwd_s.") + kind] = "s";
      u[std::string("nn.bwd_s.") + kind] = "s";
    }
    for (const char* phase : {"clock", "select", "train", "fold"}) {
      u[std::string("fleet.") + phase + "_s"] = "s";
      u[std::string("fleet.") + phase + "_share"] = "frac";
    }
    return u;
  }();
  return kUnits;
}

/// Inputs one benchmark seed spans (job i of a run uses input i).
constexpr std::uint64_t kInputsPerSeed = 64;
/// Set-up-only repetitions of an untraced run come in batches, one before
/// the first job and one after each job, so their median covers the whole
/// run rather than one moment of it. A batch is at least `min_reps` and at
/// most kBatchReps repetitions, and stops adding once it took kBatchS.
constexpr std::size_t kBatchReps = 4;
constexpr double kBatchS = 0.25;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string node_binary;
  std::string out_dir = ".";
  std::size_t threads = 1;
  std::string source_id = "unknown";
};

Options parse_options(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const auto unknown = args.unknown_options(
      {"workload", "seed", "seconds", "trace", "tiny", "node-binary",
       "out-dir", "threads", "source-id"});
  if (!unknown.empty()) {
    throw InvalidArgument("unknown option --" + unknown.front());
  }
  Options o;
  o.workload = args.get("workload", "");
  o.seed = std::strtoull(args.get("seed", "0").c_str(), nullptr, 10);
  o.seconds = args.get_double("seconds", 10.0);
  o.trace = args.get_int("trace", 0) != 0;
  o.tiny = args.has("tiny");
  o.node_binary = args.get("node-binary", "");
  o.out_dir = args.get("out-dir", ".");
  o.threads = static_cast<std::size_t>(std::max(1, args.get_int("threads", 1)));
  o.source_id = args.get("source-id", "unknown");
  return o;
}

/// Correctness bookkeeping: every run attempted, every run that threw or
/// failed a check.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> checks;

  /// Records one check; returns `ok`.
  bool check(const std::string& what, bool ok) {
    checks.push_back(std::string(ok ? "ok   " : "FAIL ") + what);
    std::cout << "check: " << checks.back() << "\n";
    return ok;
  }
};

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v;
  return out.str();
}

/// Runs one job, counting it; nullopt when it threw.
std::optional<Job> attempt(Outcome& outcome, const std::string& what,
                           const std::function<Job()>& fn) {
  ++outcome.attempted;
  try {
    return fn();
  } catch (const std::exception& e) {
    ++outcome.failed;
    outcome.check(what + " threw: " + e.what(), false);
    return std::nullopt;
  }
}

double best_accuracy(const Job& job) {
  double best = 0.0;
  for (const fl::ConvergencePoint& p : job.points) {
    best = std::max(best, p.test_accuracy);
  }
  return best;
}

/// The output checks every job must pass; counts the job as failed when
/// any does not. Jobs on the run's first input must reproduce the earlier
/// job on that input and the references.
void check_job(Outcome& outcome, const WorkloadDef& w, const Job& job,
               const std::optional<Job>& same_input,
               const std::optional<Job>& sim_ref,
               const std::optional<Job>& rt_ref) {
  const std::string tag = "job " + std::to_string(outcome.attempted) +
                          " (input " + std::to_string(job.input) + "): ";
  const double best = best_accuracy(job);
  bool ok = outcome.check(tag + "best_accuracy " + std::to_string(best) +
                              " >= target " +
                              std::to_string(w.target_accuracy),
                          !job.points.empty() && best >= w.target_accuracy);
  if (same_input) {
    ok &= outcome.check(tag + "state hash " + hex(job.hash) +
                            " repeats the earlier job's " +
                            hex(same_input->hash),
                        job.hash == same_input->hash);
  }
  if (sim_ref && job.points_are_wall) {
    ok &= outcome.check(tag + std::to_string(job.points.size()) +
                            " convergence points, as the sim reference",
                        job.points.size() == sim_ref->points.size());
  }
  if (sim_ref && job.input == 0) {
    ok &= outcome.check(tag + "state hash " + hex(job.hash) +
                            " equals the sim reference's " +
                            hex(sim_ref->hash),
                        job.hash == sim_ref->hash);
  }
  if (rt_ref && job.input == 0) {
    ok &= outcome.check(tag + "state hash " + hex(job.hash) +
                            " equals the inproc rt reference's " +
                            hex(rt_ref->hash),
                        job.hash == rt_ref->hash);
  }
  if (!ok) ++outcome.failed;
}

/// Per-job figures that need the convergence curve.
struct Figures {
  std::vector<double> wall_times;     ///< wall seconds of each point
  std::vector<double> virtual_times;  ///< virtual seconds of each point
  double crossing = -1.0;             ///< point index reaching the target
  double round_p50_s = 0.0;
  double round_p90_s = 0.0;
};

/// rt and net points carry wall time; their virtual times are the sim
/// reference's, since the virtual schedule depends only on the device
/// specs and is the same for every input (check_job pins the point
/// count). sim and fleet points carry virtual time, scaled to wall time by
/// the job's wall-per-virtual-second ratio.
Figures figures(const WorkloadDef& w, const Job& job,
                const std::optional<Job>& sim_ref) {
  Figures f;
  for (std::size_t i = 0; i < job.points.size(); ++i) {
    const double t = job.points[i].time;
    f.virtual_times.push_back(job.points_are_wall ? sim_ref->points[i].time
                                                  : t);
    f.wall_times.push_back(job.points_are_wall
                               ? t
                               : t * job.run_wall_s / job.points.back().time);
  }
  f.crossing = crossing_index(job.points, w.target_accuracy);
  std::vector<double> gaps;
  for (std::size_t i = 1; i < f.wall_times.size(); ++i) {
    gaps.push_back(f.wall_times[i] - f.wall_times[i - 1]);
  }
  f.round_p50_s = percentile(gaps, 0.5);
  f.round_p90_s = percentile(gaps, 0.9);
  return f;
}

/// End-to-end metrics over the untraced jobs, as medians across jobs (the
/// round-gap percentiles are each job's). Where the target is reached
/// depends only on the input, so it is taken once per input (the repeat of
/// input 0 is left out): best_accuracy and virtual_time_to_target_s are
/// medians over inputs, and time_to_target_s is the median over jobs of
/// the wall time at which each job reached the inputs' median crossing
/// point, which keeps input noise and timing noise apart.
std::map<std::string, double> end_to_end(const std::vector<Job>& jobs,
                                         const std::vector<Figures>& figs,
                                         const std::vector<double>& setups) {
  std::vector<double> wall, sps, rps, p50, p90, best, vttt, crossings;
  std::set<std::size_t> inputs;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    wall.push_back(job.run_wall_s);
    sps.push_back(job.points.back().epoch *
                  static_cast<double>(job.train_samples) / job.run_wall_s);
    rps.push_back(static_cast<double>(job.sync_rounds) / job.run_wall_s);
    p50.push_back(figs[i].round_p50_s);
    p90.push_back(figs[i].round_p90_s);
    if (inputs.insert(job.input).second) {
      best.push_back(best_accuracy(job));
      vttt.push_back(time_at(figs[i].virtual_times, figs[i].crossing));
      crossings.push_back(figs[i].crossing);
    }
  }
  const double crossing = median(crossings);
  std::vector<double> ttt;
  for (const Figures& f : figs) ttt.push_back(time_at(f.wall_times, crossing));
  return {
      {"setup_s", median(setups)},
      {"run_wall_s", median(wall)},
      {"samples_per_s", median(sps)},
      {"rounds_per_s", median(rps)},
      {"time_to_target_s", median(ttt)},
      {"round_wall_s.p50", median(p50)},
      {"round_wall_s.p90", median(p90)},
      {"peak_rss_mb", peak_rss_mb()},
      {"best_accuracy", median(best)},
      {"virtual_time_to_target_s", median(vttt)},
  };
}

std::string metrics_json(const std::map<std::string, double>& values) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, value] : values) {
    out << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
        << json_number(value) << ", \"unit\": "
        << json_string(units().at(name)) << "}";
    first = false;
  }
  out << "}";
  return out.str();
}

std::string jobs_json(const std::vector<Job>& jobs,
                      const std::vector<Figures>& figs) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    out << (i ? ",\n  " : "") << "{\"input\": " << j.input
        << ", \"setup_s\": " << json_number(j.setup_s)
        << ", \"run_wall_s\": " << json_number(j.run_wall_s)
        << ", \"sync_rounds\": " << j.sync_rounds
        << ", \"best_accuracy\": " << json_number(best_accuracy(j))
        << ", \"state_hash\": " << json_string(hex(j.hash))
        << ", \"warn_lines\": " << j.warn_lines;
    if (i < figs.size()) {
      const Figures& f = figs[i];
      out << ", \"crossing_index\": " << json_number(f.crossing)
          << ", \"time_to_target_s\": "
          << json_number(time_at(f.wall_times, f.crossing))
          << ", \"virtual_time_to_target_s\": "
          << json_number(time_at(f.virtual_times, f.crossing))
          << ", \"round_wall_s.p50\": " << json_number(f.round_p50_s)
          << ", \"round_wall_s.p90\": " << json_number(f.round_p90_s)
          << ", \"round_gaps\": " << f.wall_times.size() - 1;
    }
    out << "}";
  }
  out << "]";
  return out.str();
}

int run(const Options& opt) {
  now_s();  // the run's clock starts here
  // Resolve this process's compute-thread default before the environment
  // change below, which only the net backend's node processes should see:
  // four single-threaded nodes keep the net workload within nproc.
  hadfl::default_compute_threads();
  ops::KernelConfig kernels = ops::kernel_config();
  kernels.max_threads = opt.threads;
  ops::set_kernel_config(kernels);
  ::setenv("HADFL_NUM_THREADS", "1", 1);

  // Job i of a run trains on input i: its own inputs, derived from the
  // benchmark seed, so seed-dependent figures (time to target) are medians
  // over several inputs. Input 0 is run twice and must repeat its bits.
  auto workload = [&opt](std::size_t input) {
    return make_workload(opt.workload, opt.seed * kInputsPerSeed + input,
                         opt.tiny);
  };
  const WorkloadDef w = workload(0);
  const Fingerprint fp = machine_fingerprint(opt.source_id, opt.threads);
  std::cout << "fingerprint: " << fingerprint_json(fp) << "\n";

  RunOptions ro;
  ro.node_binary = opt.node_binary;
  ro.compute_threads = opt.threads;
  Outcome outcome;
  std::vector<obs::Span> spans;
  constexpr std::size_t kBenchTrack = 1000;
  auto span = [&spans](const std::string& label, double start) {
    spans.push_back(
        obs::Span{kBenchTrack, start, now_s(), obs::SpanKind::kCompute, label});
  };

  // Set-up alone, in batches: setup_s is the median of these (a job's own
  // set-up follows a training job with cold caches, so it is recorded but
  // kept out of the metric).
  std::vector<double> setups;
  auto setup_batch = [&](std::size_t min_reps) {
    if (opt.trace) return;
    const double start = now_s();
    for (std::size_t i = 0;
         i < kBatchReps && (i < min_reps || now_s() - start < kBatchS); ++i) {
      setups.push_back(measure_setup(w, ro));
    }
    span("setup only", start);
  };
  setup_batch(3);

  // Untimed references on input 0: rt and net must reproduce the
  // simulator's state bits (and so its virtual-time curve); net must also
  // match an inproc rt run on the same inputs.
  std::optional<Job> sim_ref;
  std::optional<Job> rt_ref;
  const double ref_start = now_s();
  if (w.backend == Backend::kRt || w.backend == Backend::kNet) {
    sim_ref = attempt(outcome, "sim reference",
                      [&] { return run_reference(w, Backend::kSim, ro); });
  }
  if (w.backend == Backend::kNet) {
    rt_ref = attempt(outcome, "rt reference",
                     [&] { return run_reference(w, Backend::kRt, ro); });
  }
  if (sim_ref || rt_ref) span("references", ref_start);

  // Closed loop, one job at a time. Untraced: new inputs until `seconds`
  // elapsed (at least two), then input 0 again; new jobs stop early enough
  // to stay well inside the per-run time limit. Traced: input 0 untraced,
  // then input 0 traced.
  constexpr double kLoopDeadlineS = 140.0;
  std::vector<Job> jobs;
  std::optional<Job> first;
  std::optional<Job> traced;
  double last_job_s = 0.0;
  const double loop_start = now_s();
  for (std::size_t i = 0; outcome.failed == 0; ++i) {
    const bool repeat = opt.trace ? i == 1
                                  : i >= 2 && (now_s() - loop_start >=
                                                   opt.seconds ||
                                               now_s() + 2 * last_job_s >
                                                   kLoopDeadlineS);
    const std::size_t input = repeat ? 0 : i;
    const bool tracing = opt.trace && repeat;
    RunOptions job_options = ro;
    job_options.traced = tracing;
    const WorkloadDef wi = workload(input);
    const double start = now_s();
    std::optional<Job> job = attempt(
        outcome, tracing ? "traced job" : "job",
        [&] {
          Job j = run_job(wi, job_options);
          j.input = input;
          return j;
        });
    last_job_s = now_s() - start;
    if (!job) break;
    std::cout << "job on input " << input << ": " << last_job_s
              << " s, run " << job->run_wall_s << " s, at " << now_s()
              << " s\n";
    spans.push_back(obs::Span{kBenchTrack, job->run_start_s - job->setup_s,
                              job->run_start_s, obs::SpanKind::kCompute,
                              "setup"});
    spans.push_back(obs::Span{kBenchTrack, job->run_start_s,
                              job->run_start_s + job->run_wall_s,
                              obs::SpanKind::kCompute,
                              tracing ? "run (traced)" : "run"});
    const double eval_start = now_s();
    check_job(outcome, wi, *job, repeat ? first : std::nullopt, sim_ref,
              rt_ref);
    span("evaluate", eval_start);
    setup_batch(1);
    if (input == 0 && !repeat) first = *job;
    if (tracing) {
      traced = std::move(job);
    } else {
      jobs.push_back(std::move(*job));
    }
    if (repeat) break;
  }

  std::map<std::string, double> metrics;
  std::vector<Figures> figs;
  const bool complete =
      outcome.failed == 0 &&
      (opt.trace ? traced.has_value() && !jobs.empty() : jobs.size() >= 3);
  if (complete && !opt.trace) {
    std::size_t gaps = 0;
    for (const Job& job : jobs) {
      figs.push_back(figures(w, job, sim_ref));
      gaps += job.points.size() - 1;
    }
    metrics = end_to_end(jobs, figs, setups);
    std::cout << "round_wall_s: per-job percentiles of " << gaps
              << " round gaps over " << jobs.size() << " jobs\n";
  } else if (complete) {
    const LayerValues replayed =
        replay_layers(w, fp.peak_gflops, opt.tiny ? 0.05 : 0.5, kBenchTrack,
                      spans);
    metrics.insert(replayed.begin(), replayed.end());
    const LayerValues observed = telemetry_layers(w, *traced);
    metrics.insert(observed.begin(), observed.end());
    metrics["trace.overhead_s"] =
        traced->run_wall_s - jobs.front().run_wall_s;
    spans.insert(spans.end(), traced->spans.begin(), traced->spans.end());
    const std::string trace_path = opt.out_dir + "/trace-" + w.name +
                                   "-seed" + std::to_string(opt.seed) +
                                   ".json";
    obs::write_chrome_trace(trace_path, spans);
    std::cout << "trace written to: " << trace_path << "\n";
  }

  const double failed_frac =
      static_cast<double>(outcome.failed) /
      static_cast<double>(std::max<std::size_t>(outcome.attempted, 1));
  const std::string result =
      "{\"correct\": " + std::string(complete ? "true" : "false") +
      ", \"attempted\": " + std::to_string(outcome.attempted) +
      ", \"failed\": " + std::to_string(outcome.failed) +
      ", \"metrics\": " + metrics_json(metrics) + "}";

  std::ofstream record(opt.out_dir + "/record-" + w.name + "-seed" +
                       std::to_string(opt.seed) + "-trace" +
                       (opt.trace ? "1" : "0") + ".json");
  record << "{\"workload\": " << json_string(w.name)
         << ", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
         << ", \"tiny\": " << (opt.tiny ? "true" : "false")
         << ",\n \"fingerprint\": " << fingerprint_json(fp)
         << ",\n \"failed_run_frac\": " << json_number(failed_frac)
         << ",\n \"checks\": [";
  for (std::size_t i = 0; i < outcome.checks.size(); ++i) {
    record << (i ? ", " : "") << json_string(outcome.checks[i]);
  }
  record << "],\n \"setup_only_s\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    record << (i ? ", " : "") << json_number(setups[i]);
  }
  record << "],\n \"jobs\": " << jobs_json(jobs, figs)
         << ",\n \"result\": " << result << "}\n";

  std::cout << "failed_run_frac: " << failed_frac << "\n" << result << "\n";
  return complete ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "hadfl_perf: error: " << e.what() << "\n";
    return 2;
  }
}
