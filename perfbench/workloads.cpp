// The four benchmark workloads and the job runners that drive them through
// the public backend entry points.
#include <sys/types.h>
#include <unistd.h>

#include <csignal>
#include <iostream>
#include <memory>
#include <mutex>
#include <random>
#include <streambuf>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/selection.hpp"
#include "core/trainer.hpp"
#include "exp/cli_setup.hpp"
#include "net/process_fleet.hpp"
#include "net/runner.hpp"
#include "net/transport.hpp"
#include "obs/recorder.hpp"
#include "perf.hpp"
#include "rt/runner.hpp"

namespace perf {

WorkloadDef make_workload(const std::string& name, std::uint64_t seed,
                          bool tiny) {
  // Every input derives from the benchmark seed: model init, batch order
  // and the partition through the scenario seed, the churn plan through the
  // fleet world seed. ArgParser reads --seed as an int.
  const std::uint64_t program_seed = seed % 2147483647u;
  const std::string seed_flag = "--seed=" + std::to_string(program_seed);
  WorkloadDef w;
  w.name = name;
  if (name == "sim-resnet18" || name == "rt-resnet18") {
    // sim-resnet18: the default backend behind every table and figure;
    // devices train one after another, so every GEMM fans out over the
    // whole shared pool and nearly all wall time is tensor/nn.
    // rt-resnet18: the same scenario and seed on four device threads that
    // contend for the one compute pool, so tensor/nn run device-parallel
    // instead of intra-op; the pair exposes a kernel or pool change that
    // helps one use and costs the other.
    w.backend = name == "sim-resnet18" ? Backend::kSim : Backend::kRt;
    w.flags = {"--model=resnet18", "--ratio=3,3,1,1", "--np=2", "--tsync=1",
               "--sync-codec=none", seed_flag};
    if (tiny) {
      w.flags.insert(w.flags.end(), {"--scale=0.25", "--epochs=4"});
    } else {
      w.flags.insert(w.flags.end(), {"--scale=1", "--epochs=16"});
    }
    w.target_accuracy = tiny ? 0.0 : 0.45;
  } else if (name == "net-mlp-topk") {
    // Four hadfl_node processes, ~1 ms of compute per round: time goes to
    // rt collectives, the top-k delta codec, wire framing, sockets and
    // heartbeats, the layers the ResNet workloads bypass.
    w.backend = Backend::kNet;
    w.flags = {"--model=mlp",       "--ratio=3,3,1,1",   "--np=4",
               "--tsync=1",         "--sync-codec=topk", "--topk-ratio=0.01",
               seed_flag,           tiny ? "--epochs=8" : "--epochs=200"};
    w.target_accuracy = tiny ? 0.0 : 0.9;
  } else if (name == "fleet-1m") {
    // K = 10^6 devices, cohort 64: the only workload where per-round O(K)
    // scalar work and CoW slab residency dominate; nn compute is minor.
    w.backend = Backend::kFleet;
    w.world.devices = tiny ? 10000 : 1000000;
    w.world.ratio = {3, 3, 1, 1};
    w.world.momentum = 0.9;
    w.world.churn.fraction = 0.02;
    w.world.epochs = tiny ? 8 : 64;
    w.world.seed = program_seed;
    w.fleet.cohort = 64;
    w.target_accuracy = tiny ? 0.0 : 0.7;
  } else {
    throw InvalidArgument("unknown workload: " + name);
  }
  return w;
}

namespace {

/// Builds the model a run starts from (part of the timed set-up).
void build_model(const fl::SchemeContext& ctx) {
  Rng rng(ctx.config.seed);
  ctx.make_model(rng)->pack();
}

void fill_from_scheme(Job& job, const fl::SchemeResult& r,
                      const fl::SchemeContext& ctx) {
  job.points = r.metrics.points();
  job.sync_rounds = r.sync_rounds;
  job.train_samples = ctx.train.size();
  job.hash = exp::state_hash(r.final_state);
  job.state_floats = r.final_state.size();
  job.wire_bytes = r.volume.total_sent();
}

std::vector<obs::Span> shifted(const std::vector<obs::Span>& spans,
                               double offset) {
  std::vector<obs::Span> out = spans;
  for (obs::Span& s : out) {
    s.start += offset;
    s.end += offset;
  }
  return out;
}

void fill_from_rt(Job& job, const rt::RtResult& r,
                  const fl::SchemeContext& ctx) {
  fill_from_scheme(job, r.scheme, ctx);
  job.points_are_wall = true;
  job.devices = ctx.cluster.size();
  job.metrics = r.metrics;
  job.pool = r.pool_stats;
  job.spans = shifted(r.timeline.spans(), job.run_start_s);
}

std::uint64_t fresh_nonce() {
  std::random_device rd;
  return (static_cast<std::uint64_t>(rd()) << 32) ^ rd() ^
         static_cast<std::uint64_t>(::getpid());
}

/// The net backend's fork and handshake, timed on their own: spawn the K
/// node processes, join the mesh as the coordinator, wait until every
/// connection is up. The nodes are then killed and reaped.
double net_fork_handshake_s(const ArgParser& args, std::size_t k,
                            const std::string& node_binary) {
  const double t0 = now_s();
  net::FleetOptions fo;
  fo.node_binary = node_binary;
  fo.common_args = exp::scenario_forward_args(args);
  fo.kind = net::TransportKind::kTcp;
  fo.num_devices = k;
  fo.run_nonce = fresh_nonce();
  net::ProcessFleet fleet(fo);
  fleet.spawn();
  double ready_s = 0.0;
  {
    net::SocketTransportOptions to;
    to.self = static_cast<rt::DeviceId>(k);
    to.num_devices = k;
    to.epoch = fo.run_nonce;
    to.kind = net::TransportKind::kTcp;
    to.peer_ports = fleet.ports();
    net::SocketTransport transport(to);
    transport.wait_ready();
    ready_s = now_s() - t0;
  }
  for (std::size_t d = 0; d < k; ++d) fleet.kill_node(d, SIGKILL);
  fleet.shutdown();
  return ready_s;
}

}  // namespace

double measure_setup(const WorkloadDef& w, const RunOptions& o) {
  const double t0 = now_s();
  if (w.backend == Backend::kFleet) {
    exp::FleetWorld world(w.world);
    build_model(world.context());
    return now_s() - t0;
  }
  const ArgParser args = scenario_args(w);
  const exp::RunSetup setup = exp::make_run_setup(args);
  const fl::SchemeContext ctx = setup.context();
  build_model(ctx);
  double seconds = now_s() - t0;
  if (w.backend == Backend::kNet) {
    seconds += net_fork_handshake_s(args, ctx.cluster.size(), o.node_binary);
  }
  return seconds;
}

namespace {

Job scenario_job(const WorkloadDef& w, const RunOptions& o) {
  Job job;
  const ArgParser args = scenario_args(w);
  const double t0 = now_s();
  exp::RunSetup setup = exp::make_run_setup(args);
  const fl::SchemeContext ctx = setup.context();
  build_model(ctx);
  job.setup_s = now_s() - t0;
  if (w.backend == Backend::kNet) {
    job.setup_s += net_fork_handshake_s(args, ctx.cluster.size(),
                                        o.node_binary);
  }

  WarnLineCounter warns;
  switch (w.backend) {
    case Backend::kSim: {
      sim::TraceRecorder timeline;  // virtual-time spans; cost only
      if (o.traced) setup.scenario.hadfl.trace = &timeline;
      job.run_start_s = now_s();
      const core::HadflResult r = core::run_hadfl(ctx, setup.scenario.hadfl);
      job.run_wall_s = now_s() - job.run_start_s;
      fill_from_scheme(job, r.scheme, ctx);
      break;
    }
    case Backend::kRt: {
      rt::RtConfig config = exp::make_rt_config(args, setup.scenario);
      config.telemetry = o.traced;
      job.run_start_s = now_s();
      const rt::RtResult r = rt::run_hadfl_rt(ctx, config);
      job.run_wall_s = now_s() - job.run_start_s;
      fill_from_rt(job, r, ctx);
      break;
    }
    case Backend::kNet: {
      net::NetRunConfig config;
      config.rt = exp::make_rt_config(args, setup.scenario);
      config.rt.telemetry = o.traced;
      config.kind = net::TransportKind::kTcp;
      config.node_binary = o.node_binary;
      config.node_args = exp::scenario_forward_args(args);
      job.run_start_s = now_s();
      const rt::RtResult r = net::run_hadfl_net(ctx, config);
      job.run_wall_s = now_s() - job.run_start_s;
      fill_from_rt(job, r, ctx);
      break;
    }
    case Backend::kFleet:
      throw InvalidArgument("fleet workloads have no scenario flags");
  }
  job.warn_lines = warns.count();
  return job;
}

Job fleet_job(const WorkloadDef& w, const RunOptions& o) {
  Job job;
  const double t0 = now_s();
  exp::FleetWorld world(w.world);
  exp::Scenario& s = world.scenario();
  // The engine defaults hadfl_run --fleet uses.
  s.hadfl.policy = core::make_selection_policy("gaussian-quartile");
  const fl::SchemeContext ctx = world.context();
  build_model(ctx);
  job.setup_s = now_s() - t0;

  core::FleetConfig fleet = w.fleet;
  fleet.scalar_threads = o.compute_threads;
  obs::SpanRecorder recorder(1);
  if (o.traced) fleet.recorder = &recorder;
  WarnLineCounter warns;
  const double recorder_base = now_s() - recorder.now_s();
  job.run_start_s = now_s();
  const core::FleetResult r = core::run_hadfl_fleet(ctx, s.hadfl, fleet);
  job.run_wall_s = now_s() - job.run_start_s;
  job.warn_lines = warns.count();
  fill_from_scheme(job, r.scheme, ctx);
  job.fleet_stats = r.stats;
  job.devices = r.stats.devices;
  if (o.traced) job.spans = shifted(recorder.drain().spans(), recorder_base);
  return job;
}

}  // namespace

Job run_job(const WorkloadDef& w, const RunOptions& options) {
  return w.backend == Backend::kFleet ? fleet_job(w, options)
                                      : scenario_job(w, options);
}

Job run_reference(const WorkloadDef& w, Backend backend,
                  const RunOptions& options) {
  WorkloadDef ref = w;
  ref.backend = backend;
  RunOptions untraced = options;
  untraced.traced = false;
  return run_job(ref, untraced);
}

// ---- WarnLineCounter -------------------------------------------------------

struct WarnLineCounter::Buf : std::streambuf {
  explicit Buf(std::streambuf* t) : target(t) {}

  int overflow(int ch) override {
    if (ch == traits_type::eof()) return traits_type::not_eof(ch);
    const char c = static_cast<char>(ch);
    std::lock_guard<std::mutex> lock(mu);
    feed(c);
    return target->sputc(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::lock_guard<std::mutex> lock(mu);
    for (std::streamsize i = 0; i < n; ++i) feed(s[i]);
    return target->sputn(s, n);
  }
  int sync() override { return target->pubsync(); }

  void feed(char c) {
    if (c == '\n') {
      if (line.rfind("[hadfl WARN]", 0) == 0) ++lines;
      line.clear();
    } else if (line.size() < 16) {
      line.push_back(c);
    }
  }

  std::streambuf* target;
  std::mutex mu;
  std::string line;
  std::size_t lines = 0;
};

WarnLineCounter::WarnLineCounter()
    : buf_(std::make_unique<Buf>(std::cerr.rdbuf())) {
  std::cerr.rdbuf(buf_.get());
}

WarnLineCounter::~WarnLineCounter() { std::cerr.rdbuf(buf_->target); }

std::size_t WarnLineCounter::count() const {
  std::lock_guard<std::mutex> lock(buf_->mu);
  return buf_->lines;
}

}  // namespace perf
