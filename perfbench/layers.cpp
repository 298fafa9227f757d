// Per-layer numbers: replays that call each layer's public functions from
// outside on the workload's own shapes, and the values the traced job's
// telemetry already carries.
#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <thread>

#include "comm/delta_codec.hpp"
#include "common/rng.hpp"
#include "core/round_logic.hpp"
#include "data/batch_iterator.hpp"
#include "exp/cli_setup.hpp"
#include "net/socket_util.hpp"
#include "net/transport.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_utils.hpp"
#include "nn/residual.hpp"
#include "perf.hpp"
#include "rt/wire_format.hpp"
#include "tensor/ops.hpp"

namespace perf {

namespace {

const std::array<const char*, 6> kLayerKinds = {
    "conv2d", "batchnorm", "dense", "pool", "activation", "residual"};

/// The nn.* kind of a top-level layer, or nullptr for layers outside the
/// six kinds (Flatten, Dropout).
const char* layer_kind(const std::string& name) {
  if (name == "Conv2d") return "conv2d";
  if (name == "BatchNorm2d") return "batchnorm";
  if (name == "Dense") return "dense";
  if (name == "MaxPool2d" || name == "GlobalAvgPool") return "pool";
  if (name == "ReLU") return "activation";
  if (name == "ResidualBlock") return "residual";
  return nullptr;
}

/// The data, model factory and algorithm knobs of one workload, owned.
/// Fleet replays build a small world: layer shapes do not depend on K.
class ReplayWorld {
 public:
  explicit ReplayWorld(const WorkloadDef& w) {
    if (w.backend == Backend::kFleet) {
      exp::FleetWorldConfig config = w.world;
      config.devices = std::min<std::size_t>(config.devices, 64);
      config.churn.fraction = 0.0;
      fleet_ = std::make_unique<exp::FleetWorld>(config);
    } else {
      setup_ = std::make_unique<exp::RunSetup>(
          exp::make_run_setup(scenario_args(w)));
    }
  }
  fl::SchemeContext context() const {
    return fleet_ ? fleet_->context() : setup_->context();
  }
  const core::HadflConfig& hadfl() const {
    return fleet_ ? fleet_->scenario().hadfl : setup_->scenario.hadfl;
  }

 private:
  std::unique_ptr<exp::RunSetup> setup_;
  std::unique_ptr<exp::FleetWorld> fleet_;
};

/// Runs `body` until `budget_s` elapsed and at least `min_iters` ran;
/// returns the per-iteration wall times.
template <typename Body>
std::vector<double> time_loop(double budget_s, std::size_t min_iters,
                              Body&& body) {
  std::vector<double> samples;
  const double start = now_s();
  while (samples.size() < min_iters || now_s() - start < budget_s) {
    const double t0 = now_s();
    body();
    samples.push_back(now_s() - t0);
  }
  return samples;
}

class Spans {
 public:
  Spans(std::vector<obs::Span>& out, std::size_t track)
      : out_(out), track_(track) {}
  template <typename Fn>
  void run(const std::string& label, Fn&& fn) {
    const double start = now_s();
    fn();
    out_.push_back(
        obs::Span{track_, start, now_s(), obs::SpanKind::kCompute, label});
  }

 private:
  std::vector<obs::Span>& out_;
  std::size_t track_;
};

// ---- tensor ----------------------------------------------------------------

enum class GemmKind { kPlain, kAt, kBt };

struct GemmShape {
  GemmKind kind;
  std::size_t m, k, n;
  double flops() const { return 2.0 * static_cast<double>(m * k * n); }
};

/// The three GEMMs of a convolution step (forward, weight grad, input
/// grad), as nn/conv2d.cpp issues them over the im2col columns.
void add_conv(std::vector<GemmShape>& out, std::size_t in, std::size_t outc,
              std::size_t kernel, std::size_t batch_cols) {
  const std::size_t rows = in * kernel * kernel;
  out.push_back({GemmKind::kPlain, outc, rows, batch_cols});
  out.push_back({GemmKind::kBt, outc, batch_cols, rows});
  out.push_back({GemmKind::kAt, rows, outc, batch_cols});
}

/// The three GEMMs of a dense step, as nn/dense.cpp issues them.
void add_dense(std::vector<GemmShape>& out, std::size_t batch, std::size_t in,
               std::size_t outf) {
  out.push_back({GemmKind::kPlain, batch, in, outf});
  out.push_back({GemmKind::kAt, in, batch, outf});
  out.push_back({GemmKind::kBt, batch, outf, in});
}

/// Every GEMM one training step of `model` issues on `x`.
std::vector<GemmShape> gemm_shapes(nn::Sequential& model, Tensor x) {
  std::vector<GemmShape> shapes;
  const std::size_t batch = x.dim(0);
  for (std::size_t i = 0; i < model.size(); ++i) {
    nn::Layer& layer = model.layer(i);
    Tensor y = layer.forward(x, /*training=*/true);
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      add_conv(shapes, conv->in_channels(), conv->out_channels(),
               conv->kernel(), batch * y.dim(2) * y.dim(3));
    } else if (auto* dense = dynamic_cast<nn::Dense*>(&layer)) {
      add_dense(shapes, batch, dense->in_features(), dense->out_features());
    } else if (auto* block = dynamic_cast<nn::ResidualBlock*>(&layer)) {
      const std::size_t in = x.dim(1);
      const std::size_t outc = y.dim(1);
      const std::size_t cols = batch * y.dim(2) * y.dim(3);
      add_conv(shapes, in, outc, 3, cols);
      add_conv(shapes, outc, outc, 3, cols);
      if (block->has_projection()) add_conv(shapes, in, outc, 1, cols);
    }
    x = std::move(y);
  }
  return shapes;
}

struct GemmBuffers {
  std::vector<std::vector<float>> a, b, c;
  explicit GemmBuffers(const std::vector<GemmShape>& shapes) {
    Rng rng(11);
    for (const GemmShape& s : shapes) {
      a.emplace_back(s.m * s.k);
      b.emplace_back(s.k * s.n);
      c.emplace_back(s.m * s.n);
      for (float& v : a.back()) v = static_cast<float>(rng.uniform() - 0.5);
      for (float& v : b.back()) v = static_cast<float>(rng.uniform() - 0.5);
    }
  }
  void run(const std::vector<GemmShape>& shapes) {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const GemmShape& s = shapes[i];
      const float* pa = a[i].data();
      const float* pb = b[i].data();
      float* pc = c[i].data();
      switch (s.kind) {
        case GemmKind::kPlain: ops::gemm(pa, pb, pc, s.m, s.k, s.n); break;
        case GemmKind::kAt: ops::gemm_at(pa, pb, pc, s.m, s.k, s.n); break;
        case GemmKind::kBt: ops::gemm_bt(pa, pb, pc, s.m, s.k, s.n); break;
      }
    }
  }
};

void replay_tensor(const std::vector<GemmShape>& shapes, double budget_s,
                   double peak_gflops, LayerValues& out) {
  double step_flops = 0.0;
  for (const GemmShape& s : shapes) step_flops += s.flops();

  GemmBuffers single(shapes);
  const std::vector<double> t = time_loop(budget_s, 3, [&] {
    single.run(shapes);
  });
  const double single_gflops = step_flops / median(t) * 1e-9;

  // Four concurrent callers, as the rt backend's four device threads.
  constexpr std::size_t kCallers = 4;
  std::vector<std::unique_ptr<GemmBuffers>> buffers;
  for (std::size_t i = 0; i < kCallers; ++i) {
    buffers.push_back(std::make_unique<GemmBuffers>(shapes));
  }
  std::vector<std::size_t> passes(kCallers, 0);
  const double start = now_s();
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < kCallers; ++i) {
    callers.emplace_back([&, i] {
      while (passes[i] < 3 || now_s() - start < budget_s) {
        buffers[i]->run(shapes);
        ++passes[i];
      }
    });
  }
  for (std::thread& th : callers) th.join();
  const double wall = now_s() - start;
  double total_passes = 0.0;
  for (std::size_t p : passes) total_passes += static_cast<double>(p);

  out["tensor.gemm.gflops.single"] = single_gflops;
  out["tensor.gemm.gflops.concurrent4"] =
      total_passes * step_flops / wall * 1e-9;
  out["tensor.gemm.roofline_frac"] =
      peak_gflops > 0.0 ? single_gflops / peak_gflops : 0.0;
}

// ---- nn / data -------------------------------------------------------------

void replay_nn(nn::Sequential& model, const data::Batch& batch,
               const fl::TrainConfig& train, double budget_s,
               LayerValues& out) {
  nn::Sgd sgd(model.parameters(),
              nn::SgdConfig{train.learning_rate, train.momentum,
                            train.weight_decay});
  nn::SoftmaxCrossEntropy loss;
  std::vector<const char*> kinds(model.size());
  for (std::size_t i = 0; i < model.size(); ++i) {
    kinds[i] = layer_kind(model.layer(i).name());
  }
  std::map<std::string, std::vector<double>> fwd, bwd;
  std::vector<double> sgd_s;
  std::map<std::string, double> fwd_it, bwd_it;
  const std::vector<double> steps = time_loop(budget_s, 5, [&] {
    fwd_it.clear();
    bwd_it.clear();
    Tensor x = batch.x;
    for (std::size_t i = 0; i < model.size(); ++i) {
      const double t0 = now_s();
      x = model.layer(i).forward(x, /*training=*/true);
      if (kinds[i] != nullptr) fwd_it[kinds[i]] += now_s() - t0;
    }
    loss.forward(x, batch.y);
    Tensor g = loss.backward();
    for (std::size_t i = model.size(); i-- > 0;) {
      const double t0 = now_s();
      g = model.layer(i).backward(g);
      if (kinds[i] != nullptr) bwd_it[kinds[i]] += now_s() - t0;
    }
    const double t0 = now_s();
    sgd.step_and_zero();
    sgd_s.push_back(now_s() - t0);
    for (const char* kind : kLayerKinds) {
      fwd[kind].push_back(fwd_it[kind]);
      bwd[kind].push_back(bwd_it[kind]);
    }
  });
  out["nn.step_s"] = median(steps);
  out["nn.sgd_update_s"] = median(sgd_s);
  for (const char* kind : kLayerKinds) {
    out[std::string("nn.fwd_s.") + kind] = median(fwd[kind]);
    out[std::string("nn.bwd_s.") + kind] = median(bwd[kind]);
  }
}

// ---- comm ------------------------------------------------------------------

struct CodecShape {
  comm::SyncCodec codec;
  double ratio;
  std::size_t n;       ///< state floats
  std::size_t chunks;  ///< sync chunk grid
  std::size_t chunk_floats() const { return (n + chunks - 1) / chunks; }
};

void replay_comm(const CodecShape& shape, std::size_t members,
                 double budget_s, LayerValues& out) {
  const std::size_t n = shape.n;
  Rng rng(23);
  std::vector<float> delta(n);
  for (float& v : delta) v = static_cast<float>(rng.normal() * 1e-3);
  const double state_bytes = static_cast<double>(n * sizeof(float));

  // Top-k encode/decode of every chunk of one state-sized delta.
  const std::size_t chunk = shape.chunk_floats();
  std::vector<std::vector<float>> payloads(shape.chunks);
  for (std::size_t c = 0; c < shape.chunks; ++c) {
    const std::size_t begin = std::min(n, c * chunk);
    const std::size_t len = std::min(n, begin + chunk) - begin;
    payloads[c].resize(comm::encoded_chunk_floats(comm::SyncCodec::kTopK,
                                                  len, shape.ratio));
  }
  auto chunk_span = [&](std::vector<float>& v, std::size_t c) {
    const std::size_t begin = std::min(n, c * chunk);
    const std::size_t end = std::min(n, begin + chunk);
    return std::span<float>(v).subspan(begin, end - begin);
  };
  const std::vector<double> enc = time_loop(budget_s, 3, [&] {
    for (std::size_t c = 0; c < shape.chunks; ++c) {
      comm::encode_chunk(comm::SyncCodec::kTopK, chunk_span(delta, c),
                         shape.ratio, payloads[c]);
    }
  });
  std::vector<float> decoded(n);
  const std::vector<double> dec = time_loop(budget_s, 3, [&] {
    for (std::size_t c = 0; c < shape.chunks; ++c) {
      comm::decode_chunk(comm::SyncCodec::kTopK, payloads[c],
                         chunk_span(decoded, c));
    }
  });
  out["comm.encode_gbps.topk"] = state_bytes / median(enc) * 1e-9;
  out["comm.decode_gbps.topk"] = state_bytes / median(dec) * 1e-9;

  // The weighted ring fold over the N_p ring members' states.
  std::vector<std::vector<float>> states(members, delta);
  std::vector<double> weights(members, 1.0 / static_cast<double>(members));
  core::WeightedRingFold fold;
  std::vector<float> aggregate(n);
  const std::vector<double> fold_t = time_loop(budget_s, 3, [&] {
    fold.reset(n);
    for (std::size_t m = 0; m < members; ++m) {
      fold.add(0, states[m], weights[m]);
    }
    fold.write(0, aggregate);
  });
  out["comm.fold_gbps"] =
      static_cast<double>(members) * state_bytes / median(fold_t) * 1e-9;
}

// ---- net -------------------------------------------------------------------

rt::Message chunk_message(const CodecShape& shape) {
  rt::Message msg;
  msg.src = 0;
  msg.tag = 1;
  msg.payload.assign(
      comm::encoded_chunk_floats(shape.codec, shape.chunk_floats(),
                                 shape.ratio),
      0.5f);
  return msg;
}

void replay_frame_codec(const CodecShape& shape, double budget_s,
                        LayerValues& out) {
  const rt::Message msg = chunk_message(shape);
  rt::BufferPool pool;
  std::vector<std::uint8_t> frame;
  std::uint64_t seq = 0;
  const std::vector<double> t = time_loop(budget_s, 100, [&] {
    frame.clear();
    rt::append_data_frame(frame, 0, msg, ++seq, /*want_ack=*/true);
    rt::FrameHeader header;
    rt::decode_frame_header(frame, header);
    rt::Message decoded;
    std::uint64_t decoded_seq = 0;
    rt::decode_data_body(std::span<const std::uint8_t>(frame).subspan(
                             rt::kFrameHeaderBytes, header.body_len),
                         pool, decoded, decoded_seq);
    pool.release(std::move(decoded.payload));
  });
  out["net.frame_codec_ns"] = median(t) * 1e9;
}

/// One chunk-sized frame there and back between two loopback TCP
/// endpoints of net::SocketTransport.
void replay_roundtrip(const CodecShape& shape, double budget_s,
                      LayerValues& out) {
  constexpr std::size_t kEndpoints = 2;
  std::vector<std::uint16_t> ports(kEndpoints);
  std::vector<int> fds(kEndpoints);
  for (std::size_t i = 0; i < kEndpoints; ++i) {
    const net::TcpListener listener = net::make_tcp_listener();
    fds[i] = listener.fd;
    ports[i] = listener.port;
  }
  std::vector<std::unique_ptr<net::SocketTransport>> ends;
  for (std::size_t i = 0; i < kEndpoints; ++i) {
    net::SocketTransportOptions o;
    o.self = static_cast<rt::DeviceId>(i);
    o.num_devices = kEndpoints;
    o.epoch = 91;
    o.kind = net::TransportKind::kTcp;
    o.listen_fd = fds[i];
    o.peer_ports = ports;
    o.expect_coordinator = false;
    ends.push_back(std::make_unique<net::SocketTransport>(o));
  }
  for (auto& end : ends) end->wait_ready();
  const rt::Message msg = chunk_message(shape);
  std::int64_t tag = 0;
  const std::vector<double> rtt = time_loop(budget_s, 50, [&] {
    ++tag;
    rt::Message ping = msg;
    ping.tag = tag;
    ends[0]->send_nonblocking(0, 1, std::move(ping));
    rt::Message pong = ends[1]->recv_match(1, 0, tag, 10.0);
    pong.src = 1;
    ends[1]->send_nonblocking(1, 0, std::move(pong));
    ends[0]->recv_match(0, 1, tag, 10.0);
  });
  out["net.tcp_roundtrip_us.p50"] = percentile(rtt, 0.5) * 1e6;
  out["net.tcp_roundtrip_us.p90"] = percentile(rtt, 0.9) * 1e6;
}

CodecShape codec_shape(const core::HadflConfig& hadfl, std::size_t n) {
  return CodecShape{hadfl.compression, hadfl.top_k_ratio, n,
                    comm::resolve_chunk_count(hadfl.sync_chunks, n)};
}

}  // namespace

hadfl::ArgParser scenario_args(const WorkloadDef& w) {
  std::vector<const char*> argv{"hadfl_perf"};
  for (const std::string& flag : w.flags) argv.push_back(flag.c_str());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

LayerValues replay_layers(const WorkloadDef& w, double peak_gflops,
                          double budget_s, std::size_t track,
                          std::vector<obs::Span>& spans) {
  LayerValues out;
  Spans s(spans, track);
  const ReplayWorld world(w);
  const fl::SchemeContext ctx = world.context();
  const fl::TrainConfig& train = ctx.config;
  Rng rng(train.seed);
  std::unique_ptr<nn::Sequential> model = ctx.make_model(rng);
  model->pack();
  data::BatchIterator batches(ctx.train, ctx.partition[0],
                              train.device_batch_size, Rng(train.seed ^ 7));
  const data::Batch batch = batches.next();

  s.run("layer:data", [&] {
    const std::vector<double> t =
        time_loop(budget_s / 2, 20, [&] { batches.next(); });
    out["data.batch_s"] = median(t);
  });
  s.run("layer:tensor", [&] {
    replay_tensor(gemm_shapes(*model, batch.x), budget_s, peak_gflops, out);
  });
  s.run("layer:nn", [&] { replay_nn(*model, batch, train, budget_s, out); });

  const CodecShape shape = codec_shape(world.hadfl(), nn::state_size(*model));
  s.run("layer:comm", [&] {
    replay_comm(shape, world.hadfl().strategy.select_count, budget_s / 2,
                out);
  });
  s.run("layer:net.frame", [&] {
    replay_frame_codec(shape, budget_s / 2, out);
  });
  s.run("layer:net.socket", [&] {
    replay_roundtrip(shape, budget_s / 2, out);
  });
  return out;
}

LayerValues telemetry_layers(const WorkloadDef& w, const Job& job) {
  LayerValues out;
  const double rounds =
      static_cast<double>(std::max<std::size_t>(job.sync_rounds, 1));

  // rt: device spans (inproc rt only: net node spans stay in the nodes).
  double train_sum = 0.0;
  double stall_sum = 0.0;
  std::size_t devices_seen = 0;
  if (w.backend == Backend::kRt || w.backend == Backend::kNet) {
    std::vector<double> train(job.devices, 0.0);
    std::vector<double> busy(job.devices, 0.0);
    std::vector<bool> seen(job.devices, false);
    for (const obs::Span& span : job.spans) {
      if (span.device >= job.devices) continue;
      const double d = span.end - span.start;
      seen[span.device] = true;
      if (span.kind == obs::SpanKind::kCompute) train[span.device] += d;
      if (span.kind == obs::SpanKind::kCompute ||
          span.kind == obs::SpanKind::kSync ||
          span.kind == obs::SpanKind::kBroadcast) {
        busy[span.device] += d;
      }
    }
    for (std::size_t d = 0; d < job.devices; ++d) {
      if (!seen[d]) continue;
      ++devices_seen;
      train_sum += train[d];
      stall_sum += 1.0 - busy[d] / job.run_wall_s;
    }
  }
  const double seen_n = static_cast<double>(std::max<std::size_t>(
      devices_seen, 1));
  out["rt.train_s"] = train_sum / seen_n;
  out["rt.stall_share"] = stall_sum / seen_n;
  const obs::HistogramSample* sync = job.metrics.find_histogram(
      "sync.latency_s");
  out["rt.sync_s.p50"] = sync ? histogram_percentile(*sync, 0.5) : 0.0;
  const double acquires = static_cast<double>(job.pool.hits + job.pool.misses);
  out["rt.buffer_pool.miss_ratio"] =
      acquires > 0.0 ? static_cast<double>(job.pool.misses) / acquires : 0.0;

  // comm: accounted volume, and raw-over-encoded bytes where the run
  // counted both; otherwise the codec's pricing formula.
  out["comm.wire_bytes_per_round"] =
      static_cast<double>(job.wire_bytes) / rounds;
  auto counter = [&job](const char* name) {
    const obs::CounterSample* c = job.metrics.find_counter(name);
    return c ? static_cast<double>(c->value) : 0.0;
  };
  const double encoded = counter("sync.scatter_bytes") +
                         counter("sync.allgather_bytes") +
                         counter("broadcast.bytes");
  const double raw = counter("sync.scatter_raw_bytes") +
                     counter("sync.allgather_raw_bytes") +
                     counter("broadcast.raw_bytes");
  if (encoded > 0.0) {
    out["comm.compression_ratio"] = raw / encoded;
  } else {
    const ReplayWorld world(w);
    const CodecShape shape = codec_shape(world.hadfl(), job.state_floats);
    out["comm.compression_ratio"] =
        static_cast<double>(job.state_floats * sizeof(float)) /
        static_cast<double>(comm::encoded_state_bytes(
            shape.codec, shape.n, shape.chunks, shape.ratio));
  }

  // net: the coordinator's socket counters.
  const double frames = counter("net.frames_sent") +
                        counter("net.frames_received");
  const obs::HistogramSample* beats =
      job.metrics.find_histogram("heartbeat.silence_s");
  out["net.frames_per_round"] = frames / rounds;
  out["net.bytes_per_round"] =
      (counter("net.bytes_sent") + counter("net.bytes_received")) / rounds;
  out["net.heartbeat_frame_share"] =
      frames > 0.0 && beats ? static_cast<double>(beats->count) / frames
                            : 0.0;

  // fleet: per-round phase spans and slab residency.
  std::map<std::string, double> phase;
  if (w.backend == Backend::kFleet) {
    for (const obs::Span& span : job.spans) {
      phase[span.label] += span.end - span.start;
    }
  }
  for (const char* name : {"clock", "select", "train", "fold"}) {
    out[std::string("fleet.") + name + "_s"] = phase[name] / rounds;
    out[std::string("fleet.") + name + "_share"] =
        phase[name] / job.run_wall_s;
  }
  out["fleet.peak_state_mb"] =
      static_cast<double>(job.fleet_stats.peak_state_bytes +
                          job.fleet_stats.peak_velocity_bytes) /
      (1024.0 * 1024.0);
  out["fleet.warn_lines_per_round"] =
      static_cast<double>(job.warn_lines) / rounds;
  return out;
}

}  // namespace perf
