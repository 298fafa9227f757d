// Micro-benchmarks for the real-time runtime (src/rt): mailbox round-trip
// latency, ring collective throughput on real threads as the ring grows,
// the chunked-vs-monolithic weighted-aggregation sweep behind
// EXPERIMENTS.md, and an rt-vs-sim end-to-end smoke on the paper's
// {3,3,1,1} cell.
//
// `--smoke` skips timing and instead checks correctness: chunked
// aggregates must be bit-identical to the single-threaded reference fold
// for every chunk count, and the rt end-to-end run must reproduce the
// simulator's final state bit-for-bit (the equivalence pin). CI runs this
// mode on every push.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "comm/delta_codec.hpp"
#include "core/round_logic.hpp"
#include "core/trainer.hpp"
#include "exp/runner.hpp"
#include "rt/collectives.hpp"
#include "rt/mailbox.hpp"
#include "rt/runner.hpp"
#include "rt/transport.hpp"

namespace {

using namespace hadfl;

// Ping-pong between two threads through two mailboxes: one iteration is a
// full command/report round trip, the unit cost of every coordinator step.
void BM_MailboxRoundTrip(benchmark::State& state) {
  rt::Mailbox<int> ping;
  rt::Mailbox<int> pong;
  std::thread echo([&] {
    for (;;) {
      const std::optional<int> v = ping.pop(10.0);
      if (!v || *v < 0) return;
      pong.push(*v);
    }
  });
  for (auto _ : state) {
    ping.push(1);
    benchmark::DoNotOptimize(pong.pop(10.0));
  }
  ping.push(-1);
  echo.join();
}
BENCHMARK(BM_MailboxRoundTrip);

// Full ring all-gather of a model-sized state across K worker threads; the
// reported rate is per-collective (K-1 rendezvous steps per member). The
// transport persists across iterations — as in the runner, where one
// transport serves the whole training run — so payload buffers recirculate
// through its pool instead of being re-allocated every collective.
void BM_RtRingAllgather(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::size_t elems = 1 << 14;
  std::vector<sim::DeviceId> ring(k);
  for (std::size_t i = 0; i < k; ++i) ring[i] = i;
  rt::InprocTransport t(k, sim::NetworkModel{1e-5, 1e9});
  for (auto _ : state) {
    std::vector<std::thread> members;
    members.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      members.emplace_back([&, i] {
        const std::vector<float> local(elems, static_cast<float>(i));
        std::vector<std::vector<float>> result =
            rt::ring_allgather(t, ring, i, local, 1, 0, 30.0);
        benchmark::DoNotOptimize(result.data());
        for (auto& buf : result) t.pool().release(std::move(buf));
      });
    }
    for (auto& th : members) th.join();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * (k - 1) * elems *
                                                    sizeof(float)));
}
BENCHMARK(BM_RtRingAllgather)->Arg(2)->Arg(4)->Arg(8);

// ---- chunked vs monolithic weighted aggregation --------------------------
//
// The training-path sweep: `ring_weighted_aggregate` with C chunks against
// the monolithic predecessor (full-state ring_allgather + ring-order fold),
// K ∈ {4, 8}. Unthrottled runs (time_scale 0) move messages at memory
// speed and measure pure software overhead, where more chunks mostly means
// more per-message bookkeeping. Throttled runs replay the virtual link
// cost in real time (0.1 ms latency, 50 MB/s), where the monolithic path
// pays K-1 serial full-state transfers while the pipelined path keeps the
// links busy with chunk-sized pieces — that is the regime the collective
// was built for, and where the EXPERIMENTS.md numbers come from.

constexpr std::size_t kSyncElems = 1 << 16;  // 256 KiB state

sim::NetworkModel sweep_network(bool throttled) {
  return throttled ? sim::NetworkModel{1e-4, 50e6}
                   : sim::NetworkModel{1e-5, 1e9};
}

// Heterogeneous ring weights (normalized i+1 ramp), as the trainer produces.
std::vector<double> sweep_weights(std::size_t k) {
  std::vector<double> w(k);
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += static_cast<double>(i + 1);
  for (std::size_t i = 0; i < k; ++i) {
    w[i] = static_cast<double>(i + 1) / sum;
  }
  return w;
}

void report_pool(benchmark::State& state, rt::InprocTransport& t) {
  const rt::BufferPool::Stats pool = t.pool().stats();
  state.counters["pool_hits"] = static_cast<double>(pool.hits);
  state.counters["pool_misses"] = static_cast<double>(pool.misses);
  state.counters["pool_high_water"] = static_cast<double>(pool.high_water);
}

// Pipelined chunked aggregation. Args: {K, chunks, throttled}.
void BM_RtWeightedAggregate(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto chunks = static_cast<std::size_t>(state.range(1));
  const bool throttled = state.range(2) != 0;
  std::vector<sim::DeviceId> ring(k);
  for (std::size_t i = 0; i < k; ++i) ring[i] = i;
  const std::vector<double> weights = sweep_weights(k);
  rt::InprocTransport t(k, sweep_network(throttled), throttled ? 1.0 : 0.0);
  std::int64_t cid = 1;
  for (auto _ : state) {
    std::vector<std::thread> members;
    members.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      members.emplace_back([&, i] {
        const std::vector<float> local(kSyncElems,
                                       static_cast<float>(i + 1));
        core::WeightedRingFold fold;
        std::vector<float> out(kSyncElems);
        rt::ring_weighted_aggregate(t, ring, i, local, weights, fold, out,
                                    cid, /*wire_bytes=*/0,
                                    /*step_timeout_s=*/30.0, chunks);
        benchmark::DoNotOptimize(out.data());
      });
    }
    for (auto& th : members) th.join();
    ++cid;
  }
  report_pool(state, t);
  // Total traffic per collective: 2·(K-1)/K·M per member, K members.
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              2 * (k - 1) * kSyncElems * sizeof(float)));
}
BENCHMARK(BM_RtWeightedAggregate)
    ->ArgsProduct({{4, 8}, {1, 4, 16, 64}, {0, 1}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The pre-pipelining training path: every member all-gathers the full
// states, then folds locally in ring order. Args: {K, throttled}.
void BM_RtMonolithicGatherFold(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const bool throttled = state.range(1) != 0;
  std::vector<sim::DeviceId> ring(k);
  for (std::size_t i = 0; i < k; ++i) ring[i] = i;
  const std::vector<double> weights = sweep_weights(k);
  rt::InprocTransport t(k, sweep_network(throttled), throttled ? 1.0 : 0.0);
  std::int64_t cid = 1;
  for (auto _ : state) {
    std::vector<std::thread> members;
    members.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      members.emplace_back([&, i] {
        const std::vector<float> local(kSyncElems,
                                       static_cast<float>(i + 1));
        std::vector<std::vector<float>> parts =
            rt::ring_allgather(t, ring, i, local, cid, /*wire_bytes=*/0,
                               /*step_timeout_s=*/30.0);
        core::WeightedRingFold fold;
        fold.reset(kSyncElems);
        for (std::size_t m = 0; m < k; ++m) {
          fold.add(0, parts[m], weights[m]);
        }
        std::vector<float> out(kSyncElems);
        fold.write(0, out);
        benchmark::DoNotOptimize(out.data());
        for (auto& buf : parts) t.pool().release(std::move(buf));
      });
    }
    for (auto& th : members) th.join();
    ++cid;
  }
  report_pool(state, t);
  // Monolithic traffic: (K-1)·M per member, K members.
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              k * (k - 1) * kSyncElems * sizeof(float)));
}
BENCHMARK(BM_RtMonolithicGatherFold)
    ->ArgsProduct({{4, 8}, {0, 1}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Compressed-delta variant of the sweep: chunks travel codec-encoded in
// both ring phases (int8 ≈ 4x, top-k 2% ≈ 25x fewer payload bytes), at the
// cost of per-chunk encode/decode work. Args: {K, chunks, codec
// (0 = int8, 1 = top-k 2%), throttled}. Under the throttled link the
// encoded payloads repay their CPU cost many times over — that is the
// EXPERIMENTS.md bytes/wall-time tradeoff.
void BM_RtDeltaAggregate(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto chunks = static_cast<std::size_t>(state.range(1));
  const bool topk = state.range(2) != 0;
  const bool throttled = state.range(3) != 0;
  const comm::SyncCodec codec =
      topk ? comm::SyncCodec::kTopK : comm::SyncCodec::kInt8;
  const double ratio = 0.02;
  std::vector<sim::DeviceId> ring(k);
  for (std::size_t i = 0; i < k; ++i) ring[i] = i;
  const std::vector<double> weights = sweep_weights(k);
  rt::InprocTransport t(k, sweep_network(throttled), throttled ? 1.0 : 0.0);
  std::int64_t cid = 1;
  for (auto _ : state) {
    std::vector<std::thread> members;
    members.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      members.emplace_back([&, i] {
        std::vector<float> update(kSyncElems);
        for (std::size_t e = 0; e < kSyncElems; ++e) {
          update[e] = 0.01f * static_cast<float>(i + 1) -
                      0.0001f * static_cast<float>(e % 101);
        }
        std::vector<float> staged(kSyncElems);
        std::vector<std::vector<float>> stash;
        core::WeightedRingFold fold;
        std::vector<float> out(kSyncElems);
        rt::ring_weighted_delta_aggregate(
            t, ring, i, update, weights, fold, out, staged, stash, cid,
            /*wire_bytes=*/0, /*step_timeout_s=*/30.0, chunks, codec, ratio);
        benchmark::DoNotOptimize(out.data());
      });
    }
    for (auto& th : members) th.join();
    ++cid;
  }
  report_pool(state, t);
  // Encoded traffic per collective: 2·(K-1)/K·Σ_chunks enc per member.
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(
          2 * (k - 1) *
          comm::encoded_state_bytes(codec, kSyncElems, chunks, ratio)));
}
BENCHMARK(BM_RtDeltaAggregate)
    ->ArgsProduct({{4, 8}, {4, 16}, {0, 1}, {0, 1}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

exp::Scenario smoke_scenario() {
  exp::Scenario s =
      exp::paper_scenario(nn::Architecture::kMlp, {3, 3, 1, 1}, /*scale=*/0.3);
  s.train.total_epochs = 4;
  return s;
}

// End-to-end HADFL on the virtual-clock simulator (baseline for the pair
// below; the two runs produce bit-identical aggregates).
void BM_HadflSimEndToEnd(benchmark::State& state) {
  exp::Scenario s = smoke_scenario();
  for (auto _ : state) {
    exp::Environment env(s);
    fl::SchemeContext ctx = env.context();
    benchmark::DoNotOptimize(core::run_hadfl(ctx, s.hadfl));
  }
}
BENCHMARK(BM_HadflSimEndToEnd)->Unit(benchmark::kMillisecond);

// The same cell on the rt backend: one thread per device, real mailboxes,
// real ring collectives. The delta against the sim run is the cost of
// actual concurrency (thread hand-offs, rendezvous waits).
void BM_HadflRtEndToEnd(benchmark::State& state) {
  exp::Scenario s = smoke_scenario();
  for (auto _ : state) {
    exp::Environment env(s);
    fl::SchemeContext ctx = env.context();
    rt::RtConfig config;
    config.hadfl = s.hadfl;
    config.command_poll_s = 0.002;
    benchmark::DoNotOptimize(rt::run_hadfl_rt(ctx, config));
  }
}
BENCHMARK(BM_HadflRtEndToEnd)->Unit(benchmark::kMillisecond);

// The same end-to-end run with telemetry on: per-device span recording,
// byte counters, latency histograms. The delta against BM_HadflRtEndToEnd
// is the full cost of observation (acceptance target: under 2%).
void BM_HadflRtEndToEndTelemetry(benchmark::State& state) {
  exp::Scenario s = smoke_scenario();
  for (auto _ : state) {
    exp::Environment env(s);
    fl::SchemeContext ctx = env.context();
    rt::RtConfig config;
    config.hadfl = s.hadfl;
    config.command_poll_s = 0.002;
    config.telemetry = true;
    benchmark::DoNotOptimize(rt::run_hadfl_rt(ctx, config));
  }
}
BENCHMARK(BM_HadflRtEndToEndTelemetry)->Unit(benchmark::kMillisecond);

// ---- smoke mode ----------------------------------------------------------

// Chunked aggregation on real threads must be bit-identical to the
// single-threaded reference fold for every chunk count.
int smoke_chunk_equivalence() {
  constexpr std::size_t kElems = 1237;  // odd, so chunks split unevenly
  int failures = 0;
  for (const std::size_t k : {2u, 4u}) {
    std::vector<sim::DeviceId> ring(k);
    for (std::size_t i = 0; i < k; ++i) ring[i] = i;
    const std::vector<double> weights = sweep_weights(k);

    std::vector<std::vector<float>> locals(k);
    for (std::size_t i = 0; i < k; ++i) {
      locals[i].resize(kElems);
      for (std::size_t e = 0; e < kElems; ++e) {
        locals[i][e] = 0.25f * static_cast<float>(i + 1) -
                       0.001f * static_cast<float>(e % 97);
      }
    }
    core::WeightedRingFold ref_fold;
    ref_fold.reset(kElems);
    for (std::size_t m = 0; m < k; ++m) {
      ref_fold.add(0, locals[m], weights[m]);
    }
    std::vector<float> want(kElems);
    ref_fold.write(0, want);

    rt::InprocTransport t(k, sweep_network(false));
    std::int64_t cid = 1;
    for (const std::size_t chunks : {1u, 3u, 16u}) {
      std::vector<std::vector<float>> outs(
          k, std::vector<float>(kElems));
      std::vector<std::thread> members;
      members.reserve(k);
      for (std::size_t i = 0; i < k; ++i) {
        members.emplace_back([&, i] {
          core::WeightedRingFold fold;
          rt::ring_weighted_aggregate(t, ring, i, locals[i], weights, fold,
                                      outs[i], cid, /*wire_bytes=*/0,
                                      /*step_timeout_s=*/30.0, chunks);
        });
      }
      for (auto& th : members) th.join();
      ++cid;
      for (std::size_t i = 0; i < k; ++i) {
        if (std::memcmp(outs[i].data(), want.data(),
                        kElems * sizeof(float)) != 0) {
          std::printf("FAIL k=%zu chunks=%zu: member %zu aggregate is not "
                      "bit-identical to the reference fold\n",
                      k, chunks, i);
          ++failures;
        }
      }
    }
  }
  return failures;
}

// The compressed collective on real threads must reproduce the
// single-threaded reference exactly: decode every member's encoded update,
// fold in ring order, encode the fold once — the same comm/delta_codec.hpp
// ops the simulator uses, so bitwise agreement here is what underwrites
// compressed sim/rt equivalence.
int smoke_delta_collective() {
  constexpr std::size_t kElems = 1237;  // odd, so chunks split unevenly
  int failures = 0;
  const double ratio = 0.1;
  for (const comm::SyncCodec codec :
       {comm::SyncCodec::kInt8, comm::SyncCodec::kTopK}) {
    for (const std::size_t k : {2u, 4u}) {
      std::vector<sim::DeviceId> ring(k);
      for (std::size_t i = 0; i < k; ++i) ring[i] = i;
      const std::vector<double> weights = sweep_weights(k);
      std::vector<std::vector<float>> updates(k);
      for (std::size_t i = 0; i < k; ++i) {
        updates[i].resize(kElems);
        for (std::size_t e = 0; e < kElems; ++e) {
          updates[i][e] = 0.25f * static_cast<float>(i + 1) -
                          0.001f * static_cast<float>(e % 97);
        }
      }
      rt::InprocTransport t(k, sweep_network(false));
      std::int64_t cid = 1;
      for (const std::size_t chunks : {1u, 3u, 16u}) {
        const std::size_t c_count = rt::resolve_chunk_count(chunks, kElems);
        // Single-threaded reference of the full delta round.
        std::vector<float> staged(kElems);
        core::WeightedRingFold ref_fold;
        ref_fold.reset(kElems);
        std::vector<std::vector<float>> decoded = updates;
        for (std::size_t m = 0; m < k; ++m) {
          for (std::size_t c = 0; c < c_count; ++c) {
            const auto [b, e] = chunk_range(kElems, c_count, c);
            std::vector<float> payload(
                comm::encoded_chunk_floats(codec, e - b, ratio));
            comm::roundtrip_chunk_staged(
                codec, ratio, std::span<float>(decoded[m]).subspan(b, e - b),
                std::span<float>(staged).subspan(b, e - b), payload);
          }
          ref_fold.add(0, decoded[m], weights[m]);
        }
        std::vector<float> want(kElems);
        ref_fold.write(0, want);
        for (std::size_t c = 0; c < c_count; ++c) {
          const auto [b, e] = chunk_range(kElems, c_count, c);
          std::vector<float> payload(
              comm::encoded_chunk_floats(codec, e - b, ratio));
          comm::roundtrip_folded_chunk(
              codec, ratio, std::span<float>(want).subspan(b, e - b),
              payload);
        }

        std::vector<std::vector<float>> outs(k, std::vector<float>(kElems));
        std::vector<std::thread> members;
        members.reserve(k);
        for (std::size_t i = 0; i < k; ++i) {
          members.emplace_back([&, i] {
            std::vector<float> update = updates[i];
            std::vector<float> member_staged(kElems);
            std::vector<std::vector<float>> stash;
            core::WeightedRingFold fold;
            rt::ring_weighted_delta_aggregate(
                t, ring, i, update, weights, fold, outs[i], member_staged,
                stash, cid, /*wire_bytes=*/0, /*step_timeout_s=*/30.0,
                chunks, codec, ratio);
          });
        }
        for (auto& th : members) th.join();
        ++cid;
        for (std::size_t i = 0; i < k; ++i) {
          if (std::memcmp(outs[i].data(), want.data(),
                          kElems * sizeof(float)) != 0) {
            std::printf("FAIL codec=%d k=%zu chunks=%zu: member %zu delta "
                        "aggregate is not bit-identical to the reference\n",
                        static_cast<int>(codec), k, chunks, i);
            ++failures;
          }
        }
      }
    }
  }
  return failures;
}

// The rt backend must reproduce the virtual-clock simulator bit-for-bit on
// the paper cell (same seed, same fold order — the equivalence pin).
int smoke_rt_matches_sim() {
  exp::Scenario s = smoke_scenario();

  exp::Environment sim_env(s);
  fl::SchemeContext sim_ctx = sim_env.context();
  const core::HadflResult sim_res = core::run_hadfl(sim_ctx, s.hadfl);

  exp::Environment rt_env(s);
  fl::SchemeContext rt_ctx = rt_env.context();
  rt::RtConfig config;
  config.hadfl = s.hadfl;
  config.command_poll_s = 0.002;
  const rt::RtResult rt_res = rt::run_hadfl_rt(rt_ctx, config);

  const std::vector<float>& a = sim_res.scheme.final_state;
  const std::vector<float>& b = rt_res.scheme.final_state;
  if (a.size() != b.size() ||
      std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    std::printf("FAIL rt end-to-end final state differs from the "
                "simulator's (%zu vs %zu elems)\n",
                b.size(), a.size());
    return 1;
  }
  return 0;
}

// Telemetry must observe without perturbing: the instrumented run stays
// bit-identical to the dark one, every device shows spans, the headline
// metrics exist — and the wall-clock overhead is measured and printed.
int smoke_telemetry_equivalence() {
  exp::Scenario s = smoke_scenario();
  int failures = 0;

  const auto run_once = [&s](bool telemetry) {
    exp::Environment env(s);
    fl::SchemeContext ctx = env.context();
    rt::RtConfig config;
    config.hadfl = s.hadfl;
    config.command_poll_s = 0.002;
    config.telemetry = telemetry;
    return rt::run_hadfl_rt(ctx, config);
  };

  // Best-of-3 each way: the runs are short, so a single scheduler hiccup
  // would otherwise dominate the overhead estimate.
  double dark_s = 0.0;
  double lit_s = 0.0;
  rt::RtResult dark;
  rt::RtResult lit;
  for (int rep = 0; rep < 3; ++rep) {
    rt::RtResult d = run_once(false);
    rt::RtResult l = run_once(true);
    if (rep == 0 || d.wall_seconds < dark_s) dark_s = d.wall_seconds;
    if (rep == 0 || l.wall_seconds < lit_s) lit_s = l.wall_seconds;
    if (rep == 0) {
      dark = std::move(d);
      lit = std::move(l);
    }
  }

  const std::vector<float>& a = dark.scheme.final_state;
  const std::vector<float>& b = lit.scheme.final_state;
  if (a.size() != b.size() ||
      std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    std::printf("FAIL telemetry-enabled rt run is not bit-identical to the "
                "telemetry-off run\n");
    ++failures;
  }

  const std::size_t k = s.num_devices();
  for (std::size_t d = 0; d < k; ++d) {
    if (lit.timeline.spans_for(d).empty()) {
      std::printf("FAIL telemetry run recorded no spans for device %zu\n", d);
      ++failures;
    }
  }
  if (lit.spans_dropped != 0) {
    std::printf("FAIL telemetry run dropped %llu spans\n",
                static_cast<unsigned long long>(lit.spans_dropped));
    ++failures;
  }
  for (const char* name : {"sync.latency_s", "heartbeat.silence_s"}) {
    if (lit.metrics.find_histogram(name) == nullptr) {
      std::printf("FAIL telemetry run missing histogram %s\n", name);
      ++failures;
    }
  }
  for (const char* name :
       {"sync.scatter_bytes", "sync.allgather_bytes", "broadcast.bytes"}) {
    if (lit.metrics.find_counter(name) == nullptr) {
      std::printf("FAIL telemetry run missing counter %s\n", name);
      ++failures;
    }
  }

  const double overhead =
      dark_s > 0.0 ? 100.0 * (lit_s - dark_s) / dark_s : 0.0;
  std::printf("telemetry overhead: %.2f%% (dark %.3fs, lit %.3fs, "
              "%zu spans)\n",
              overhead, dark_s, lit_s, lit.timeline.spans().size());
  // Target is < 2%; gate loosely so one noisy CI box cannot flake the
  // build while a real hot-path regression (which shows up as tens of
  // percent) still fails.
  if (overhead > 25.0) {
    std::printf("FAIL telemetry overhead %.2f%% exceeds the 25%% smoke "
                "ceiling\n",
                overhead);
    ++failures;
  }
  return failures;
}

int run_smoke() {
  int failures = smoke_chunk_equivalence();
  failures += smoke_delta_collective();
  failures += smoke_rt_matches_sim();
  failures += smoke_telemetry_equivalence();
  if (failures == 0) {
    std::printf("micro_rt --smoke: chunked and compressed-delta aggregation "
                "bit-identical to the reference fold; rt run matches the "
                "simulator; telemetry observes without perturbing\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") return run_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
