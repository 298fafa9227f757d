// Ablation: lossy compression of HADFL's synchronization path (int8
// quantization and top-k delta sparsification with error feedback) — the
// byte-level reduction composing with the paper's frequency (T_sync) and
// topology (N_p ring) reductions. Sweeps codec × chunk count × keep-ratio
// and reports accuracy, time-to-best, total volume, and the formula-priced
// sync bytes per round (comm::encoded_state_bytes — what one full-state
// exchange puts on the wire).
//
// `--smoke` skips the sweep and gates correctness instead (CI runs this on
// every push):
//   * codec=none stays bit-identical between the sim and rt backends at
//     several chunk counts (compression off must change nothing);
//   * compressed runs are bit-identical across sim and rt;
//   * at 8 chunks the telemetry-counted sync-path bytes shrink by >= 3x
//     under int8 and >= 10x under top-k 1% against the dense run.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "comm/delta_codec.hpp"
#include "common/table.hpp"
#include "nn/param_utils.hpp"
#include "core/trainer.hpp"
#include "exp/report.hpp"
#include "rt/runner.hpp"

using namespace hadfl;

namespace {

struct CodecVariant {
  comm::SyncCodec codec;
  double ratio;
  const char* label;
};

struct SweepRow {
  const char* codec;
  double ratio;
  std::size_t chunks;
  double best_accuracy;
  double time_to_best;
  double volume_mb;
  std::size_t sync_bytes_per_round;
};

// Raw sweep rows as JSON (the BENCH_fleet.json pattern) so later changes
// have a bytes/accuracy baseline to diff against.
void write_json(const std::string& path, const std::vector<SweepRow>& rows) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"ablation_compression\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"codec\": \"%s\", \"ratio\": %.2f, \"chunks\": %zu,"
                  " \"best_accuracy\": %.4f,\n     \"time_to_best_s\": %.1f,"
                  " \"volume_mb\": %.0f, \"sync_bytes_per_round\": %zu}",
                  r.codec, r.ratio, r.chunks, r.best_accuracy, r.time_to_best,
                  r.volume_mb, r.sync_bytes_per_round);
    out << line << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

int run_sweep(const std::string& json_out) {
  const double scale = exp::bench_scale_from_env();
  exp::Scenario s =
      exp::paper_scenario(nn::Architecture::kMlp, {3, 3, 1, 1}, scale);
  // Long enough for error feedback to close the top-k 1% gap: deferred
  // deltas drain over rounds, so the aggressive codecs need the extra
  // epochs to land within 1% of the dense run (the acceptance bar).
  s.train.total_epochs = 160;
  exp::Environment env(s);
  Rng model_rng(s.train.seed);
  const std::size_t n = nn::state_size(*env.context().make_model(model_rng));

  std::cout << "ABLATION: sync-path compression (MLP, [3,3,1,1], wire"
               " priced at ResNet-18 size)\n\n";
  TextTable table({"codec", "chunks", "best acc", "time to best [s]",
                   "volume [MB]", "sync B/round"});
  const CodecVariant codecs[] = {
      {comm::SyncCodec::kNone, 0.0, "none (float32)"},
      {comm::SyncCodec::kInt8, 0.0, "int8 quantization"},
      {comm::SyncCodec::kTopK, 0.10, "top-k delta, 10%"},
      {comm::SyncCodec::kTopK, 0.02, "top-k delta, 2%"},
      {comm::SyncCodec::kTopK, 0.01, "top-k delta, 1%"},
  };
  std::vector<SweepRow> rows;
  for (const auto& c : codecs) {
    for (const std::size_t chunks : {std::size_t{8}, std::size_t{64}}) {
      exp::Scenario variant = s;
      variant.hadfl.compression = c.codec;
      if (c.ratio > 0.0) variant.hadfl.top_k_ratio = c.ratio;
      variant.hadfl.sync_chunks = chunks;
      fl::SchemeContext ctx = env.context();
      const core::HadflResult r = core::run_hadfl(ctx, variant.hadfl);
      const exp::SchemeSummary sum = exp::summarize(r.scheme.metrics);
      const double volume_mb =
          static_cast<double>(r.scheme.volume.total_sent() +
                              r.scheme.volume.total_received()) /
          (1024.0 * 1024.0);
      const std::size_t per_round =
          comm::encoded_state_bytes(c.codec, n, chunks, c.ratio);
      rows.push_back({c.label, c.ratio, chunks, sum.best_accuracy,
                      sum.time_to_best, volume_mb, per_round});
      table.add_row({c.label, std::to_string(chunks),
                     TextTable::num(100.0 * sum.best_accuracy, 1) + "%",
                     TextTable::num(sum.time_to_best, 1),
                     TextTable::num(volume_mb, 0),
                     std::to_string(per_round)});
    }
  }
  write_json(json_out, rows);
  std::cout << table.render()
            << "\nExpected shape: int8 cuts sync bytes ~4x at negligible"
               " accuracy cost; aggressive\ntop-k keeps cutting bytes but"
               " starts to slow convergence (error feedback defers,\nnot"
               " discards, the dropped deltas). More chunks cost a little"
               " payload overhead\n(per-chunk scale/count slots) and tighten"
               " the per-chunk int8 error bound.\n";
  return 0;
}

// ---- smoke mode ----------------------------------------------------------

exp::Scenario smoke_scenario() {
  exp::Scenario s =
      exp::paper_scenario(nn::Architecture::kMlp, {3, 3, 1, 1}, /*scale=*/0.3);
  s.train.total_epochs = 4;
  return s;
}

core::HadflResult run_sim(const exp::Scenario& s) {
  exp::Environment env(s);
  fl::SchemeContext ctx = env.context();
  core::HadflConfig hadfl = s.hadfl;
  return core::run_hadfl(ctx, hadfl);
}

rt::RtResult run_rt(const exp::Scenario& s, bool telemetry = false) {
  exp::Environment env(s);
  fl::SchemeContext ctx = env.context();
  rt::RtConfig config;
  config.hadfl = s.hadfl;
  config.command_poll_s = 0.002;
  config.telemetry = telemetry;
  return rt::run_hadfl_rt(ctx, config);
}

bool states_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The telemetry-counted sync-path payload bytes of an rt run.
std::uint64_t sync_bytes(const rt::RtResult& r) {
  std::uint64_t total = 0;
  for (const char* name : {"sync.scatter_bytes", "sync.allgather_bytes"}) {
    const obs::CounterSample* c = r.metrics.find_counter(name);
    if (c != nullptr) total += c->value;
  }
  return total;
}

// codec=none must change nothing: sim and rt agree bitwise at every chunk
// count, and with the chunk knob left at its default.
int smoke_none_bit_identity() {
  int failures = 0;
  exp::Scenario s = smoke_scenario();
  const core::HadflResult sim_res = run_sim(s);
  for (const std::size_t chunks : {0u, 1u, 8u}) {
    exp::Scenario variant = s;
    variant.hadfl.sync_chunks = chunks;
    const rt::RtResult rt_res = run_rt(variant);
    if (!states_equal(sim_res.scheme.final_state,
                      rt_res.scheme.final_state)) {
      std::printf("FAIL codec=none chunks=%zu: rt final state differs from "
                  "the simulator's\n",
                  chunks);
      ++failures;
    }
  }
  return failures;
}

// Compressed runs stay bit-identical across backends, and at 8 chunks the
// measured sync-path bytes hit the codec floors against the dense run.
int smoke_codec_identity_and_floors() {
  int failures = 0;
  exp::Scenario dense = smoke_scenario();
  dense.hadfl.sync_chunks = 8;
  const std::uint64_t dense_bytes = sync_bytes(run_rt(dense, true));
  if (dense_bytes == 0) {
    std::printf("FAIL dense run counted no sync bytes\n");
    return 1;
  }

  const CodecVariant variants[] = {
      {comm::SyncCodec::kInt8, 0.0, "int8"},
      {comm::SyncCodec::kTopK, 0.01, "topk-1%"},
  };
  const double floors[] = {3.0, 10.0};
  for (std::size_t v = 0; v < 2; ++v) {
    exp::Scenario s = smoke_scenario();
    s.hadfl.compression = variants[v].codec;
    if (variants[v].ratio > 0.0) s.hadfl.top_k_ratio = variants[v].ratio;
    s.hadfl.sync_chunks = 8;
    const core::HadflResult sim_res = run_sim(s);
    const rt::RtResult rt_res = run_rt(s, true);
    if (!states_equal(sim_res.scheme.final_state,
                      rt_res.scheme.final_state)) {
      std::printf("FAIL %s: rt final state differs from the simulator's\n",
                  variants[v].label);
      ++failures;
    }
    const std::uint64_t bytes = sync_bytes(rt_res);
    const double reduction =
        bytes > 0 ? static_cast<double>(dense_bytes) /
                        static_cast<double>(bytes)
                  : 0.0;
    std::printf("%s sync-path bytes: %llu vs dense %llu (%.1fx)\n",
                variants[v].label, static_cast<unsigned long long>(bytes),
                static_cast<unsigned long long>(dense_bytes), reduction);
    if (reduction < floors[v]) {
      std::printf("FAIL %s sync-byte reduction %.2fx is under the %.0fx "
                  "floor\n",
                  variants[v].label, reduction, floors[v]);
      ++failures;
    }
  }
  return failures;
}

int run_smoke() {
  int failures = smoke_none_bit_identity();
  failures += smoke_codec_identity_and_floors();
  if (failures == 0) {
    std::printf("ablation_compression --smoke: codec=none bit-identical "
                "across backends at every chunk count; int8/top-k runs "
                "bit-identical too and clear the byte-reduction floors\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out = "BENCH_compression.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") return run_smoke();
    if (arg.rfind("--out=", 0) == 0) json_out = arg.substr(6);
  }
  return run_sweep(json_out);
}
