#include "comm/compression.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "comm/delta_codec.hpp"
#include "common/error.hpp"
#include "core/round_logic.hpp"
#include "core/trainer.hpp"
#include "exp/runner.hpp"
#include "test_util.hpp"

namespace hadfl::comm {
namespace {

TEST(QuantizeInt8, RoundTripErrorBounded) {
  Tensor x = testutil::random_tensor({1000}, 1, 3.0f);
  const QuantizedState q = quantize_int8(x.storage());
  const std::vector<float> back = dequantize_int8(q);
  float max_abs = 0.0f;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    max_abs = std::max(max_abs, std::fabs(x[i]));
  }
  const float bound = max_abs / 127.0f;  // half-step would be /254; one
                                         // step is a safe bound
  for (std::size_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(back[i], x[i], bound);
  }
}

TEST(QuantizeInt8, WireSizeIsQuarterPlusScale) {
  std::vector<float> x(4096, 1.0f);
  const QuantizedState q = quantize_int8(x);
  EXPECT_EQ(q.wire_bytes(), 4096u + sizeof(float));
}

TEST(QuantizeInt8, AllZerosLossless) {
  std::vector<float> x(16, 0.0f);
  const QuantizedState q = quantize_int8(x);
  EXPECT_EQ(q.scale, 0.0f);
  for (float v : dequantize_int8(q)) EXPECT_EQ(v, 0.0f);
}

TEST(QuantizeInt8, ExtremesMapToFullRange) {
  std::vector<float> x{-2.0f, 0.0f, 2.0f};
  const QuantizedState q = quantize_int8(x);
  EXPECT_EQ(q.values[0], -127);
  EXPECT_EQ(q.values[1], 0);
  EXPECT_EQ(q.values[2], 127);
}

// ------------------------------------------------- Delta codec chunk ops

TEST(DeltaCodec, Int8ChunkRoundTripMatchesQuantizeInt8) {
  Tensor x = testutil::random_tensor({100}, 5, 2.0f);
  std::vector<float> payload(int8_payload_floats(x.numel()));
  encode_int8_chunk(x.storage(), payload);
  std::vector<float> decoded(x.numel());
  decode_int8_chunk(payload, decoded);
  const QuantizedState q = quantize_int8(x.storage());
  EXPECT_EQ(decoded, dequantize_int8(q));
}

TEST(DeltaCodec, TopKChunkKeepsLargestMagnitudes) {
  const std::vector<float> chunk{0.1f, -5.0f, 0.2f, 3.0f, -0.05f};
  const std::size_t k = topk_keep_count(0.4, chunk.size());
  ASSERT_EQ(k, 2u);
  std::vector<float> payload(topk_payload_floats(k));
  encode_topk_chunk(chunk, 0.4, payload);
  std::vector<float> decoded(chunk.size());
  decode_topk_chunk(payload, decoded);
  EXPECT_EQ(decoded,
            (std::vector<float>{0.0f, -5.0f, 0.0f, 3.0f, 0.0f}));
}

TEST(DeltaCodec, EncodedSizesAreDataIndependentSums) {
  // The pricing contract: every backend can compute wire bytes from the
  // formula alone, without encoding anything.
  const std::size_t n = 1001;
  const std::size_t chunks = 7;
  std::size_t per_chunk_sum = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto [b, e] = chunk_range(n, chunks, c);
    per_chunk_sum +=
        encoded_chunk_bytes(SyncCodec::kTopK, e - b, /*topk_ratio=*/0.1);
  }
  EXPECT_EQ(encoded_state_bytes(SyncCodec::kTopK, n, chunks, 0.1),
            per_chunk_sum);
  EXPECT_EQ(encoded_state_bytes(SyncCodec::kNone, n, chunks, 0.1),
            n * sizeof(float));
}

// ----------------------------------------------------------- ErrorFeedback

TEST(ErrorFeedback, ResidualCarriesIntoTheNextUpdate) {
  ErrorFeedback ef;
  ef.ensure(4);
  const std::vector<float> ref(4, 1.0f);
  const std::vector<float> x{2.0f, -1.0f, 1.5f, 1.25f};
  std::vector<float> u = x;
  form_delta_update(u, ref, ef.residual);
  std::vector<float> payload(
      encoded_chunk_floats(SyncCodec::kInt8, u.size(), 0.0));
  roundtrip_chunk_staged(SyncCodec::kInt8, 0.0, u, ef.staged, payload);
  // int8 is lossy on this chunk, so some residual must be staged — and
  // chunk + staged must reconstruct the pre-encode update exactly.
  bool lossy = false;
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_EQ(u[i] + ef.staged[i], x[i] - ref[i]);
    lossy = lossy || ef.staged[i] != 0.0f;
  }
  EXPECT_TRUE(lossy);
  const std::vector<float> staged = ef.staged;
  ef.commit();
  EXPECT_EQ(ef.residual, staged);
  // Next round: the committed residual rides into the new delta update.
  std::vector<float> u2 = x;
  form_delta_update(u2, ref, ef.residual);
  for (std::size_t i = 0; i < u2.size(); ++i) {
    EXPECT_EQ(u2[i], x[i] - ref[i] + staged[i]);
  }
}

TEST(ErrorFeedback, UncommittedStageLeavesResidualUntouched) {
  // An aborted sync attempt must not consume the residual: only commit()
  // (called on success) swaps the staged values in.
  ErrorFeedback ef;
  ef.ensure(2);
  ef.residual = {0.5f, -0.5f};
  std::vector<float> u{1.0f, 1.0f};
  std::vector<float> payload(encoded_chunk_floats(SyncCodec::kInt8, 2, 0.0));
  roundtrip_chunk_staged(SyncCodec::kInt8, 0.0, u, ef.staged, payload);
  EXPECT_EQ(ef.residual, (std::vector<float>{0.5f, -0.5f}));
}

TEST(ErrorFeedback, AllZeroUpdateIsLossless) {
  for (const SyncCodec codec : {SyncCodec::kInt8, SyncCodec::kTopK}) {
    ErrorFeedback ef;
    ef.ensure(8);
    std::vector<float> u(8, 0.0f);
    std::vector<float> payload(encoded_chunk_floats(codec, u.size(), 0.25));
    roundtrip_chunk_staged(codec, 0.25, u, ef.staged, payload);
    for (float v : u) EXPECT_EQ(v, 0.0f);
    for (float v : ef.staged) EXPECT_EQ(v, 0.0f);
  }
}

TEST(ErrorFeedback, TopKPlusFeedbackSumsToTheExactUpdate) {
  // The error-feedback telescoping identity: over R rounds of the same
  // gradient g, Σ decoded + residual_R == R·g — nothing is ever lost, only
  // deferred. Power-of-two values keep every float op exact so the check
  // can be bitwise.
  const std::vector<float> g{4.0f, -2.0f, 1.0f, 0.5f, -0.25f, 0.125f};
  const std::vector<float> ref(g.size(), 0.0f);
  const double ratio = 1.0 / 3.0;  // keep 2 of 6 per round
  ErrorFeedback ef;
  ef.ensure(g.size());
  std::vector<float> total(g.size(), 0.0f);
  const std::size_t rounds = 8;
  std::vector<float> payload(
      encoded_chunk_floats(SyncCodec::kTopK, g.size(), ratio));
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<float> u = g;
    form_delta_update(u, ref, ef.residual);
    roundtrip_chunk_staged(SyncCodec::kTopK, ratio, u, ef.staged, payload);
    ef.commit();
    for (std::size_t i = 0; i < u.size(); ++i) total[i] += u[i];
  }
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(total[i] + ef.residual[i],
              static_cast<float>(rounds) * g[i])
        << "coordinate " << i;
  }
}

TEST(DeltaCodec, DecodedDeltasComposeWithWeightedRingFold) {
  // The collective's fold contract: members fold *decodes*, and the folded
  // chunk's single phase-2 encoding is what everyone commits — so decoding
  // that payload twice must agree bitwise.
  const std::size_t n = 12;
  Tensor t0 = testutil::random_tensor({n}, 11, 1.0f);
  Tensor t1 = testutil::random_tensor({n}, 12, 1.0f);
  std::vector<float> u0(t0.storage().begin(), t0.storage().end());
  std::vector<float> u1(t1.storage().begin(), t1.storage().end());
  std::vector<float> scratch(n);
  std::vector<float> payload(encoded_chunk_floats(SyncCodec::kInt8, n, 0.0));
  roundtrip_chunk_staged(SyncCodec::kInt8, 0.0, u0, scratch, payload);
  roundtrip_chunk_staged(SyncCodec::kInt8, 0.0, u1, scratch, payload);

  core::WeightedRingFold fold;
  fold.reset(n);
  fold.add(0, u0, 0.75);
  fold.add(0, u1, 0.25);
  std::vector<float> folded(n);
  fold.write(0, folded);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(folded[i], static_cast<float>(0.75 * static_cast<double>(u0[i]) +
                                            0.25 * static_cast<double>(u1[i])));
  }

  roundtrip_folded_chunk(SyncCodec::kInt8, 0.0, folded, payload);
  std::vector<float> member_a(n);
  std::vector<float> member_b(n);
  decode_chunk(SyncCodec::kInt8, payload, member_a);
  decode_chunk(SyncCodec::kInt8, payload, member_b);
  EXPECT_EQ(member_a, member_b);
  EXPECT_EQ(member_a, folded);  // folded was overwritten by its own decode
}

TEST(HadflCompression, Int8CutsVolumeAndStillConverges) {
  exp::Scenario s = exp::paper_scenario(nn::Architecture::kMlp,
                                        {3, 3, 1, 1}, 0.5);
  s.train.total_epochs = 16;
  exp::Environment env(s);

  fl::SchemeContext a = env.context();
  const core::HadflResult plain = core::run_hadfl(a, s.hadfl);

  exp::Scenario compressed = s;
  compressed.hadfl.compression = comm::SyncCodec::kInt8;
  fl::SchemeContext b = env.context();
  const core::HadflResult quant = core::run_hadfl(b, compressed.hadfl);

  // ~4x smaller sync traffic (the uncompressed post-negotiation full sync
  // keeps a constant floor), near-identical accuracy.
  EXPECT_LT(quant.scheme.volume.total_sent(),
            0.45 * static_cast<double>(plain.scheme.volume.total_sent()));
  EXPECT_GT(quant.scheme.metrics.best_accuracy(),
            plain.scheme.metrics.best_accuracy() - 0.08);
}

TEST(HadflCompression, TopKCutsVolumeFurther) {
  exp::Scenario s = exp::paper_scenario(nn::Architecture::kMlp,
                                        {3, 3, 1, 1}, 0.5);
  s.train.total_epochs = 16;
  s.hadfl.compression = comm::SyncCodec::kTopK;
  s.hadfl.top_k_ratio = 0.05;
  exp::Environment env(s);
  fl::SchemeContext ctx = env.context();
  const core::HadflResult r = core::run_hadfl(ctx, s.hadfl);
  EXPECT_GT(r.scheme.metrics.best_accuracy(), 0.4);
  // 5% of entries at 8 bytes each ≈ 10% of the dense bytes per message.
  exp::Scenario plain = s;
  plain.hadfl.compression = comm::SyncCodec::kNone;
  fl::SchemeContext ctx2 = env.context();
  const core::HadflResult base = core::run_hadfl(ctx2, plain.hadfl);
  EXPECT_LT(r.scheme.volume.total_sent(),
            0.42 * static_cast<double>(base.scheme.volume.total_sent()));
}

}  // namespace
}  // namespace hadfl::comm
