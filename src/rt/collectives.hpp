// Ring collectives over the in-process transport, executed cooperatively:
// every ring member calls the same function from its own worker thread.
//
//  * `ring_weighted_aggregate` — the training-path collective: a chunk-
//    pipelined weighted scatter-fold + ring allgather. The state is split
//    into C chunks (`hadfl::chunk_range`); chunk c is owned by ring member
//    c % K. Phase 1 scatters every member's raw chunk straight to its
//    owner, which folds the arriving pieces in ring order into a
//    double-precision core::WeightedRingFold *while later chunks are still
//    on the wire*; phase 2 circulates the folded float chunks around the
//    ring. Per-member traffic is 2·(K-1)/K·M ≤ 2·M (vs (K-1)·M for the
//    monolithic allgather) and multiple chunks are in flight per link under
//    distinct tags, so wall time approaches the bandwidth bound instead of
//    K-1 full-state round-trip latencies. Because each element is folded in
//    ring order regardless of the chunking, the result is bit-identical to
//    the monolithic fold — and to the simulator's aggregate (the sim/rt
//    equivalence pin).
//  * `ring_allgather` — K-1 steps circulating full states; the monolithic
//    predecessor, kept for the chunked-vs-monolithic benchmarks and for
//    callers that need the individual contributions.
//
// Each rendezvous step posts the outgoing chunk (isend), receives the
// incoming chunk, then waits for the outgoing acks at the end — the
// standard way to run rendezvous semantics around a cycle without deadlock.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/round_logic.hpp"
#include "obs/metrics.hpp"
#include "rt/transport.hpp"

namespace hadfl::rt {

/// Optional heartbeat hook: long-running collectives call it between chunk
/// operations and receive/ack-wait slices so the caller's failure-detector
/// beats keep flowing while the collective blocks. May throw to abandon the
/// collective (fault-injection tests kill a member mid-pipeline this way).
using BeatFn = std::function<void()>;

/// Default chunk count for the pipelined collective (bench/micro_rt sweep:
/// past ~16 chunks the pipeline is saturated and per-message overhead
/// starts to win; see EXPERIMENTS.md). Canonically defined in
/// comm/delta_codec.hpp so the sim's codec chunk grid agrees.
constexpr std::size_t kDefaultSyncChunks = comm::kDefaultSyncChunks;

/// Chunk count actually used for an `n`-element state: `requested`, with
/// 0 meaning kDefaultSyncChunks, clamped to [1, min(n, 4096)] so every
/// chunk is non-empty and tags stay within the 15-bit chunk field.
/// Forwards to comm::resolve_chunk_count (the shared sim/rt definition).
std::size_t resolve_chunk_count(std::size_t requested, std::size_t n);

/// Tag of chunk `c` in `phase` (0 = scatter to owner, 1 = allgather) of the
/// pipelined collective. Exposed so fault-injection tests can hand-craft a
/// partial participant.
constexpr std::int64_t sync_chunk_tag(std::int64_t collective_id, int phase,
                                      std::size_t chunk) {
  return make_tag(MsgKind::kData, collective_id,
                  (static_cast<std::int64_t>(phase) << 15) |
                      static_cast<std::int64_t>(chunk));
}

/// Tag of chunk `c` of a chunked non-blocking broadcast.
constexpr std::int64_t broadcast_chunk_tag(std::int64_t collective_id,
                                           std::size_t chunk) {
  return make_tag(MsgKind::kModelPush, collective_id,
                  static_cast<std::int64_t>(chunk));
}

/// Wire price of elements [begin, end) when a full-state transfer of `n`
/// elements is priced at `wire_bytes`. The telescoping integer split: chunk
/// prices sum to exactly `wire_bytes` over a full partition (non-empty
/// chunks are floored at 1 byte). 0 in, 0 out — wire_bytes == 0 keeps the
/// transport's pay-for-payload default, which is already exact per chunk.
std::size_t chunk_wire_bytes(std::size_t wire_bytes, std::size_t n,
                             std::size_t begin, std::size_t end);

/// Receives (from, tag) for `self` in beat-slice increments: waits up to
/// `timeout_s` total, invoking `beat` between slices so heartbeats keep
/// flowing. Throws CommError on timeout or endpoint death like recv_match,
/// and additionally as soon as `from`'s endpoint dies — a dead sender can
/// never deliver, so a mid-collective death aborts in about one beat slice
/// instead of a full step timeout.
Message recv_chunk_sliced(Transport& transport, DeviceId self,
                          DeviceId from, std::int64_t tag, double timeout_s,
                          const BeatFn& beat);

/// The pipelined weighted aggregation described above. All ring members
/// must call it with the same ring/weights/collective_id/chunks; `local` is
/// the member's (codec-processed) state, `weights` the ring-order
/// aggregation weights. On return `out` holds the full weighted aggregate —
/// identical bits on every member. `fold` is caller-owned scratch (capacity
/// persists across rounds); `wire_bytes` prices a full-state transfer for
/// volume accounting (0 = dense payload size); `chunks` = 0 picks the
/// default. Throws CommError if a member dies or a step exceeds
/// `step_timeout_s` — the caller aborts, purges and retries on the repaired
/// ring under a fresh collective id.
///
/// Telemetry: `scatter_bytes` / `allgather_bytes`, when set, accumulate the
/// wire bytes this member pushed in phase 1 (chunk scatter to owners) and
/// phase 2 (folded-chunk circulation) respectively — the per-collective-
/// phase traffic split. Thread-safe; ring members may share one counter.
void ring_weighted_aggregate(Transport& transport,
                             const std::vector<DeviceId>& ring,
                             std::size_t my_index,
                             std::span<const float> local,
                             const std::vector<double>& weights,
                             core::WeightedRingFold& fold,
                             std::vector<float>& out,
                             std::int64_t collective_id,
                             std::size_t wire_bytes, double step_timeout_s,
                             std::size_t chunks = 0,
                             const BeatFn& beat = {},
                             obs::Counter* scatter_bytes = nullptr,
                             obs::Counter* allgather_bytes = nullptr,
                             obs::Counter* scatter_raw_bytes = nullptr,
                             obs::Counter* allgather_raw_bytes = nullptr);

/// The compressed variant of ring_weighted_aggregate: every member calls it
/// with `update` = its error-compensated delta u = x - r + e against the
/// shared round reference r (form it with comm::form_delta_update). Chunks
/// travel codec-encoded in both phases:
///
///  * Phase 1 scatters each chunk's *encoding*; the owner decodes and folds
///    the decodes in ring order. The member's own chunks round-trip through
///    the codec locally (comm::roundtrip_chunk_staged), so every
///    contribution folded anywhere is a decode — and the residual
///    u - decode(u) is staged into `staged_residual` for the caller's
///    error-feedback commit (`update`'s chunks are overwritten by their
///    decodes in the process).
///  * Phase 2 circulates the folded chunk's encoding; everyone (owner
///    included) decodes that one payload, so `out` — the decoded folded
///    delta, NOT the aggregate; the caller commits reference + out — holds
///    identical bits on every member. The phase-2 encodings are retained in
///    `code_stash` (one payload per chunk): re-encoding a decode is not
///    bit-stable (the int8 scale drifts by an ulp), so the broadcast to
///    non-ring devices re-ships these payloads verbatim.
///
/// The chunk grid is resolve_chunk_count(chunks, n) — the sim uses the same
/// grid and the same comm/delta_codec.hpp chunk ops, which keeps compressed
/// runs bit-identical across backends. `wire_bytes` prices a *dense*
/// full-state transfer; each chunk's priced share is scaled by its codec
/// ratio (core::effective_wire_bytes), matching the sim's volume formula.
/// `scatter_bytes`/`allgather_bytes` count actual encoded payload bytes,
/// the `.raw` counters the dense equivalent.
void ring_weighted_delta_aggregate(
    Transport& transport, const std::vector<DeviceId>& ring,
    std::size_t my_index, std::span<float> update,
    const std::vector<double>& weights, core::WeightedRingFold& fold,
    std::vector<float>& out, std::span<float> staged_residual,
    std::vector<std::vector<float>>& code_stash, std::int64_t collective_id,
    std::size_t wire_bytes, double step_timeout_s, std::size_t chunks,
    comm::SyncCodec codec, double topk_ratio, const BeatFn& beat = {},
    obs::Counter* scatter_bytes = nullptr,
    obs::Counter* allgather_bytes = nullptr,
    obs::Counter* scatter_raw_bytes = nullptr,
    obs::Counter* allgather_raw_bytes = nullptr);

/// All-gathers the members' `local` states around the directed ring.
/// Returns the contributions indexed in ring order (result[i] came from
/// ring[i]); `result[my_index]` is a copy of `local`. `wire_bytes` prices
/// each hop for volume accounting (0 = dense payload size). Throws
/// CommError if a neighbour dies or a step exceeds `step_timeout_s`.
///
/// `local` is read-only — callers pass their arena state view (or codec
/// scratch) without relinquishing it. All buffers in the result (and every
/// hop's outbound payload) come from the transport's BufferPool; return
/// them with `transport.pool().release(std::move(buf))` once consumed so
/// subsequent rounds recycle instead of allocating. `beat`, when set, is
/// invoked between blocking slices (heartbeats keep flowing) and may throw
/// to abandon the collective — the inter-group leader exchange cancels
/// through it.
std::vector<std::vector<float>> ring_allgather(
    Transport& transport, const std::vector<DeviceId>& ring,
    std::size_t my_index, std::span<const float> local,
    std::int64_t collective_id, std::size_t wire_bytes,
    double step_timeout_s, const BeatFn& beat = {});

}  // namespace hadfl::rt
