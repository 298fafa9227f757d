#include "rt/collectives.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/math_utils.hpp"

namespace hadfl::rt {

namespace {

/// Slice length for beat-interleaved blocking waits: short enough that a
/// worker's heartbeat never goes stale mid-collective, long enough that the
/// fast path (message already queued) pays no extra wakeups.
constexpr double kBeatSliceS = 0.05;

/// Waits for every posted rendezvous ack, beating between slices. An
/// unconsumed send after `timeout_s` (per handle) is a dead or wedged
/// receiver — CommError, like PendingSend::wait.
void wait_all_sends(
    std::vector<std::pair<std::shared_ptr<PendingSend>, DeviceId>>& pending,
    DeviceId self, double timeout_s, const BeatFn& beat) {
  for (auto& [handle, dst] : pending) {
    if (!beat) {
      handle->wait(timeout_s, self, dst);
      continue;
    }
    double remaining = timeout_s;
    for (;;) {
      const double slice = std::min(kBeatSliceS, remaining);
      if (handle->try_wait(slice, self, dst)) break;
      remaining -= slice;
      beat();
      if (remaining <= 0.0) {
        throw CommError("send: rendezvous from device " +
                        std::to_string(self) + " to device " +
                        std::to_string(dst) + " timed out");
      }
    }
  }
  pending.clear();
}

}  // namespace

std::size_t resolve_chunk_count(std::size_t requested, std::size_t n) {
  return comm::resolve_chunk_count(requested, n);
}

std::size_t chunk_wire_bytes(std::size_t wire_bytes, std::size_t n,
                             std::size_t begin, std::size_t end) {
  if (wire_bytes == 0 || n == 0 || begin == end) return 0;
  const std::size_t share = wire_bytes * end / n - wire_bytes * begin / n;
  return std::max<std::size_t>(1, share);
}

Message recv_chunk_sliced(Transport& transport, DeviceId self,
                          DeviceId from, std::int64_t tag, double timeout_s,
                          const BeatFn& beat) {
  if (!beat) return transport.recv_match(self, from, tag, timeout_s);
  double remaining = timeout_s;
  for (;;) {
    const double slice = std::min(kBeatSliceS, remaining);
    try {
      return transport.recv_match(self, from, tag, slice);
    } catch (const CommError&) {
      if (!transport.alive(self)) throw;
      // A dead sender can never deliver: once the peer's endpoint is gone
      // (crash, or the coordinator fenced a silent death) and nothing
      // matched this slice, abort now instead of burning the whole step
      // timeout — the collective is doomed and retries on a repaired ring.
      if (!transport.alive(from)) {
        throw CommError("recv: device " + std::to_string(from) +
                        " died mid-collective");
      }
      remaining -= slice;
      beat();
      if (remaining <= 0.0) throw;
    }
  }
}

void ring_weighted_aggregate(Transport& transport,
                             const std::vector<DeviceId>& ring,
                             std::size_t my_index,
                             std::span<const float> local,
                             const std::vector<double>& weights,
                             core::WeightedRingFold& fold,
                             std::vector<float>& out,
                             std::int64_t collective_id,
                             std::size_t wire_bytes, double step_timeout_s,
                             std::size_t chunks, const BeatFn& beat,
                             obs::Counter* scatter_bytes,
                             obs::Counter* allgather_bytes,
                             obs::Counter* scatter_raw_bytes,
                             obs::Counter* allgather_raw_bytes) {
  const std::size_t k = ring.size();
  HADFL_CHECK_ARG(k > 0, "ring_weighted_aggregate on empty ring");
  HADFL_CHECK_ARG(my_index < k, "my_index out of range");
  HADFL_CHECK_ARG(weights.size() == k, "weights/ring size mismatch");
  const std::size_t n = local.size();
  out.resize(n);
  fold.reset(n);
  if (k == 1) {
    // Degenerate ring: the fold is still applied so a lone member's
    // aggregate carries its (normalized) weight exactly like the sim's.
    fold.add(0, local, weights[0]);
    fold.write(0, out);
    return;
  }
  if (n == 0) return;

  const std::size_t c_count = resolve_chunk_count(chunks, n);
  const DeviceId self = ring[my_index];
  const DeviceId next = ring[(my_index + 1) % k];
  const DeviceId prev = ring[(my_index + k - 1) % k];
  BufferPool& pool = transport.pool();
  std::vector<std::pair<std::shared_ptr<PendingSend>, DeviceId>> pending;
  pending.reserve(2 * c_count);

  // ---- Phase 1 (scatter): every non-owned chunk goes straight to its
  // owner. All sends are posted before any blocking receive, so the whole
  // chunk set is in flight at once.
  for (std::size_t c = 0; c < c_count; ++c) {
    const std::size_t owner = c % k;
    if (owner == my_index) continue;
    const auto [b, e] = chunk_range(n, c_count, c);
    if (b == e) continue;
    Message msg;
    msg.tag = sync_chunk_tag(collective_id, 0, c);
    msg.payload = pool.acquire(e - b);
    std::copy(local.begin() + static_cast<std::ptrdiff_t>(b),
              local.begin() + static_cast<std::ptrdiff_t>(e),
              msg.payload.begin());
    msg.wire_bytes = chunk_wire_bytes(wire_bytes, n, b, e);
    if (scatter_bytes != nullptr) {
      scatter_bytes->add((e - b) * sizeof(float));
    }
    if (scatter_raw_bytes != nullptr) {
      scatter_raw_bytes->add((e - b) * sizeof(float));
    }
    pending.emplace_back(transport.isend(self, ring[owner], std::move(msg)),
                         ring[owner]);
  }

  // ---- Phase 1 (fold): owned chunks accumulate the members' pieces in
  // ring order — the order IS the aggregation definition (round_logic.hpp)
  // — while later members' chunks are still on the wire.
  for (std::size_t m = 0; m < k; ++m) {
    for (std::size_t c = my_index; c < c_count; c += k) {
      const auto [b, e] = chunk_range(n, c_count, c);
      if (b == e) continue;
      if (m == my_index) {
        fold.add(b, local.subspan(b, e - b), weights[m]);
      } else {
        Message in =
            recv_chunk_sliced(transport, self, ring[m],
                              sync_chunk_tag(collective_id, 0, c),
                              step_timeout_s, beat);
        HADFL_CHECK(in.payload.size() == e - b);
        fold.add(b, in.payload, weights[m]);
        pool.release(std::move(in.payload));
      }
      if (beat) beat();
    }
  }

  // ---- Phase 2 kick-off: cast each owned chunk once (the fold's single
  // double→float cast) and start it around the ring.
  for (std::size_t c = my_index; c < c_count; c += k) {
    const auto [b, e] = chunk_range(n, c_count, c);
    if (b == e) continue;
    fold.write(b, std::span<float>(out).subspan(b, e - b));
    Message msg;
    msg.tag = sync_chunk_tag(collective_id, 1, c);
    msg.payload = pool.acquire(e - b);
    std::copy(out.begin() + static_cast<std::ptrdiff_t>(b),
              out.begin() + static_cast<std::ptrdiff_t>(e),
              msg.payload.begin());
    msg.wire_bytes = chunk_wire_bytes(wire_bytes, n, b, e);
    if (allgather_bytes != nullptr) {
      allgather_bytes->add((e - b) * sizeof(float));
    }
    if (allgather_raw_bytes != nullptr) {
      allgather_raw_bytes->add((e - b) * sizeof(float));
    }
    pending.emplace_back(transport.isend(self, next, std::move(msg)), next);
    if (beat) beat();
  }

  // ---- Phase 2 (allgather): hop h delivers the chunks owned h positions
  // upstream. Receiving in hop order keeps progress inductive (hop 1 only
  // needs the owners' kick-off sends); forwarding moves the payload —
  // zero-copy — unless the next member is the chunk's owner.
  for (std::size_t h = 1; h < k; ++h) {
    const std::size_t owner = (my_index + k - h) % k;
    for (std::size_t c = owner; c < c_count; c += k) {
      const auto [b, e] = chunk_range(n, c_count, c);
      if (b == e) continue;
      Message in = recv_chunk_sliced(transport, self, prev,
                                     sync_chunk_tag(collective_id, 1, c),
                                     step_timeout_s, beat);
      HADFL_CHECK(in.payload.size() == e - b);
      std::copy(in.payload.begin(), in.payload.end(),
                out.begin() + static_cast<std::ptrdiff_t>(b));
      if (h + 1 < k) {
        Message fwd;
        fwd.tag = in.tag;
        fwd.payload = std::move(in.payload);
        fwd.wire_bytes = chunk_wire_bytes(wire_bytes, n, b, e);
        if (allgather_bytes != nullptr) {
          allgather_bytes->add((e - b) * sizeof(float));
        }
        if (allgather_raw_bytes != nullptr) {
          allgather_raw_bytes->add((e - b) * sizeof(float));
        }
        pending.emplace_back(transport.isend(self, next, std::move(fwd)),
                             next);
      } else {
        pool.release(std::move(in.payload));
      }
      if (beat) beat();
    }
  }

  wait_all_sends(pending, self, step_timeout_s, beat);
}

void ring_weighted_delta_aggregate(
    Transport& transport, const std::vector<DeviceId>& ring,
    std::size_t my_index, std::span<float> update,
    const std::vector<double>& weights, core::WeightedRingFold& fold,
    std::vector<float>& out, std::span<float> staged_residual,
    std::vector<std::vector<float>>& code_stash, std::int64_t collective_id,
    std::size_t wire_bytes, double step_timeout_s, std::size_t chunks,
    comm::SyncCodec codec, double topk_ratio, const BeatFn& beat,
    obs::Counter* scatter_bytes, obs::Counter* allgather_bytes,
    obs::Counter* scatter_raw_bytes, obs::Counter* allgather_raw_bytes) {
  const std::size_t k = ring.size();
  HADFL_CHECK_ARG(k > 0, "ring_weighted_delta_aggregate on empty ring");
  HADFL_CHECK_ARG(my_index < k, "my_index out of range");
  HADFL_CHECK_ARG(weights.size() == k, "weights/ring size mismatch");
  const std::size_t n = update.size();
  HADFL_CHECK_ARG(staged_residual.size() == n,
                  "staged residual/update size mismatch");
  out.resize(n);
  fold.reset(n);
  const std::size_t c_count = resolve_chunk_count(chunks, n);
  code_stash.resize(c_count);
  if (n == 0) return;

  // Wire price of one encoded chunk: the dense chunk's share of
  // `wire_bytes`, scaled by the codec's byte ratio — the same formula the
  // sim applies to the whole state, so priced volume agrees per chunk.
  // A 0 share keeps the transport's pay-for-payload default (the encoded
  // payload size is already the exact wire size).
  auto priced = [&](std::size_t b, std::size_t e, std::size_t enc_bytes) {
    const std::size_t share = chunk_wire_bytes(wire_bytes, n, b, e);
    if (share == 0) return share;
    return core::effective_wire_bytes(share, enc_bytes,
                                      (e - b) * sizeof(float));
  };

  if (k == 1) {
    // Degenerate ring: the member round-trips its own chunks (the residual
    // staging and the weighted fold still apply, exactly like the sim's
    // single-member group), then encodes each folded chunk into the stash
    // and commits its decode — the same ops the full ring performs.
    std::vector<float> payload;
    for (std::size_t c = 0; c < c_count; ++c) {
      const auto [b, e] = chunk_range(n, c_count, c);
      if (b == e) continue;
      payload.resize(comm::encoded_chunk_floats(codec, e - b, topk_ratio));
      comm::roundtrip_chunk_staged(codec, topk_ratio,
                                   update.subspan(b, e - b),
                                   staged_residual.subspan(b, e - b),
                                   payload);
    }
    fold.add(0, update, weights[0]);
    fold.write(0, out);
    for (std::size_t c = 0; c < c_count; ++c) {
      const auto [b, e] = chunk_range(n, c_count, c);
      if (b == e) {
        code_stash[c].clear();
        continue;
      }
      code_stash[c].resize(
          comm::encoded_chunk_floats(codec, e - b, topk_ratio));
      comm::roundtrip_folded_chunk(codec, topk_ratio,
                                   std::span<float>(out).subspan(b, e - b),
                                   code_stash[c]);
    }
    return;
  }

  const DeviceId self = ring[my_index];
  const DeviceId next = ring[(my_index + 1) % k];
  const DeviceId prev = ring[(my_index + k - 1) % k];
  BufferPool& pool = transport.pool();
  std::vector<std::pair<std::shared_ptr<PendingSend>, DeviceId>> pending;
  pending.reserve(2 * c_count);
  std::vector<float> decode_buf;

  // ---- Phase 1 (scatter): every chunk of the update round-trips through
  // the codec — the residual is staged and the chunk becomes its decode —
  // and non-owned encodings go straight to their owners.
  for (std::size_t c = 0; c < c_count; ++c) {
    const auto [b, e] = chunk_range(n, c_count, c);
    if (b == e) continue;
    const std::size_t enc_floats =
        comm::encoded_chunk_floats(codec, e - b, topk_ratio);
    std::vector<float> payload = pool.acquire(enc_floats);
    comm::roundtrip_chunk_staged(codec, topk_ratio, update.subspan(b, e - b),
                                 staged_residual.subspan(b, e - b), payload);
    if (c % k == my_index) {
      pool.release(std::move(payload));
      continue;
    }
    Message msg;
    msg.tag = sync_chunk_tag(collective_id, 0, c);
    msg.payload = std::move(payload);
    msg.wire_bytes = priced(b, e, enc_floats * sizeof(float));
    if (scatter_bytes != nullptr) {
      scatter_bytes->add(enc_floats * sizeof(float));
    }
    if (scatter_raw_bytes != nullptr) {
      scatter_raw_bytes->add((e - b) * sizeof(float));
    }
    pending.emplace_back(transport.isend(self, ring[c % k], std::move(msg)),
                         ring[c % k]);
  }

  // ---- Phase 1 (fold): owners decode the arriving encodings and fold the
  // decodes in ring order — every folded contribution, local or remote, is
  // a decode, so the fold is identical on any backend.
  for (std::size_t m = 0; m < k; ++m) {
    for (std::size_t c = my_index; c < c_count; c += k) {
      const auto [b, e] = chunk_range(n, c_count, c);
      if (b == e) continue;
      if (m == my_index) {
        fold.add(b, update.subspan(b, e - b), weights[m]);
      } else {
        Message in =
            recv_chunk_sliced(transport, self, ring[m],
                              sync_chunk_tag(collective_id, 0, c),
                              step_timeout_s, beat);
        HADFL_CHECK(in.payload.size() ==
                    comm::encoded_chunk_floats(codec, e - b, topk_ratio));
        decode_buf.resize(e - b);
        comm::decode_chunk(codec, in.payload, decode_buf);
        fold.add(b, decode_buf, weights[m]);
        pool.release(std::move(in.payload));
      }
      if (beat) beat();
    }
  }

  // ---- Phase 2 kick-off: cast each owned folded chunk, encode it ONCE,
  // keep the encoding in the stash, commit its decode locally, and start
  // the encoding around the ring. Everyone decodes this one payload, so
  // `out` holds identical bits everywhere (re-encoding is not bit-stable).
  for (std::size_t c = my_index; c < c_count; c += k) {
    const auto [b, e] = chunk_range(n, c_count, c);
    if (b == e) {
      code_stash[c].clear();
      continue;
    }
    fold.write(b, std::span<float>(out).subspan(b, e - b));
    const std::size_t enc_floats =
        comm::encoded_chunk_floats(codec, e - b, topk_ratio);
    Message msg;
    msg.tag = sync_chunk_tag(collective_id, 1, c);
    msg.payload = pool.acquire(enc_floats);
    comm::roundtrip_folded_chunk(codec, topk_ratio,
                                 std::span<float>(out).subspan(b, e - b),
                                 msg.payload);
    code_stash[c].assign(msg.payload.begin(), msg.payload.end());
    msg.wire_bytes = priced(b, e, enc_floats * sizeof(float));
    if (allgather_bytes != nullptr) {
      allgather_bytes->add(enc_floats * sizeof(float));
    }
    if (allgather_raw_bytes != nullptr) {
      allgather_raw_bytes->add((e - b) * sizeof(float));
    }
    pending.emplace_back(transport.isend(self, next, std::move(msg)), next);
    if (beat) beat();
  }

  // ---- Phase 2 (allgather): each hop delivers encodings owned upstream;
  // stash the payload, commit its decode, and forward it verbatim.
  for (std::size_t h = 1; h < k; ++h) {
    const std::size_t owner = (my_index + k - h) % k;
    for (std::size_t c = owner; c < c_count; c += k) {
      const auto [b, e] = chunk_range(n, c_count, c);
      if (b == e) {
        code_stash[c].clear();
        continue;
      }
      Message in = recv_chunk_sliced(transport, self, prev,
                                     sync_chunk_tag(collective_id, 1, c),
                                     step_timeout_s, beat);
      HADFL_CHECK(in.payload.size() ==
                  comm::encoded_chunk_floats(codec, e - b, topk_ratio));
      code_stash[c].assign(in.payload.begin(), in.payload.end());
      comm::decode_chunk(codec, in.payload,
                         std::span<float>(out).subspan(b, e - b));
      if (h + 1 < k) {
        Message fwd;
        fwd.tag = in.tag;
        fwd.payload = std::move(in.payload);
        fwd.wire_bytes = priced(b, e, code_stash[c].size() * sizeof(float));
        if (allgather_bytes != nullptr) {
          allgather_bytes->add(code_stash[c].size() * sizeof(float));
        }
        if (allgather_raw_bytes != nullptr) {
          allgather_raw_bytes->add((e - b) * sizeof(float));
        }
        pending.emplace_back(transport.isend(self, next, std::move(fwd)),
                             next);
      } else {
        pool.release(std::move(in.payload));
      }
      if (beat) beat();
    }
  }

  wait_all_sends(pending, self, step_timeout_s, beat);
}

std::vector<std::vector<float>> ring_allgather(
    Transport& transport, const std::vector<DeviceId>& ring,
    std::size_t my_index, std::span<const float> local,
    std::int64_t collective_id, std::size_t wire_bytes,
    double step_timeout_s, const BeatFn& beat) {
  const std::size_t k = ring.size();
  HADFL_CHECK_ARG(k > 0, "ring_allgather on empty ring");
  HADFL_CHECK_ARG(my_index < k, "my_index out of range");
  BufferPool& pool = transport.pool();
  std::vector<std::vector<float>> contributions(k);
  contributions[my_index] = pool.acquire(local.size());
  std::copy(local.begin(), local.end(), contributions[my_index].begin());
  if (k == 1) return contributions;

  const DeviceId self = ring[my_index];
  const DeviceId next = ring[(my_index + 1) % k];
  const DeviceId prev = ring[(my_index + k - 1) % k];
  std::vector<std::pair<std::shared_ptr<PendingSend>, DeviceId>> pending;
  for (std::size_t step = 0; step + 1 < k; ++step) {
    // Forward the contribution that arrived last step (own state first).
    // The outbound copy lives in a pooled buffer; the receiver's consumed
    // payloads are what refill the pool.
    const std::size_t send_slot = (my_index + k - step) % k;
    const std::size_t recv_slot = (my_index + k - step - 1) % k;
    Message msg;
    msg.tag = make_tag(MsgKind::kData, collective_id,
                       static_cast<std::int64_t>(step));
    msg.payload = pool.acquire(contributions[send_slot].size());
    std::copy(contributions[send_slot].begin(),
              contributions[send_slot].end(), msg.payload.begin());
    msg.wire_bytes = wire_bytes;
    pending.emplace_back(transport.isend(self, next, std::move(msg)), next);
    Message incoming = recv_chunk_sliced(
        transport, self, prev,
        make_tag(MsgKind::kData, collective_id,
                 static_cast<std::int64_t>(step)),
        step_timeout_s, beat);
    contributions[recv_slot] = std::move(incoming.payload);
    wait_all_sends(pending, self, step_timeout_s, beat);
    if (beat) beat();
  }
  return contributions;
}

}  // namespace hadfl::rt
