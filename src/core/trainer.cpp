// The simulator executor: carries out core::RoundDriver's decisions on
// per-device virtual clocks (sim::Cluster), prices every message through
// comm::SimTransport and optionally records a sim::TraceRecorder timeline.
#include "core/trainer.hpp"

#include <algorithm>
#include <cmath>

#include "comm/allreduce.hpp"
#include "comm/broadcast.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "core/coordinator.hpp"
#include "core/round_driver.hpp"
#include "fl/local_trainer.hpp"
#include "nn/param_utils.hpp"

namespace hadfl::core {

namespace {

class SimExecutor final : public RoundExecutor {
 public:
  SimExecutor(const fl::SchemeContext& ctx, const HadflConfig& config,
              DeviceSetup& setup)
      : ctx_(ctx),
        config_(config),
        cluster_(ctx.cluster),
        transport_(cluster_, ctx.network),
        liveness_(cluster_),
        devices_(setup.devices),
        ipe_(setup.iters_per_epoch),
        wire_bytes_(setup.wire_bytes),
        k_(devices_.size()) {}

  const comm::VolumeCounters& volume() const { return transport_.volume(); }

  Negotiation negotiate(DeviceReports& reports) override {
    const int epochs = std::max(1, ctx_.config.warmup_epochs);
    parallel_for_each(k_, [&](std::size_t d) {
      DeviceState& dev = devices_[d];
      dev.optimizer->set_learning_rate(ctx_.config.warmup_learning_rate);
      dev.last_loss = fl::run_local_steps(*dev.model, *dev.optimizer,
                                          *dev.batches, epochs * ipe_[d])
                          .mean_loss;
    });
    Negotiation out;
    for (std::size_t d = 0; d < k_; ++d) {
      const sim::SimTime start = cluster_.time(d);
      const sim::SimTime span = cluster_.advance_compute(d, epochs * ipe_[d]);
      out.epoch_times.push_back(span / epochs);  // the reported T_i
      reports.loss[d] = devices_[d].last_loss;
      trace(d, start, start + span, sim::SpanKind::kCompute, "negotiation");
    }
    cluster_.barrier_all();
    // Devices already down at negotiation end are simply left out.
    const std::vector<sim::DeviceId> reachable = liveness_.available();
    if (config_.full_sync_after_negotiation && reachable.size() > 1) {
      const std::vector<float> mean = mean_state_of(devices_, reachable);
      try {
        comm::simulate_ring_allreduce(transport_, reachable, wire_bytes_);
        for (sim::DeviceId d : reachable) {
          nn::load_state(*devices_[d].model, mean);
        }
      } catch (const CommError&) {
        HADFL_WARN("post-negotiation sync skipped: device went down");
      }
    }
    out.start_state = mean_state_of(devices_, fl::all_device_ids(cluster_));
    return out;
  }

  bool begin_round() override {
    t0_ = cluster_.max_time();
    for (std::size_t d = 0; d < k_; ++d) cluster_.advance_to(d, t0_);
    return true;
  }

  std::vector<bool> available() override {
    std::vector<bool> out(k_);
    for (std::size_t d = 0; d < k_; ++d) out[d] = liveness_.is_available(d);
    return out;
  }

  double train(std::size_t round, const std::vector<std::size_t>& budgets,
               double window, DeviceReports& reports) override {
    // A disturbed device executes fewer steps by the window boundary; its
    // version falls behind, which selection then reacts to. Injected drift
    // (sim/fault.hpp) is exactly 1.0 without events.
    std::vector<double> step_time(k_);
    for (std::size_t d = 0; d < k_; ++d) {
      step_time[d] = cluster_.iteration_time(d) *
                     cluster_.sample_jitter_factor(d) *
                     cluster_.faults().drift_multiplier(d, round);
    }
    parallel_for_each(k_, [&](std::size_t d) {
      DeviceState& dev = devices_[d];
      dev.optimizer->set_learning_rate(ctx_.config.learning_rate);
      const auto fit = static_cast<std::size_t>(
          std::max(0.0, std::floor(window / step_time[d] + 1e-9)));
      dev.last_executed = std::min(budgets[d], fit);
      if (dev.last_executed > 0) {
        dev.last_loss = fl::run_local_steps(*dev.model, *dev.optimizer,
                                            *dev.batches, dev.last_executed)
                            .mean_loss;
      }
    });
    double executed_total = 0.0;
    for (std::size_t d = 0; d < k_; ++d) {
      DeviceState& dev = devices_[d];
      const auto executed = static_cast<double>(dev.last_executed);
      const double burst = step_time[d] * executed;
      cluster_.advance(d, burst);
      cluster_.advance_to(d, t0_ + window);
      dev.version += executed;
      executed_total += executed;
      reports.version[d] = dev.version;
      reports.loss[d] = dev.last_loss;
      reports.executed[d] = dev.last_executed;
      if (dev.last_executed > 0) {
        reports.step_time[d] = step_time[d];
        trace(d, t0_, t0_ + burst, sim::SpanKind::kCompute,
              "round " + std::to_string(round));
      }
    }
    return executed_total;
  }

  SyncOutcome sync(std::size_t, RingPlan planned, const SyncPlan& plan,
                   DeviceReports& reports) override {
    // A device can die *between* the repair scan and the collective (its
    // fault window opens mid-sync); the CommError then triggers another
    // repair pass, exactly like the timeout would in a real deployment.
    std::vector<sim::DeviceId> ring = std::move(planned.ring);
    SyncOutcome out;
    for (int attempt = 0; attempt < 4 && !ring.empty(); ++attempt) {
      const comm::RingRepairResult repair =
          comm::repair_ring(transport_, ring, config_.repair);
      out.repairs += repair.repairs;
      // Same vocabulary as the rt backend: each bypass is a kRepair span
      // over the §III-D wait + handshake window on the bypassed device.
      for (const sim::DeviceId dead : repair.removed) {
        const sim::SimTime t = cluster_.time(dead);
        trace(dead, t, t + config_.repair.wait_before_handshake +
                           config_.repair.handshake_timeout,
              sim::SpanKind::kRepair, "bypassed");
      }
      ring = repair.ring;
      if (ring.empty()) break;
      try {
        fold(ring, plan, out);
        break;
      } catch (const CommError&) {
        HADFL_WARN("partial sync hit a mid-collective fault; repairing");
        out.aggregate.clear();
        // Move past the failure instant so the next repair pass sees the
        // fault and bypasses the dead member.
        for (sim::DeviceId id : ring) {
          cluster_.advance(id, config_.repair.wait_before_handshake);
        }
      }
    }
    out.ring = std::move(ring);
    if (!out.ok()) return out;
    out.version_mean = ring_version_mean(reports.version, out.ring);
    out.commit_id = ++sync_epoch_;
    for (sim::DeviceId id : out.ring) {
      DeviceState& dev = devices_[id];
      nn::load_state(*dev.model, out.aggregate);
      dev.version = out.version_mean;
      dev.last_sync_state = out.aggregate;
      dev.ref_epoch = out.commit_id;
      // A delta round's encode error becomes the committed residual; a raw
      // round transmitted the exact state, so residual memory resets.
      if (out.delta) {
        dev.error_feedback.commit();
      } else {
        dev.error_feedback.clear();
      }
    }
    return out;
  }

  std::int64_t ref_epoch(sim::DeviceId d) const override {
    return devices_[d].ref_epoch;
  }

  void broadcast(const SyncOutcome& sync, sim::DeviceId src,
                 const std::vector<sim::DeviceId>& aligned,
                 const std::vector<sim::DeviceId>& stale,
                 const SyncPlan& plan) override {
    // Codec sizes are data-independent, so both legs are priced by formula.
    const std::size_t n = sync.aggregate.size();
    const sim::SimTime bc_start = cluster_.time(src);
    std::vector<sim::DeviceId> delivered;
    const auto push = [&](const std::vector<sim::DeviceId>& targets,
                          std::size_t bytes) {
      const comm::BroadcastResult bc =
          comm::broadcast_nonblocking(transport_, src, targets, bytes);
      delivered.insert(delivered.end(), bc.delivered.begin(),
                       bc.delivered.end());
    };
    if (!aligned.empty()) {
      push(aligned, effective_wire_bytes(
                        wire_bytes_,
                        comm::encoded_state_bytes(plan.codec, n, plan.chunks,
                                                  plan.topk_ratio),
                        n * sizeof(float)));
    }
    if (!stale.empty()) push(stale, wire_bytes_);
    // Either way the receiver reconstructs the aggregate bit-exactly (a
    // delta receiver adds the decoded fold onto its — identical —
    // reference), so integration is the same exact mix everywhere, and the
    // receiver joins the new reference epoch. Error-feedback residuals are
    // untouched: the broadcast is not an encode step.
    const double w = config_.broadcast_mix_weight;
    for (sim::DeviceId id : delivered) {
      trace(id, bc_start, cluster_.time(id), sim::SpanKind::kBroadcast,
            "broadcast");
      DeviceState& dev = devices_[id];
      nn::mix_state(*dev.model, sync.aggregate, w);
      dev.last_sync_state.assign(sync.aggregate.begin(), sync.aggregate.end());
      dev.version = (1.0 - w) * dev.version + w * sync.version_mean;
      dev.ref_epoch = sync.commit_id;
    }
  }

  std::vector<float> inter_group(const std::vector<sim::DeviceId>& leaders,
                                 const DeviceGroups& groups) override {
    std::vector<float> global = mean_state_of(devices_, leaders);
    try {
      comm::simulate_ring_allreduce(transport_, leaders, wire_bytes_);
    } catch (const CommError&) {
      HADFL_WARN("inter-group sync skipped: leader unreachable");
      return {};
    }
    for (std::size_t g = 0; g < groups.size() && g < leaders.size(); ++g) {
      for (sim::DeviceId id : groups[g]) {
        if (!liveness_.is_available(id)) continue;
        nn::mix_state(*devices_[id].model, global,
                      config_.broadcast_mix_weight);
        if (id != leaders[g]) transport_.account(leaders[g], id, wire_bytes_);
      }
      nn::load_state(*devices_[leaders[g]].model, global);
    }
    return global;
  }

  std::vector<float> mean_state() override {
    const std::vector<sim::DeviceId> ids = liveness_.available();
    return mean_state_of(devices_,
                         ids.empty() ? fl::all_device_ids(cluster_) : ids);
  }

  double now() override { return cluster_.max_time(); }

  std::vector<float> finish(bool need_state) override {
    if (!need_state) return {};
    return mean_state_of(devices_, fl::all_device_ids(cluster_));
  }

 private:
  void trace(sim::DeviceId d, sim::SimTime start, sim::SimTime end,
             sim::SpanKind kind, const std::string& label) {
    if (config_.trace != nullptr) {
      config_.trace->record(d, start, end, kind, label);
    }
  }

  /// One ring aggregation attempt; throws CommError when a member dies
  /// mid-collective. With a codec, members whose references agree exchange
  /// encoded *deltas* u_m = x_m - r + e_m chunk by chunk
  /// (comm/delta_codec.hpp), fold exactly what the wire delivers, and stage
  /// the encode error as the next error-feedback residual; a stale member
  /// forces a raw exact round, which realigns everyone. The rt pipelined
  /// collective folds the same pieces segment by segment, to the same bits.
  void fold(const std::vector<sim::DeviceId>& ring, const SyncPlan& plan,
            SyncOutcome& out) {
    const std::vector<double> weights =
        ring_weights(ctx_.partition, ring, config_.weight_by_samples);
    const std::size_t n = nn::state_size(*devices_[ring.front()].model);
    const std::int64_t base_epoch = devices_[ring.front()].ref_epoch;
    const bool delta = ships_deltas(plan, ring);
    const std::size_t c_count = comm::resolve_chunk_count(plan.chunks, n);
    const auto for_each_chunk = [&](std::span<float> x, auto&& fn) {
      for (std::size_t c = 0; c < c_count; ++c) {
        const std::size_t cb = c * n / c_count;
        const std::size_t ce = (c + 1) * n / c_count;
        codec_payload_.resize(
            comm::encoded_chunk_floats(plan.codec, ce - cb, plan.topk_ratio));
        fn(x.subspan(cb, ce - cb), cb);
      }
    };
    ring_fold_.reset(n);
    for (std::size_t m = 0; m < ring.size(); ++m) {
      DeviceState& dev = devices_[ring[m]];
      const std::span<const float> view = nn::state_view(*dev.model);
      if (!delta) {
        ring_fold_.add(0, view, weights[m]);
        continue;
      }
      sync_scratch_.assign(view.begin(), view.end());
      dev.error_feedback.ensure(n);
      comm::form_delta_update(sync_scratch_, dev.last_sync_state,
                              dev.error_feedback.residual);
      for_each_chunk(sync_scratch_, [&](std::span<float> x, std::size_t cb) {
        comm::roundtrip_chunk_staged(
            plan.codec, plan.topk_ratio, x,
            std::span<float>(dev.error_feedback.staged).subspan(cb, x.size()),
            codec_payload_);
      });
      ring_fold_.add(0, sync_scratch_, weights[m]);
    }
    sim::SimTime sync_start = 0.0;  // the collective starts when the slowest
                                    // member arrives
    for (sim::DeviceId id : ring) {
      sync_start = std::max(sync_start, cluster_.time(id));
    }
    const std::size_t codec_bytes =
        delta ? comm::encoded_state_bytes(plan.codec, n, plan.chunks,
                                          plan.topk_ratio)
              : n * sizeof(float);
    const sim::SimTime sync_done = comm::simulate_ring_allreduce(
        transport_, ring,
        effective_wire_bytes(wire_bytes_, codec_bytes, n * sizeof(float)));
    std::vector<float>& aggregate = out.aggregate;
    aggregate.resize(n);
    ring_fold_.write(0, aggregate);
    if (delta) {
      // Phase-2 mirror: the folded delta circulates *encoded*, so what
      // everyone commits is reference + decode of that encoding.
      for_each_chunk(aggregate, [&](std::span<float> x, std::size_t) {
        comm::roundtrip_folded_chunk(plan.codec, plan.topk_ratio, x,
                                     codec_payload_);
      });
      const std::vector<float>& ref = devices_[ring.front()].last_sync_state;
      for (std::size_t i = 0; i < n; ++i) aggregate[i] = ref[i] + aggregate[i];
    }
    out.delta = delta;
    out.base_epoch = base_epoch;
    out.latency_s = sync_done - sync_start;
    for (sim::DeviceId id : ring) {
      trace(id, sync_start, sync_done, sim::SpanKind::kSync, "partial sync");
    }
  }

  const fl::SchemeContext& ctx_;
  const HadflConfig& config_;
  sim::Cluster& cluster_;
  comm::SimTransport transport_;
  LivenessMonitor liveness_;
  std::vector<DeviceState>& devices_;
  const std::vector<std::size_t>& ipe_;
  std::size_t wire_bytes_;
  std::size_t k_;
  sim::SimTime t0_ = 0.0;  ///< the current round's start
  // Reference-epoch counter for the compressed-delta path: each committed
  // sync stamps its members (and every reached broadcast receiver) with a
  // fresh epoch; the rt backend uses its collective ids the same way.
  std::int64_t sync_epoch_ = 0;
  // Round-persistent sync buffers, so steady-state rounds reuse capacity.
  WeightedRingFold ring_fold_;
  std::vector<float> sync_scratch_;
  std::vector<float> codec_payload_;
};

}  // namespace

HadflResult run_hadfl(const fl::SchemeContext& ctx, const HadflConfig& config) {
  check_hadfl_args(ctx, config);
  ctx.cluster.reset_clocks();
  // The RNG split sequence inside init_devices is shared with the rt
  // backend (round_logic.hpp).
  Rng rng(ctx.config.seed);
  DeviceSetup setup = init_devices(ctx, config, rng);
  SimExecutor exec(ctx, config, setup);
  HadflResult result = RoundDriver(ctx, config, setup, rng, exec).run();
  result.scheme.scheme_name = "hadfl";
  result.scheme.volume = exec.volume();
  return result;
}

}  // namespace hadfl::core
