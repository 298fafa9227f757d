#include "rt/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <memory>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/round_driver.hpp"
#include "rt/collectives.hpp"

namespace hadfl::rt {

namespace {

/// Synchronization attempts per round (repair + retry under a fresh id).
constexpr int kMaxSyncAttempts = 4;

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

Command command(CmdKind kind, std::int64_t collective_id = 0) {
  Command c;
  c.kind = kind;
  c.collective_id = collective_id;
  return c;
}

/// Carries out core::RoundDriver's decisions by posting commands to the
/// device workers and collecting their reports: two-phase ring commit and
/// abort, fencing of dead devices, fault-plan and drift injection.
class RtExecutor final : public core::RoundExecutor {
 public:
  RtExecutor(const fl::SchemeContext& ctx, const RtConfig& config,
             const core::DeviceSetup& setup, CoordinatorEnv& env)
      : ctx_(ctx),
        config_(config),
        setup_(setup),
        env_(env),
        k_(ctx.cluster.size()),
        all_(fl::all_device_ids(ctx.cluster)),
        live_(k_, true),
        sh_ref_epoch_(k_, 0) {
    result_.device_stats.resize(k_);
  }

  RtResult& result() { return result_; }

  Negotiation negotiate(core::DeviceReports& reports) override {
    // Drift-flavored FaultPlans (slow_factor != 1.0) become round-indexed
    // events on the cluster's injector, so kVirtual truncation prices them
    // exactly like the simulator would.
    for (const FaultPlan& plan : config_.faults) {
      if (plan.slow_factor == 1.0) continue;
      sim::DriftEvent e;  // each kind reads only its own shape fields
      e.device = plan.device;
      e.from_round = plan.round;
      e.factor = plan.slow_factor;
      e.kind = plan.drift_period > 0        ? sim::DriftKind::kSquare
               : plan.drift_ramp_rounds > 0 ? sim::DriftKind::kRamp
                                            : sim::DriftKind::kStep;
      e.ramp_rounds = plan.drift_ramp_rounds;
      e.period = plan.drift_period;
      e.duty = plan.drift_duty;
      ctx_.cluster.faults().schedule_drift(e);
    }
    const int warmup_epochs = std::max(1, ctx_.config.warmup_epochs);
    const std::vector<std::size_t>& ipe = setup_.iters_per_epoch;
    post_all(all_, [&](DeviceId d) {
      Command c = command(CmdKind::kWarmup);
      c.steps = static_cast<std::size_t>(warmup_epochs) * ipe[d];
      c.learning_rate = ctx_.config.warmup_learning_rate;
      return c;
    });
    const auto reps = collect(all_, ReportKind::kWarmupDone, true);
    Negotiation out;
    out.epoch_times.resize(k_);
    for (DeviceId d = 0; d < k_; ++d) {
      // kVirtual derives T_i from the specs exactly like the simulator's
      // clock accounting; kWallclock reports the measured duration.
      out.epoch_times[d] =
          static_cast<double>(ipe[d]) * ctx_.cluster.iteration_time(d);
      const auto it = reps.find(d);
      if (it == reps.end()) continue;
      reports.loss[d] = it->second.loss;
      if (config_.timing == TimingMode::kWallclock) {
        out.epoch_times[d] =
            it->second.wall_s / static_cast<double>(warmup_epochs);
      }
    }

    std::vector<DeviceId> live = live_ids();
    if (config_.hadfl.full_sync_after_negotiation && live.size() > 1) {
      const std::vector<float> mean = env_.oracle->mean_state(live);
      const std::size_t n = live.size();
      const std::size_t chunk = (setup_.wire_bytes + n - 1) / n;
      for (std::size_t i = 0; i < n; ++i) {
        env_.transport->account(live[i], live[(i + 1) % n],
                                2 * (n - 1) * chunk);
      }
      collect(post_all(live,
                       [&](std::size_t) {
                         Command c = command(CmdKind::kSetState);
                         c.state = mean;
                         return c;
                       }),
              ReportKind::kAck, true, 30.0);
      live = live_ids();
    }
    // A fenced device's worker may still be running (heartbeat fencing does
    // not stop the thread), so its DeviceState must never be read — fall
    // back to the common initial state when nobody live is left.
    out.start_state =
        live.empty() ? setup_.init_state : env_.oracle->mean_state(live);
    return out;
  }

  bool begin_round() override {
    if (live_ids().empty()) {
      HADFL_WARN("rt: no live devices left; stopping");
      return false;
    }
    if (idle_rounds_ >= 3) {
      HADFL_WARN("rt: no training progress in 3 consecutive rounds; stopping");
      return false;
    }
    return true;
  }

  std::vector<bool> available() override { return live_; }

  double train(std::size_t round, const std::vector<std::size_t>& budgets,
               double window, core::DeviceReports& reports) override {
    const auto trainees = post_all(all_, [&](DeviceId d) {
      Command c = command(CmdKind::kTrain);
      c.learning_rate = ctx_.config.learning_rate;
      if (config_.timing == TimingMode::kVirtual) {
        // Same truncation arithmetic as the simulator (jitter factor 1).
        const auto fit = static_cast<std::size_t>(std::max(
            0.0, std::floor(window / virtual_step_time(d, round) + 1e-9)));
        c.steps = std::min(budgets[d], fit);
      } else {
        c.steps = budgets[d];
        c.deadline_s = window;
      }
      inject_death(c, d, round, /*during_sync=*/false);
      return c;
    });
    double executed_total = 0.0;
    for (const auto& [d, r] : collect(trainees, ReportKind::kTrainDone, true)) {
      reports.executed[d] = r.executed;
      reports.loss[d] = r.loss;
      reports.version[d] = r.version;
      executed_total += static_cast<double>(r.executed);
      if (r.executed == 0) continue;
      // kVirtual step times are the spec'd (drifted) ones the budget
      // arithmetic uses; kWallclock feeds the measured burst duration.
      reports.step_time[d] = config_.timing == TimingMode::kVirtual
                                 ? virtual_step_time(d, round)
                                 : r.wall_s / static_cast<double>(r.executed);
    }
    idle_rounds_ = executed_total > 0.0 ? 0 : idle_rounds_ + 1;
    return executed_total;
  }

  core::SyncOutcome sync(std::size_t round, core::RingPlan planned,
                         const core::SyncPlan& plan,
                         core::DeviceReports& reports) override {
    std::vector<DeviceId> ring = std::move(planned.ring);
    const CoordinatorTelemetry& tel = env_.telemetry;
    core::SyncOutcome out;
    for (int attempt = 0; attempt < kMaxSyncAttempts && !ring.empty();
         ++attempt) {
      const double att0 = tel.rec != nullptr ? tel.rec->now_s() : 0.0;
      const RtRingRepairResult repair =
          repair_ring(*env_.transport, *env_.detector, ring, config_.repair,
                      tel.rec, tel.coord_track);
      out.repairs += repair.repairs;
      for (DeviceId d : repair.removed) fence(d);
      ring = repair.ring;
      if (ring.empty()) break;

      const Clock::time_point att0_wall = Clock::now();
      const std::int64_t cid = next_collective_id_++;
      const std::vector<double> weights = core::ring_weights(
          ctx_.partition, ring, config_.hadfl.weight_by_samples);
      const std::int64_t base_epoch = sh_ref_epoch_[ring.front()];
      const bool delta = ships_deltas(plan, ring);
      auto cancel = std::make_shared<std::atomic<bool>>(false);
      const auto posted = post_all(ring, [&](std::size_t i) {
        Command c = codec_command(CmdKind::kSync, cid, delta, base_epoch, plan);
        c.peers = ring;
        c.my_index = i;
        c.weights = weights;
        c.wire_bytes = setup_.wire_bytes;
        c.cancel = cancel;
        if (attempt == 0) inject_death(c, ring[i], round, /*during_sync=*/true);
        return c;
      });
      // The collective beats through every blocking slice, so the detector
      // fences a silent mid-pipeline death within ~heartbeat_timeout. The
      // first failure raises the cancel flag (and, on sockets, kCancel
      // frames), unblocking members waiting on chunks that will never come.
      auto reps = collect(posted, ReportKind::kSyncDone, true,
                          sync_deadline(ring.size()), [&] {
                            cancel->store(true, std::memory_order_relaxed);
                            env_.io->cancel_collective(ring, cid);
                          });
      if (all_ok(posted, reps, ring.size())) {
        out.aggregate = std::move(reps.at(ring.front()).aggregate);
        out.version_mean = core::ring_version_mean(reports.version, ring);
        out.delta = delta;
        out.base_epoch = base_epoch;
        out.commit_id = cid;
        const auto committed = post_all(ring, [&](std::size_t) {
          Command c = command(CmdKind::kCommit, cid);
          c.version_mean = out.version_mean;
          c.delta = delta;
          c.ref_epoch = base_epoch;
          return c;
        });
        for (const auto& [d, r] :
             collect(committed, ReportKind::kCommitDone, false, 30.0)) {
          reports.version[d] = r.version;
        }
        // Successful-attempt latency: repair sweep → posted collective →
        // every member folded, reported and committed.
        if (tel.sync_latency != nullptr) {
          tel.sync_latency->observe(tel.rec->now_s() - att0);
        }
        out.latency_s = elapsed_s(att0_wall);
        break;
      }
      // Abort the survivors, purge stale collective traffic, repair and
      // retry under a fresh id. The abort latency is how long the doomed
      // attempt held the ring.
      HADFL_WARN("rt: partial sync attempt " << attempt
                                             << " failed; repairing");
      abort(ring);
      if (tel.abort_latency != nullptr) {
        tel.abort_latency->observe(tel.rec->now_s() - att0);
      }
    }
    out.ring = std::move(ring);
    return out;
  }

  std::int64_t ref_epoch(DeviceId d) const override {
    return sh_ref_epoch_[d];
  }

  void broadcast(const core::SyncOutcome& sync, DeviceId src,
                 const std::vector<DeviceId>& aligned,
                 const std::vector<DeviceId>& stale,
                 const core::SyncPlan& plan) override {
    // End-to-end non-blocking (§III-D): post the push and the integrations
    // and move straight on; collect() later drops their reports as stale
    // (refreshing sh_ref_epoch_). The per-worker command FIFO orders each
    // receiver's integrate before its next kTrain. The sync's collective id
    // doubles as the push tag and the receivers' new epoch.
    const auto push_to = [&](const std::vector<DeviceId>& receivers,
                             bool as_delta) {
      std::vector<DeviceId> targets;
      std::copy_if(receivers.begin(), receivers.end(),
                   std::back_inserter(targets),
                   [&](DeviceId id) { return live_[id]; });
      if (targets.empty()) return;
      Command c = codec_command(CmdKind::kBroadcast, sync.commit_id, as_delta,
                                sync.base_epoch, plan);
      c.peers = targets;
      c.wire_bytes = setup_.wire_bytes;
      if (!post(src, std::move(c))) return;
      post_all(targets, [&](std::size_t) {
        Command c2 = codec_command(CmdKind::kIntegrate, sync.commit_id,
                                   as_delta, sync.base_epoch, plan);
        c2.peer = src;
        c2.version_mean = sync.version_mean;
        return c2;
      });
    };
    push_to(aligned, /*as_delta=*/true);
    push_to(stale, /*as_delta=*/false);
  }

  /// Two-phase like the ring sync: the leaders allgather and stage the
  /// global mean (kInterSync); only when all succeed does each leader load
  /// it and push it to its group, where members mix it in (kInterCommit /
  /// kInterMix, fire-and-forget). The result matches the simulator's leader
  /// exchange bit for bit; a failed phase 1 aborts with no state touched.
  std::vector<float> inter_group(const std::vector<DeviceId>& leaders,
                                 const core::DeviceGroups& groups) override {
    const std::int64_t cid = next_collective_id_++;
    const std::size_t chunks = chunk_grid(config_.hadfl.sync_chunks);
    auto cancel = std::make_shared<std::atomic<bool>>(false);
    const auto posted = post_all(leaders, [&](std::size_t i) {
      Command c = command(CmdKind::kInterSync, cid);
      c.peers = leaders;
      c.my_index = i;
      c.wire_bytes = setup_.wire_bytes;
      c.chunks = chunks;
      c.cancel = cancel;
      return c;
    });
    auto reps = collect(posted, ReportKind::kInterSyncDone, true,
                        sync_deadline(leaders.size()), [&] {
                          cancel->store(true, std::memory_order_relaxed);
                          env_.io->cancel_collective(leaders, cid);
                        });
    if (!all_ok(posted, reps, leaders.size())) {
      HADFL_WARN("rt: inter-group sync failed; skipping this period");
      abort(leaders);
      return {};
    }
    const std::int64_t push_id = next_collective_id_++;
    for (std::size_t g = 0; g < groups.size() && g < leaders.size(); ++g) {
      std::vector<DeviceId> members;
      for (DeviceId id : groups[g]) {
        if (live_[id] && id != leaders[g]) members.push_back(id);
      }
      Command c = command(CmdKind::kInterCommit, push_id);
      c.peers = members;
      c.wire_bytes = setup_.wire_bytes;
      c.chunks = chunks;
      if (!post(leaders[g], std::move(c))) continue;
      post_all(members, [&](std::size_t) {
        Command c2 = command(CmdKind::kInterMix, push_id);
        c2.peer = leaders[g];
        c2.chunks = chunks;
        return c2;
      });
    }
    return std::move(reps.at(leaders.front()).aggregate);
  }

  std::vector<float> mean_state() override {
    const std::vector<DeviceId> live = live_ids();
    return live.empty() ? std::vector<float>{} : env_.oracle->mean_state(live);
  }

  double now() override { return elapsed_s(run_start_); }

  /// Orderly shutdown: after the kStopped reports the workers make no
  /// further writes, so the final state read is race-free even before the
  /// worker threads/processes are reaped.
  std::vector<float> finish(bool need_state) override {
    const auto stopping =
        post_all(all_, [](DeviceId) { return command(CmdKind::kStop); });
    for (const auto& [d, r] :
         collect(stopping, ReportKind::kStopped, true, 30.0)) {
      DeviceRunStats& stats = result_.device_stats[d];
      stats.reported = true;
      stats.sent_bytes = r.sent_bytes;
      stats.received_bytes = r.received_bytes;
      stats.pool = r.pool;
    }
    if (!need_state) return {};
    const std::vector<DeviceId> live = live_ids();
    return live.empty() ? setup_.init_state : env_.oracle->mean_state(live);
  }

 private:
  /// The rt chunk-grid override when set, else `chunks` (rt/runner.cpp
  /// rejects an override under a codec or the controller, so it never
  /// changes what is encoded — only how the pipeline is cut).
  std::size_t chunk_grid(std::size_t chunks) const {
    return config_.sync_chunks != 0 ? config_.sync_chunks : chunks;
  }

  /// A command carrying this round's chunk grid and delta-codec fields.
  Command codec_command(CmdKind kind, std::int64_t cid, bool delta,
                        std::int64_t ref_epoch,
                        const core::SyncPlan& plan) const {
    Command c = command(kind, cid);
    c.chunks = chunk_grid(plan.chunks);
    c.delta = delta;
    c.ref_epoch = ref_epoch;
    c.codec = plan.codec;
    c.codec_ratio = plan.topk_ratio;
    return c;
  }

  std::vector<DeviceId> live_ids() const {
    std::vector<DeviceId> ids;
    for (DeviceId d = 0; d < k_; ++d) {
      if (live_[d]) ids.push_back(d);
    }
    return ids;
  }

  double virtual_step_time(DeviceId d, std::size_t round) const {
    // Injected drift multiplies the true step time; exactly 1.0 when the
    // device has no drift scheduled.
    return ctx_.cluster.iteration_time(d) *
           ctx_.cluster.faults().drift_multiplier(d, round);
  }

  /// Arms `c` with the FaultPlan death scheduled for device d in `round`.
  void inject_death(Command& c, DeviceId d, std::size_t round,
                    bool during_sync) const {
    for (const FaultPlan& plan : config_.faults) {
      if (plan.slow_factor != 1.0) continue;  // drift, not a death
      if (plan.device == d && plan.round == round &&
          plan.during_sync == during_sync) {
        c.die_after = static_cast<std::int64_t>(plan.after_steps);
        c.die_silently = plan.silent;
      }
    }
  }

  void fence(DeviceId d) {
    if (!live_[d]) return;
    live_[d] = false;
    ++result_.deaths_detected;
    env_.detector->mark_dead(d);
    if (env_.transport->alive(d)) env_.transport->kill(d);
    env_.io->close_channel(d);
    HADFL_WARN("rt: device " << d << " declared dead and fenced");
  }

  bool post(DeviceId d, Command c) {
    if (!live_[d]) return false;
    if (!env_.io->post(d, std::move(c))) {
      fence(d);
      return false;
    }
    return true;
  }

  /// Posts make(i) to each live ids[i]; returns the devices that accepted
  /// it.
  template <typename Make>
  std::vector<DeviceId> post_all(const std::vector<DeviceId>& ids,
                                 Make make) {
    std::vector<DeviceId> posted;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (live_[ids[i]] && post(ids[i], make(i))) posted.push_back(ids[i]);
    }
    return posted;
  }

  /// Robust report collection: waits for every pending device to report,
  /// dropping (and fencing) devices whose endpoint closed, whose heartbeat
  /// went stale (`use_detector` — only where workers beat frequently), or
  /// that exceeded a hard deadline (bounded commands like collectives).
  std::map<DeviceId, Report> collect(
      std::vector<DeviceId> pending, ReportKind kind, bool use_detector,
      double deadline_s = 0.0, const std::function<void()>& on_trouble = {}) {
    std::map<DeviceId, Report> out;
    std::erase_if(pending, [&](DeviceId d) { return !live_[d]; });
    const Clock::time_point start = Clock::now();
    while (!pending.empty()) {
      std::optional<Report> r = env_.io->poll_report(config_.command_poll_s);
      if (r) {
        // Every report carries its device's reference epoch.
        if (r->device < k_) sh_ref_epoch_[r->device] = r->ref_epoch;
        const auto it = std::find(pending.begin(), pending.end(), r->device);
        if (it != pending.end() && r->kind == kind) {
          if (!r->ok && on_trouble) on_trouble();
          out.emplace(r->device, std::move(*r));
          pending.erase(it);
        }
        continue;  // stale/unexpected reports are dropped
      }
      const bool expired = deadline_s > 0.0 && elapsed_s(start) >= deadline_s;
      std::erase_if(pending, [&](DeviceId d) {
        if (env_.transport->alive(d) &&
            (!use_detector || env_.detector->is_alive(d)) && !expired) {
          return false;
        }
        if (on_trouble) on_trouble();
        fence(d);
        return true;
      });
    }
    return out;
  }

  static bool all_ok(const std::vector<DeviceId>& posted,
                     const std::map<DeviceId, Report>& reps,
                     std::size_t members) {
    return posted.size() == members && reps.size() == members &&
           std::all_of(reps.begin(), reps.end(),
                       [](const auto& kv) { return kv.second.ok; });
  }

  /// Drops the members' staged collective state and purges its traffic.
  void abort(const std::vector<DeviceId>& members) {
    collect(post_all(members,
                     [&](std::size_t) {
                       return command(CmdKind::kAbort, next_collective_id_);
                     }),
            ReportKind::kAck, false, sync_deadline(members.size()));
  }

  /// Generous bound on a ring collective + report: every step is capped by
  /// the rendezvous/recv timeout, so a member that blows through this is
  /// hung, not slow.
  double sync_deadline(std::size_t members) const {
    return 4.0 * static_cast<double>(members) * config_.collective_timeout_s +
           5.0;
  }

  const fl::SchemeContext& ctx_;
  const RtConfig& config_;
  const core::DeviceSetup& setup_;
  CoordinatorEnv& env_;
  std::size_t k_;
  const std::vector<DeviceId> all_;  ///< 0..k-1: make(i) gets the device id
  const Clock::time_point run_start_ = Clock::now();
  std::vector<bool> live_;
  // Shadow of each worker's reference epoch, refreshed from every drained
  // report; negative means the worker flagged its reference unknown after
  // a partial delta integrate. The coordinator never reads a (possibly
  // dead) worker's DeviceState for bookkeeping.
  std::vector<std::int64_t> sh_ref_epoch_;
  std::int64_t next_collective_id_ = 1;
  int idle_rounds_ = 0;
  RtResult result_;  ///< deaths and device stats; run() fills the rest
};

}  // namespace

RtResult run_hadfl_coordinator(const fl::SchemeContext& ctx,
                               const RtConfig& config,
                               const core::DeviceSetup& setup, Rng& rng,
                               CoordinatorEnv& env) {
  HADFL_CHECK_ARG(config.collective_timeout_s > 0.0 &&
                      config.command_poll_s > 0.0,
                  "rt timeouts must be positive");
  RtExecutor exec(ctx, config, setup, env);
  core::HadflResult run =
      core::RoundDriver(ctx, config.hadfl, setup, rng, exec,
                        env.telemetry.selection_prob, env.telemetry.metrics)
          .run();
  RtResult& result = exec.result();
  result.scheme = std::move(run.scheme);
  result.scheme.scheme_name = env.scheme_name;
  result.extras = std::move(run.extras);
  result.wall_seconds = result.scheme.total_time;
  return std::move(result);
}

}  // namespace hadfl::rt
