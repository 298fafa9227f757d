#include "core/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "comm/allreduce.hpp"
#include "comm/broadcast.hpp"
#include "comm/failure_detector.hpp"
#include "comm/transport.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/math_utils.hpp"
#include "common/parallel.hpp"
#include "core/coordinator.hpp"
#include "core/fleet_selection.hpp"
#include "core/round_driver.hpp"
#include "fl/local_trainer.hpp"
#include "nn/cow_store.hpp"
#include "nn/param_utils.hpp"
#include "nn/serialize.hpp"
#include "obs/recorder.hpp"

namespace hadfl::core {

namespace {

using nn::CowStateStore;
using SlabId = CowStateStore::SlabId;

/// A reusable training seat: one packed model + one SGD. A device's slab is
/// loaded into the seat, trained, and written back — the same arithmetic
/// run_hadfl performs on the device's private model, since packed models of
/// one architecture share the arena layout. With momentum > 0 the device's
/// velocity slab is loaded into the seat's optimizer before the burst and
/// saved back after, so the seat itself still carries no cross-episode
/// state.
struct TrainerSlot {
  std::unique_ptr<nn::Sequential> model;
  std::unique_ptr<nn::Sgd> optimizer;
};

/// One device-training burst queued for the parallel phase. `state` (and
/// `velocity`, when momentum > 0) is the device's already-detached slab
/// span (exclusively owned), so the threads write disjoint memory and
/// never touch the stores.
struct TrainJob {
  sim::DeviceId id = 0;
  std::size_t steps = 0;
  std::span<float> state;
  std::span<float> velocity;
  double loss = 0.0;
};

/// Fixed device-range grain for the per-round O(K) scalar sweeps. Constant
/// (never a function of thread count): the partial-reduction grid — and
/// with it every merged result — is identical no matter how many threads
/// execute, the same discipline as the GEMM tile grid.
constexpr std::size_t kFleetGrain = std::size_t{1} << 13;

/// The fleet executor: carries out core::RoundDriver's decisions with every
/// O(K) sweep on the fixed range grid and every model state in the CoW
/// stores (core/fleet.hpp describes the two modes).
class FleetEngine final : public RoundExecutor {
 public:
  /// Validates the configs, then dispatches the initial model from `rng`
  /// draw for draw as init_devices does.
  FleetEngine(const fl::SchemeContext& ctx, const HadflConfig& config,
              const FleetConfig& fleet, Rng& rng);

  /// What the driver reads: iterations per epoch, compute powers and the
  /// evaluation model. No per-device DeviceState exists.
  const DeviceSetup& setup() const { return setup_; }
  const comm::VolumeCounters& volume() const { return transport_.volume(); }
  FleetStats stats() const;

  Negotiation negotiate(DeviceReports& reports) override;
  bool begin_round() override;
  std::vector<bool> available() override;
  double train(std::size_t round, const std::vector<std::size_t>& budgets,
               double window, DeviceReports& reports) override;
  RingPlan plan_ring(SelectionPolicy& policy,
                     const std::vector<sim::DeviceId>& candidates,
                     const std::vector<double>& predicted,
                     const std::vector<double>& compute_powers,
                     const std::vector<double>& bandwidth_scales,
                     std::size_t select_count, Rng& rng) override;
  SyncOutcome sync(std::size_t round, RingPlan planned, const SyncPlan& plan,
                   DeviceReports& reports) override;
  /// Syncs ship raw state only (no codec), so no reference is ever read.
  std::int64_t ref_epoch(sim::DeviceId) const override { return 0; }
  void broadcast(const SyncOutcome& sync, sim::DeviceId src,
                 const std::vector<sim::DeviceId>& aligned,
                 const std::vector<sim::DeviceId>& stale,
                 const SyncPlan& plan) override;
  std::vector<float> inter_group(const std::vector<sim::DeviceId>& leaders,
                                 const DeviceGroups& groups) override;
  std::vector<float> mean_state() override;
  double now() override { return cluster_.max_time(); }
  std::vector<float> finish(bool need_state) override;

 private:
  // ---- setup ----
  void init_fleet(Rng& rng);
  void build_slots(std::size_t count);

  // ---- state plumbing ----
  std::span<const float> state_of(sim::DeviceId d) {
    return store_->view(state_slab_[d]);
  }
  /// Rebinds a device's slab handle: takes over one reference on `slab`
  /// (callers retain before passing) and drops the old one.
  void rebind_state(sim::DeviceId d, SlabId slab) {
    store_->release(state_slab_[d]);
    state_slab_[d] = slab;
  }
  void rebind_sync(sim::DeviceId d, SlabId slab) {
    store_->release(sync_slab_[d]);
    sync_slab_[d] = slab;
  }

  /// Exact per-device-order mean — the same StateAccumulator fold
  /// mean_state_of runs, reading slab views instead of model arenas.
  std::vector<float> mean_exact(const std::vector<sim::DeviceId>& ids);
  /// Class-folded mean (cohort mode): one accumulate per distinct slab,
  /// weighted by its share — same value up to float fold order.
  std::vector<float> mean_classes(const std::vector<sim::DeviceId>& ids);
  std::vector<float> mean_of(const std::vector<sim::DeviceId>& ids) {
    return exact_mode() ? mean_exact(ids) : mean_classes(ids);
  }

  // ---- training ----
  data::BatchIterator& batches_for(sim::DeviceId d);
  void run_jobs(std::vector<TrainJob>& jobs, double learning_rate);
  /// Detaches the device's state (and velocity) slabs and builds the
  /// exclusively-owned training job. Mutates the stores — coordinator
  /// thread only.
  TrainJob make_job(sim::DeviceId d, std::size_t steps);

  /// A cohort covering the whole fleet has nothing to sample.
  bool exact_mode() const {
    return fleet_.cohort == 0 || fleet_.cohort >= k_;
  }

  // ---- fixed-grid parallel sweeps ----
  static std::size_t range_count(std::size_t n) {
    return (n + kFleetGrain - 1) / kFleetGrain;
  }
  /// Runs fn(range_index, begin, end) over the fixed grid on up to
  /// `threads_` threads. The serial fallback lands everything in range 0,
  /// so per-range partials must merge through neutral initial values.
  void for_ranges(std::size_t n,
                  const std::function<void(std::size_t, std::size_t,
                                           std::size_t)>& fn) {
    parallel_chunks(n, kFleetGrain, threads_,
                    [&](std::size_t begin, std::size_t end) {
                      fn(begin / kFleetGrain, begin, end);
                    });
  }

  // ---- phase spans ----
  double span_now() const { return recorder_ ? recorder_->now_s() : 0.0; }
  void span(double start, obs::SpanKind kind, const char* label) {
    if (recorder_) {
      recorder_->record(0, start, recorder_->now_s(), kind, label);
    }
  }

  const fl::SchemeContext& ctx_;
  const HadflConfig& config_;
  const FleetConfig& fleet_;
  sim::Cluster& cluster_;
  const std::size_t k_;
  comm::SimTransport transport_;
  LivenessMonitor liveness_;
  const std::size_t threads_;  ///< resolved scalar-sweep thread budget
  obs::SpanRecorder* recorder_;
  FleetObjective objective_ = FleetObjective::kGaussianQuartile;

  DeviceSetup setup_;
  std::unique_ptr<CowStateStore> store_;
  std::unique_ptr<CowStateStore> vstore_;  ///< momentum velocity slabs
  std::size_t state_floats_ = 0;
  std::size_t wire_bytes_ = 0;
  FleetStats stats_;

  // Per-device SoA (scalars only — all model state lives in the store).
  std::vector<SlabId> state_slab_;
  std::vector<SlabId> sync_slab_;
  std::vector<SlabId> velocity_slab_;  ///< sized only when momentum > 0
  std::vector<double> version_;
  std::vector<std::size_t> budget_;  ///< this round's window-fitted steps
  std::vector<std::uint8_t> up_;     ///< available() scratch
  std::vector<Rng> batch_rngs_;
  std::unordered_map<sim::DeviceId, data::BatchIterator> batches_;

  std::vector<TrainerSlot> slots_;
  nn::StateAccumulator mean_acc_;
  WeightedRingFold ring_fold_;
  sim::SimTime t0_ = 0.0;  ///< the current round's start
};

FleetEngine::FleetEngine(const fl::SchemeContext& ctx,
                         const HadflConfig& config, const FleetConfig& fleet,
                         Rng& rng)
    : ctx_(ctx),
      config_(config),
      fleet_(fleet),
      cluster_(ctx.cluster),
      k_(ctx.cluster.size()),
      transport_(ctx.cluster, ctx.network),
      liveness_(ctx.cluster),
      threads_(fleet.scalar_threads == 0 ? default_compute_threads()
                                         : fleet.scalar_threads),
      recorder_(fleet.recorder) {
  check_hadfl_args(ctx_, config_);
  HADFL_CHECK_ARG(config_.compression == comm::SyncCodec::kNone,
                  "fleet engine supports the uncompressed sync codec only "
                  "(the compressed-delta path needs per-device "
                  "error-feedback residuals, which would defeat the "
                  "shared-slab model store)");
  HADFL_CHECK_ARG(!config_.adaptive.enabled,
                  "fleet engine runs the static strategy only (the "
                  "adaptive controller plans codecs the fleet cannot "
                  "carry out)");
  if (!exact_mode()) {
    HADFL_CHECK_ARG(fleet_.cohort >= config_.strategy.select_count,
                    "fleet cohort " << fleet_.cohort
                                    << " smaller than select_count "
                                    << config_.strategy.select_count);
    const std::string policy =
        config_.policy ? config_.policy->name() : "gaussian-quartile";
    if (policy == "gaussian-quartile") {
      objective_ = FleetObjective::kGaussianQuartile;
    } else if (policy == "top-k") {
      objective_ = FleetObjective::kTopVersion;
    } else {
      HADFL_CHECK_ARG(false,
                      "sampled-cohort mode supports the gaussian-quartile "
                      "and top-k policies; got " << policy);
    }
  }

  init_fleet(rng);
  build_slots(default_compute_threads());
  const std::size_t velocity_floats = slots_[0].optimizer->velocity_size();
  if (ctx_.config.momentum != 0.0 && velocity_floats > 0) {
    // One zero slab shared by the whole fleet: a device forks a private
    // velocity copy only when it first trains (make_job detaches it), so
    // resident optimizer memory tracks the trained cohort, not K.
    vstore_ = std::make_unique<CowStateStore>(velocity_floats);
    velocity_slab_.resize(k_);
    const SlabId zero = vstore_->create_zeroed();
    for (std::size_t d = 0; d < k_; ++d) {
      vstore_->retain(zero);
      velocity_slab_[d] = zero;
    }
    vstore_->release(zero);  // drop the creation reference
  }
  stats_.devices = k_;
  stats_.state_floats = state_floats_;
  stats_.naive_state_bytes =
      2 * k_ * state_floats_ * sizeof(float) +  // model + last-sync, per dev
      (vstore_ ? k_ * velocity_floats * sizeof(float) : 0);
}

void FleetEngine::init_fleet(Rng& rng) {
  // Mirrors init_devices' RNG contract draw for draw (round_logic.hpp):
  // the reference model consumes the main stream, then each device splits
  // a device stream whose model split is *discarded* — every device's
  // random init is overwritten by the dispatched state anyway, which is
  // exactly why the fleet can start all K devices on one shared slab.
  setup_.reference = ctx_.make_model(rng);
  setup_.reference->pack();
  if (!config_.resume_from.empty()) {
    const std::vector<float> resumed = nn::load_state(config_.resume_from);
    nn::load_state(*setup_.reference, resumed);
    HADFL_INFO("resumed initial model from " << config_.resume_from);
  }
  const std::span<const float> ref_state = nn::state_view(*setup_.reference);
  state_floats_ = ref_state.size();
  wire_bytes_ = ctx_.comm_state_bytes != 0 ? ctx_.comm_state_bytes
                                           : state_floats_ * sizeof(float);
  store_ = std::make_unique<CowStateStore>(state_floats_);

  state_slab_.resize(k_);
  sync_slab_.resize(k_);
  version_.assign(k_, 0.0);
  budget_.assign(k_, 0);
  up_.assign(k_, 0);
  batch_rngs_.reserve(k_);
  setup_.iters_per_epoch.resize(k_);
  const std::span<const double> powers = cluster_.table().compute_powers();
  setup_.compute_powers.assign(powers.begin(), powers.end());

  const SlabId init = store_->create(ref_state);
  for (std::size_t d = 0; d < k_; ++d) {
    Rng dev_rng = rng.split();
    (void)dev_rng.split();  // the model stream — unused, see above
    batch_rngs_.push_back(dev_rng.split());
    store_->retain(init);
    state_slab_[d] = init;
    store_->retain(init);
    sync_slab_[d] = init;
    setup_.iters_per_epoch[d] = fl::iters_per_epoch(
        ctx_.partition[d].size(), ctx_.config.device_batch_size);
  }
  store_->release(init);  // drop the creation reference
}

void FleetEngine::build_slots(std::size_t count) {
  count = std::max<std::size_t>(1, std::min(count, k_));
  slots_.resize(count);
  for (TrainerSlot& slot : slots_) {
    // Slot init state is throwaway (every episode starts with load_state),
    // so the build rng is local and never touches the main stream.
    Rng slot_rng(0x51075107ull);
    slot.model = ctx_.make_model(slot_rng);
    slot.model->pack();
    slot.optimizer = std::make_unique<nn::Sgd>(
        slot.model->parameters(),
        nn::SgdConfig{ctx_.config.learning_rate, ctx_.config.momentum,
                      ctx_.config.weight_decay});
  }
}

data::BatchIterator& FleetEngine::batches_for(sim::DeviceId d) {
  const auto it = batches_.find(d);
  if (it != batches_.end()) return it->second;
  // Lazily built from the stored batch stream: the iterator's RNG is
  // self-contained, so a first-use build is in the exact state an
  // init-time build would be in.
  return batches_
      .emplace(d, data::BatchIterator(ctx_.train, ctx_.partition[d],
                                      ctx_.config.device_batch_size,
                                      batch_rngs_[d]))
      .first->second;
}

void FleetEngine::run_jobs(std::vector<TrainJob>& jobs, double learning_rate) {
  if (jobs.empty()) return;
  const double start = span_now();
  for (TrainJob& job : jobs) batches_for(job.id);  // serial map fill
  const std::size_t lanes = std::min(slots_.size(), jobs.size());
  parallel_for_each(
      lanes,
      [&](std::size_t lane) {
        TrainerSlot& slot = slots_[lane];
        slot.optimizer->set_learning_rate(learning_rate);
        const auto [begin, end] = chunk_range(jobs.size(), lanes, lane);
        for (std::size_t j = begin; j < end; ++j) {
          TrainJob& job = jobs[j];
          nn::load_state(*slot.model, job.state);
          if (vstore_) slot.optimizer->load_velocity(job.velocity);
          job.loss = fl::run_local_steps(*slot.model, *slot.optimizer,
                                         batches_.at(job.id), job.steps)
                         .mean_loss;
          if (vstore_) slot.optimizer->save_velocity(job.velocity);
          const std::span<const float> out = nn::state_view(*slot.model);
          std::copy(out.begin(), out.end(), job.state.begin());
        }
      },
      lanes);
  stats_.train_episodes += jobs.size();
  span(start, obs::SpanKind::kCompute, "train");
}

TrainJob FleetEngine::make_job(sim::DeviceId d, std::size_t steps) {
  state_slab_[d] = store_->detach(state_slab_[d]);
  TrainJob job;
  job.id = d;
  job.steps = steps;
  job.state = store_->mutable_view(state_slab_[d]);
  if (vstore_) {
    velocity_slab_[d] = vstore_->detach(velocity_slab_[d]);
    job.velocity = vstore_->mutable_view(velocity_slab_[d]);
  }
  return job;
}

std::vector<float> FleetEngine::mean_exact(
    const std::vector<sim::DeviceId>& ids) {
  HADFL_CHECK_ARG(!ids.empty(), "fleet mean over zero devices");
  mean_acc_.reset(state_floats_);
  const double w = 1.0 / static_cast<double>(ids.size());
  for (const sim::DeviceId id : ids) {
    mean_acc_.accumulate(state_of(id), w);
  }
  return mean_acc_.materialize();
}

std::vector<float> FleetEngine::mean_classes(
    const std::vector<sim::DeviceId>& ids) {
  HADFL_CHECK_ARG(!ids.empty(), "fleet mean over zero devices");
  // Classes fold in first-member order: when every slab is distinct the
  // accumulate sequence degenerates to mean_exact's per-device fold,
  // bit for bit — which keeps saturated cohort groups on the exact path.
  std::unordered_map<SlabId, std::size_t> index;
  std::vector<std::pair<SlabId, std::size_t>> classes;  // (slab, count)
  for (const sim::DeviceId id : ids) {
    const SlabId slab = state_slab_[id];
    const auto [it, inserted] = index.emplace(slab, classes.size());
    if (inserted) {
      classes.emplace_back(slab, 1);
    } else {
      ++classes[it->second].second;
    }
  }
  mean_acc_.reset(state_floats_);
  const double n = static_cast<double>(ids.size());
  for (const auto& [slab, count] : classes) {
    mean_acc_.accumulate(store_->view(slab),
                         static_cast<double>(count) / n);
  }
  return mean_acc_.materialize();
}

RoundExecutor::Negotiation FleetEngine::negotiate(DeviceReports& reports) {
  const int warmup_epochs = std::max(1, ctx_.config.warmup_epochs);
  const std::vector<std::size_t>& ipe = setup_.iters_per_epoch;
  std::size_t sample = k_;
  if (!exact_mode()) {
    // Train a cohort-per-group id prefix: with a cycled power-ratio table
    // the prefix covers every heterogeneity class as long as it spans the
    // ratio length. The rest of the fleet keeps the dispatched state and
    // inherits the sample's mean loss for the first convergence point.
    // make_groups is deterministic (compute-power sort, no RNG), so the
    // driver's own call sees the same groups.
    sample = std::min(
        fleet_.cohort * make_groups(cluster_, config_.grouping).size(), k_);
  }
  std::vector<TrainJob> jobs;
  jobs.reserve(sample);
  for (sim::DeviceId d = 0; d < sample; ++d) {
    jobs.push_back(
        make_job(d, static_cast<std::size_t>(warmup_epochs) * ipe[d]));
  }
  run_jobs(jobs, ctx_.config.warmup_learning_rate);
  double sample_loss = 0.0;
  for (const TrainJob& job : jobs) {
    reports.loss[job.id] = job.loss;
    sample_loss += job.loss;
  }
  if (sample < k_ && sample > 0) {
    sample_loss /= static_cast<double>(sample);
    for (std::size_t d = sample; d < k_; ++d) reports.loss[d] = sample_loss;
  }

  // Timing is analytic for every device (the walk draws each device's own
  // jitter stream), so the negotiation clock walk is exact in both modes —
  // the strategy a 100k cohort run generates is the strategy the exact run
  // would. Devices advance unsynced over the fixed range grid (disjoint
  // ids ⇒ disjoint clock slots and jitter streams); per-range clock maxima
  // fold back afterwards.
  Negotiation out;
  out.epoch_times.resize(k_);
  std::vector<sim::SimTime> range_clock(range_count(k_), 0.0);
  for_ranges(k_, [&](std::size_t r, std::size_t begin, std::size_t end) {
    for (std::size_t d = begin; d < end; ++d) {
      const sim::SimTime duration = cluster_.advance_compute_unsynced(
          d, static_cast<std::size_t>(warmup_epochs) * ipe[d]);
      out.epoch_times[d] = duration / static_cast<double>(warmup_epochs);
      range_clock[r] = std::max(range_clock[r], cluster_.time(d));
    }
  });
  for (const sim::SimTime t : range_clock) cluster_.note_clock(t);
  cluster_.barrier_all();

  const std::vector<sim::DeviceId> reachable = liveness_.available();
  if (config_.full_sync_after_negotiation && reachable.size() > 1) {
    const std::vector<float> mean = mean_of(reachable);
    try {
      comm::simulate_ring_allreduce(transport_, reachable, wire_bytes_);
      const SlabId shared = store_->create(mean);
      for (const sim::DeviceId d : reachable) {
        store_->retain(shared);
        rebind_state(d, shared);  // run_hadfl load_states the model only;
                                  // the last-sync reference stays put
      }
      store_->release(shared);
    } catch (const CommError&) {
      HADFL_WARN("post-negotiation sync skipped: device went down");
    }
  }
  out.start_state = mean_of(fl::all_device_ids(cluster_));
  return out;
}

bool FleetEngine::begin_round() {
  if (fleet_.max_rounds != 0 && stats_.rounds >= fleet_.max_rounds) {
    return false;
  }
  ++stats_.rounds;
  t0_ = cluster_.max_time();  // no clock passes t0, so no note_clock
  for_ranges(k_, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t d = begin; d < end; ++d) {
      cluster_.advance_to_unsynced(d, t0_);
    }
  });
  return true;
}

std::vector<bool> FleetEngine::available() {
  for_ranges(k_, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t d = begin; d < end; ++d) {
      up_[d] = liveness_.is_available(d) ? std::uint8_t{1} : std::uint8_t{0};
    }
  });
  return {up_.begin(), up_.end()};
}

double FleetEngine::train(std::size_t round,
                          const std::vector<std::size_t>& budgets,
                          double window, DeviceReports& reports) {
  // Fused O(K) walk over the fixed range grid: jitter and drift draw,
  // deadline-truncated step budget (analytic: what fits the window given
  // the device's iteration time and this burst's draws), burst + window
  // advancement, version bump. Every device touches only its own clock
  // slot and jitter stream, so ranges run unsynced; the partials —
  // integer-valued executed sums, clock maxima, trained-id lists — are
  // order-independent or merge in range order, keeping every thread count
  // bit-identical to the serial walk. Exact mode runs the SGD for every
  // budget here; cohort mode reports nothing executed yet, and each
  // group's cohort trains in sync() before its fold.
  const double clock_start = span_now();
  const std::size_t ranges = range_count(k_);
  std::vector<double> range_executed(ranges, 0.0);
  std::vector<sim::SimTime> range_clock(ranges, 0.0);
  std::vector<std::vector<sim::DeviceId>> range_train(ranges);
  const bool train_all = exact_mode();
  for_ranges(k_, [&](std::size_t r, std::size_t begin, std::size_t end) {
    for (std::size_t d = begin; d < end; ++d) {
      // The sim executor's operand order; drift is exactly 1.0 without
      // events (sim/fault.hpp).
      const double iter_time = cluster_.iteration_time(d) *
                               cluster_.sample_jitter_factor(d) *
                               cluster_.faults().drift_multiplier(d, round);
      const auto fit = static_cast<std::size_t>(
          std::max(0.0, std::floor(window / iter_time + 1e-9)));
      const std::size_t executed = std::min(budgets[d], fit);
      budget_[d] = executed;
      reports.executed[d] = train_all ? executed : 0;
      if (train_all && executed > 0) range_train[r].push_back(d);
      cluster_.advance_unsynced(d,
                                iter_time * static_cast<double>(executed));
      cluster_.advance_to_unsynced(d, t0_ + window);
      version_[d] += static_cast<double>(executed);
      reports.version[d] = version_[d];
      range_executed[r] += static_cast<double>(executed);
      range_clock[r] = std::max(range_clock[r], cluster_.time(d));
    }
  });
  double executed_total = 0.0;
  std::vector<TrainJob> jobs;
  for (std::size_t r = 0; r < ranges; ++r) {
    executed_total += range_executed[r];
    cluster_.note_clock(range_clock[r]);
    for (const sim::DeviceId d : range_train[r]) {
      jobs.push_back(make_job(d, budget_[d]));
    }
  }
  span(clock_start, obs::SpanKind::kIdle, "clock");
  run_jobs(jobs, ctx_.config.learning_rate);
  for (const TrainJob& job : jobs) reports.loss[job.id] = job.loss;
  return executed_total;
}

RingPlan FleetEngine::plan_ring(SelectionPolicy& policy,
                                const std::vector<sim::DeviceId>& candidates,
                                const std::vector<double>& predicted,
                                const std::vector<double>& compute_powers,
                                const std::vector<double>& bandwidth_scales,
                                std::size_t select_count, Rng& rng) {
  const double start = span_now();
  RingPlan plan;
  if (exact_mode() || candidates.size() <= fleet_.cohort) {
    plan = RoundExecutor::plan_ring(policy, candidates, predicted,
                                    compute_powers, bandwidth_scales,
                                    select_count, rng);
    // Saturated group: the cohort covers every candidate, so the group
    // degrades to the exact per-group plan — the policy's own draws pick
    // the ring and every candidate trains.
    if (!exact_mode()) plan.train = candidates;
  } else {
    // One fresh seed per selection keeps the counter-keyed E–S draw stream
    // range- and thread-invariant while still advancing the RNG exactly
    // once per group selection.
    const std::uint64_t draw_seed = rng();
    const FleetSelection sel = select_fleet_cohort(
        predicted, candidates, select_count,
        fleet_.cohort - std::min(fleet_.cohort, select_count), draw_seed,
        objective_, threads_);
    plan.ring = StrategyGenerator::make_ring(sel.cohort, rng);
    // Ring members plus shadow runners-up train; everyone else is already
    // fully priced.
    plan.train = plan.ring;
    plan.train.insert(plan.train.end(), sel.shadow.begin(), sel.shadow.end());
  }
  span(start, obs::SpanKind::kSync, "select");
  return plan;
}

SyncOutcome FleetEngine::sync(std::size_t, RingPlan planned, const SyncPlan&,
                              DeviceReports& reports) {
  std::vector<TrainJob> jobs;
  for (const sim::DeviceId d : planned.train) {
    if (budget_[d] > 0) jobs.push_back(make_job(d, budget_[d]));
  }
  run_jobs(jobs, ctx_.config.learning_rate);
  for (const TrainJob& job : jobs) {
    reports.loss[job.id] = job.loss;
    reports.executed[job.id] = job.steps;
  }

  // Fault-tolerant gossip aggregation (§III-D) — the sim executor's loop
  // with slab views in place of model arenas.
  const double fold_start = span_now();
  std::vector<sim::DeviceId> ring = std::move(planned.ring);
  SyncOutcome out;
  for (int attempt = 0; attempt < 4 && !ring.empty(); ++attempt) {
    const comm::RingRepairResult repair =
        comm::repair_ring(transport_, ring, config_.repair);
    out.repairs += repair.repairs;
    ring = repair.ring;
    if (ring.empty()) break;
    try {
      const std::vector<double> weights =
          ring_weights(ctx_.partition, ring, config_.weight_by_samples);
      ring_fold_.reset(state_floats_);
      for (std::size_t m = 0; m < ring.size(); ++m) {
        ring_fold_.add(0, state_of(ring[m]), weights[m]);
      }
      comm::simulate_ring_allreduce(transport_, ring, wire_bytes_);
      out.aggregate.resize(ring_fold_.size());
      ring_fold_.write(0, out.aggregate);
      break;
    } catch (const CommError&) {
      HADFL_WARN("partial sync hit a mid-collective fault; repairing");
      out.aggregate.clear();
      for (const sim::DeviceId id : ring) {
        cluster_.advance(id, config_.repair.wait_before_handshake);
      }
    }
  }
  out.ring = std::move(ring);
  if (out.ok()) {
    out.version_mean = ring_version_mean(version_, out.ring);
    // The commit, dedup'd: every ring member's state AND last-sync
    // reference become the same bits, so all of them share one slab.
    const SlabId agg_slab = store_->create(out.aggregate);
    for (const sim::DeviceId id : out.ring) {
      store_->retain(agg_slab);
      rebind_state(id, agg_slab);
      store_->retain(agg_slab);
      rebind_sync(id, agg_slab);
      version_[id] = out.version_mean;
    }
    store_->release(agg_slab);
  }
  span(fold_start, obs::SpanKind::kBroadcast, "fold");
  return out;
}

void FleetEngine::broadcast(const SyncOutcome& sync, sim::DeviceId src,
                            const std::vector<sim::DeviceId>&,
                            const std::vector<sim::DeviceId>& stale,
                            const SyncPlan&) {
  // Raw syncs only, so every receiver is stale and takes the dense
  // aggregate (`aligned` is empty).
  const double start = span_now();
  const comm::BroadcastResult bc = comm::broadcast_nonblocking(
      transport_, src, stale, wire_bytes_, threads_);
  // integrate_broadcast is a pure function of (state, last-sync) — group
  // the receivers by that slab pair and run it once per class. Exact-mode
  // bit-identity is preserved: every class member would compute exactly
  // these bits on its own, and no receiver's result feeds another's.
  // Recycling is safe mid-loop: a later class's key slabs are still
  // referenced by its (not yet rebound) members, so they cannot have been
  // freed and reused. The O(delivered) grouping scan runs per range (the
  // slab arrays are read-only here); per-range maps merge in range order,
  // so each class's member list keeps the serial delivered order.
  using ClassKey = std::pair<SlabId, SlabId>;
  const std::vector<sim::DeviceId>& delivered = bc.delivered;
  std::vector<std::map<ClassKey, std::vector<sim::DeviceId>>> parts(
      range_count(delivered.size()));
  for_ranges(delivered.size(),
             [&](std::size_t r, std::size_t begin, std::size_t end) {
               for (std::size_t i = begin; i < end; ++i) {
                 const sim::DeviceId id = delivered[i];
                 parts[r][{state_slab_[id], sync_slab_[id]}].push_back(id);
               }
             });
  std::map<ClassKey, std::vector<sim::DeviceId>> classes;
  for (auto& part : parts) {
    for (auto& [key, members] : part) {
      auto& dst = classes[key];
      dst.insert(dst.end(), members.begin(), members.end());
    }
  }
  const double w = config_.broadcast_mix_weight;
  std::vector<float> mixed;
  for (const auto& [key, members] : classes) {
    const std::span<const float> state = store_->view(key.first);
    mixed.assign(state.begin(), state.end());
    nn::mix_into(mixed, sync.aggregate, w);
    const SlabId new_state = store_->create(mixed);
    const SlabId new_sync = store_->create(sync.aggregate);
    for (const sim::DeviceId id : members) {
      store_->retain(new_state);
      rebind_state(id, new_state);
      store_->retain(new_sync);
      rebind_sync(id, new_sync);
      version_[id] = (1.0 - w) * version_[id] + w * sync.version_mean;
    }
    store_->release(new_state);
    store_->release(new_sync);
  }
  span(start, obs::SpanKind::kBroadcast, "fold");
}

std::vector<float> FleetEngine::inter_group(
    const std::vector<sim::DeviceId>& leaders, const DeviceGroups& groups) {
  std::vector<float> global = mean_of(leaders);
  try {
    comm::simulate_ring_allreduce(transport_, leaders, wire_bytes_);
  } catch (const CommError&) {
    HADFL_WARN("inter-group sync skipped: leader unreachable");
    return {};
  }
  const SlabId global_slab = store_->create(global);
  std::vector<float> mixed;
  for (std::size_t g = 0; g < groups.size() && g < leaders.size(); ++g) {
    // Available non-leader members mix the global state in; classes are
    // keyed by state slab only (the last-sync reference is untouched, as
    // in the sim executor's inter-group pass).
    std::map<SlabId, std::vector<sim::DeviceId>> classes;
    for (const sim::DeviceId id : groups[g]) {
      if (!liveness_.is_available(id) || id == leaders[g]) continue;
      transport_.account(leaders[g], id, wire_bytes_);
      classes[state_slab_[id]].push_back(id);
    }
    for (const auto& [slab, members] : classes) {
      const std::span<const float> state = store_->view(slab);
      mixed.assign(state.begin(), state.end());
      nn::mix_into(mixed, global, config_.broadcast_mix_weight);
      const SlabId new_state = store_->create(mixed);
      for (const sim::DeviceId id : members) {
        store_->retain(new_state);
        rebind_state(id, new_state);
      }
      store_->release(new_state);
    }
    store_->retain(global_slab);
    rebind_state(leaders[g], global_slab);
  }
  store_->release(global_slab);
  return global;
}

std::vector<float> FleetEngine::mean_state() {
  const std::vector<sim::DeviceId> ids = liveness_.available();
  return mean_of(ids.empty() ? fl::all_device_ids(cluster_) : ids);
}

std::vector<float> FleetEngine::finish(bool need_state) {
  if (!need_state) return {};
  return mean_of(fl::all_device_ids(cluster_));
}

FleetStats FleetEngine::stats() const {
  FleetStats out = stats_;
  out.peak_state_slabs = store_->peak_slabs();
  out.peak_state_bytes = store_->peak_bytes();
  if (vstore_) {
    out.peak_velocity_slabs = vstore_->peak_slabs();
    out.peak_velocity_bytes = vstore_->peak_bytes();
  }
  return out;
}

}  // namespace

FleetResult run_hadfl_fleet(const fl::SchemeContext& ctx,
                            const HadflConfig& config,
                            const FleetConfig& fleet) {
  ctx.cluster.reset_clocks();
  Rng rng(ctx.config.seed);
  FleetEngine engine(ctx, config, fleet, rng);
  HadflResult run = RoundDriver(ctx, config, engine.setup(), rng, engine).run();
  FleetResult result{std::move(run.scheme), std::move(run.extras),
                     engine.stats()};
  result.scheme.scheme_name = "hadfl-fleet";
  result.scheme.volume = engine.volume();
  result.stats.ring_repairs = result.extras.ring_repairs;
  return result;
}

}  // namespace hadfl::core
