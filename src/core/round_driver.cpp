#include "core/round_driver.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "fl/evaluate.hpp"
#include "nn/param_utils.hpp"

namespace hadfl::core {

namespace {

/// Per-round cap on selection.probability observations (evenly strided
/// over the candidates) — keeps telemetry O(1) per round at fleet scale.
constexpr std::size_t kSelectionProbSampleCap = 64;

/// ‖x − prev‖ / ‖prev‖ of successive evaluated models: the controller's
/// convergence signal (negative when undefined, which it ignores).
double relative_delta_norm(const std::vector<float>& x,
                           const std::vector<float>& prev) {
  if (prev.size() != x.size()) return -1.0;
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double p = static_cast<double>(prev[i]);
    const double diff = static_cast<double>(x[i]) - p;
    num += diff * diff;
    den += p * p;
  }
  return den > 0.0 ? std::sqrt(num / den) : -1.0;
}

std::vector<double> capped(const std::vector<double>& values) {
  return {values.begin(),
          values.begin() + static_cast<std::ptrdiff_t>(
                               std::min(values.size(), kExtrasDeviceCap))};
}

}  // namespace

void check_hadfl_args(const fl::SchemeContext& ctx,
                      const HadflConfig& config) {
  HADFL_CHECK_ARG(ctx.partition.size() == ctx.cluster.size(),
                  "partition count != device count");
  HADFL_CHECK_ARG(config.alpha > 0.0 && config.alpha < 1.0,
                  "alpha must be in (0, 1)");
  HADFL_CHECK_ARG(
      config.broadcast_mix_weight >= 0.0 && config.broadcast_mix_weight <= 1.0,
      "broadcast mix weight must be in [0, 1]");
}

bool RoundExecutor::ships_deltas(const SyncPlan& plan,
                                 const std::vector<sim::DeviceId>& ring) const {
  const std::int64_t base = ref_epoch(ring.front());
  return plan.codec != comm::SyncCodec::kNone && !plan.force_raw &&
         base >= 0 && std::all_of(ring.begin(), ring.end(), [&](auto id) {
           return ref_epoch(id) == base;
         });
}

RingPlan RoundExecutor::plan_ring(
    SelectionPolicy& policy, const std::vector<sim::DeviceId>& candidates,
    const std::vector<double>& predicted,
    const std::vector<double>& compute_powers,
    const std::vector<double>& bandwidth_scales, std::size_t select_count,
    Rng& rng) {
  return core::plan_ring(policy, candidates, predicted, compute_powers,
                         bandwidth_scales, select_count, rng);
}

RoundDriver::RoundDriver(const fl::SchemeContext& ctx,
                         const HadflConfig& config, const DeviceSetup& setup,
                         Rng& rng, RoundExecutor& exec,
                         obs::Histogram* selection_prob,
                         obs::MetricsRegistry* metrics)
    : ctx_(ctx),
      config_(config),
      setup_(setup),
      rng_(rng),
      exec_(exec),
      selection_prob_(selection_prob),
      metrics_(metrics),
      k_(ctx.cluster.size()),
      bandwidth_scales_(k_),
      policy_(config.policy ? config.policy
                            : std::make_shared<GaussianQuartileSelection>()) {
  check_hadfl_args(ctx, config);
  for (std::size_t d = 0; d < k_; ++d) {
    bandwidth_scales_[d] = ctx.cluster.bandwidth_scale(d);
  }
  reports_.version.assign(k_, 0.0);
  reports_.loss.assign(k_, 0.0);
  reports_.executed.assign(k_, 0);
  reports_.step_time.assign(k_, 0.0);
}

HadflResult RoundDriver::run() {
  // ---- Mutual negotiation (§III-B) and strategy generation (§III-C).
  const RoundExecutor::Negotiation negotiated = exec_.negotiate(reports_);
  const std::vector<double>& epoch_times = negotiated.epoch_times;
  const std::vector<std::size_t>& ipe = setup_.iters_per_epoch;
  result_.extras.negotiated_epoch_times = capped(epoch_times);
  const TrainingStrategy strategy =
      StrategyGenerator(config_.strategy).generate(epoch_times, ipe);
  result_.extras.strategy = strategy;
  HADFL_INFO("hadfl strategy: H_E=" << strategy.hyperperiod << "s window="
                                    << strategy.round_window << "s");

  // ---- Adaptive control loop (src/ctrl), seeded from the warm-up so its
  // first plans reproduce the static strategy exactly.
  if (config_.adaptive.enabled) {
    std::vector<double> step_time(k_);
    for (std::size_t d = 0; d < k_; ++d) {
      step_time[d] = epoch_times[d] / static_cast<double>(ipe[d]);
    }
    controller_ = std::make_unique<ctrl::AdaptiveController>(
        config_.adaptive, std::move(step_time), strategy.round_window,
        strategy.local_steps, config_.sync_chunks, config_.compression,
        config_.top_k_ratio);
    controller_->bind_metrics(metrics_);
  }

  RuntimeSupervisor supervisor(k_, config_.alpha);
  supervisor.set_threads(default_compute_threads());
  ModelManager model_manager(config_.backup_dir, config_.backup_every_rounds);
  const DeviceGroups groups = make_groups(ctx_.cluster, config_.grouping);
  const auto inter_period = static_cast<std::size_t>(
      std::max(1, config_.grouping.inter_group_period));
  const double total_train = static_cast<double>(ctx_.train.size());
  double epochs_done = std::max(1, ctx_.config.warmup_epochs);

  // Records a convergence point on `state` (what the model manager keeps).
  const auto record = [&](const std::vector<float>& state, double loss) {
    nn::load_state(*setup_.reference, state);
    const fl::EvalResult eval = fl::evaluate(*setup_.reference, ctx_.test);
    result_.scheme.metrics.add(fl::ConvergencePoint{
        epochs_done, exec_.now(), loss, eval.loss, eval.accuracy});
  };
  double warmup_loss = 0.0;
  for (const double loss : reports_.loss) warmup_loss += loss;
  record(negotiated.start_state, warmup_loss / static_cast<double>(k_));

  std::vector<float> prev_eval;
  std::vector<double> last_versions;  // kLastValue's full-K observation
  while (epochs_done < static_cast<double>(ctx_.config.total_epochs) &&
         exec_.begin_round()) {
    const std::size_t round = ++round_;
    // Per-round knobs: the controller's plan when adaptive is on (its
    // initial plan holds the static values), the static config otherwise.
    const ctrl::RoundPlan* cp = controller_ ? &controller_->plan() : nullptr;
    const SyncPlan plan{cp ? cp->codec : config_.compression,
                        cp ? cp->topk_ratio : config_.top_k_ratio,
                        cp ? cp->sync_chunks : config_.sync_chunks,
                        cp && cp->force_raw};

    // Workflow step 1: the available set is fixed *before* the round
    // starts. A device dying during the round stays selectable on this
    // stale view — the §III-D ring repair is what handles it (Fig. 2b).
    const std::vector<bool> available_at_start = exec_.available();
    std::fill(reports_.step_time.begin(), reports_.step_time.end(), 0.0);
    const double executed_total =
        exec_.train(round, cp ? cp->local_steps : strategy.local_steps,
                    strategy.round_window, reports_);
    for (std::size_t d = 0; controller_ && d < k_; ++d) {
      controller_->observe_step_time(d, reports_.step_time[d]);
    }

    // -- Forecast from the rounds observed so far; then the supervisor
    //    observes the versions devices *bring to* this sync (steps 4, 7).
    std::vector<double> fallback(k_);
    for (std::size_t d = 0; d < k_; ++d) {
      fallback[d] = static_cast<double>(round) * strategy.expected_versions[d];
    }
    const std::vector<double> predicted = predict_versions(
        config_.predictor, supervisor, fallback, last_versions);
    supervisor.observe_round(reports_.version);
    last_versions = reports_.version;
    result_.extras.actual_versions.push_back(capped(reports_.version));
    result_.extras.predicted_versions.push_back(capped(predicted));

    std::vector<float> eval_state;
    std::vector<sim::DeviceId> selected;
    for (const auto& group : groups) {
      sync_group(group, available_at_start, predicted, plan, eval_state,
                 selected);
    }
    result_.extras.selected.push_back(std::move(selected));

    // -- Inter-group synchronization (§III-A): the first reachable member
    //    of each group leads.
    if (groups.size() > 1 && round % inter_period == 0) {
      const std::vector<bool> available = exec_.available();
      std::vector<sim::DeviceId> leaders;
      for (const auto& group : groups) {
        const auto it = std::find_if(group.begin(), group.end(),
                                     [&](sim::DeviceId id) {
                                       return available[id];
                                     });
        if (it != group.end()) leaders.push_back(*it);
      }
      if (leaders.size() > 1) {
        std::vector<float> global = exec_.inter_group(leaders, groups);
        if (!global.empty()) eval_state = std::move(global);
      }
    }
    epochs_done += executed_total *
                   static_cast<double>(ctx_.config.device_batch_size) /
                   total_train;

    if (eval_state.empty()) {  // no sync committed: average what is up
      eval_state = exec_.mean_state();
      if (eval_state.empty()) break;
    }
    double loss_sum = 0.0;
    double loss_weight = 0.0;
    for (std::size_t d = 0; d < k_; ++d) {
      loss_sum += reports_.loss[d] * static_cast<double>(reports_.executed[d]);
      loss_weight += static_cast<double>(reports_.executed[d]);
    }
    record(eval_state, loss_weight > 0.0 ? loss_sum / loss_weight : 0.0);
    if (controller_) {
      controller_->observe_delta_norm(
          relative_delta_norm(eval_state, prev_eval));
      prev_eval = eval_state;
      controller_->end_round();
    }
    model_manager.update(eval_state, round);
    ++result_.scheme.sync_rounds;
  }

  result_.extras.model_backups = model_manager.backups_written();
  std::vector<float> fallback = exec_.finish(!model_manager.has_model());
  result_.scheme.final_state =
      model_manager.has_model() ? model_manager.latest() : std::move(fallback);
  result_.scheme.total_time = exec_.now();
  return std::move(result_);
}

void RoundDriver::sync_group(const std::vector<sim::DeviceId>& group,
                             const std::vector<bool>& available,
                             const std::vector<double>& predicted,
                             const SyncPlan& plan,
                             std::vector<float>& eval_state,
                             std::vector<sim::DeviceId>& selected) {
  std::vector<sim::DeviceId> candidates;
  for (sim::DeviceId id : group) {
    if (available[id]) candidates.push_back(id);
  }
  if (candidates.empty()) return;

  // Snapshot the Eq. 8 probabilities this draw sees. probabilities()
  // consumes no RNG, so observing leaves the seeded stream untouched.
  if (selection_prob_ != nullptr &&
      dynamic_cast<GaussianQuartileSelection*>(policy_.get()) != nullptr) {
    std::vector<double> versions;
    for (sim::DeviceId d : candidates) versions.push_back(predicted[d]);
    obs::observe_sampled(*selection_prob_,
                         GaussianQuartileSelection::probabilities(versions),
                         kSelectionProbSampleCap);
  }
  SyncOutcome sync = exec_.sync(
      round_,
      exec_.plan_ring(*policy_, candidates, predicted, setup_.compute_powers,
                      bandwidth_scales_, config_.strategy.select_count, rng_),
      plan, reports_);
  result_.extras.ring_repairs += sync.repairs;
  if (!sync.ok()) return;
  selected.insert(selected.end(), sync.ring.begin(), sync.ring.end());
  if (controller_) {
    controller_->observe_sync(sync.latency_s);
    controller_->observe_slow_link(
        std::any_of(sync.ring.begin(), sync.ring.end(), [&](sim::DeviceId id) {
          return bandwidth_scales_[id] < config_.adaptive.slow_link_threshold;
        }));
  }

  // -- Non-blocking broadcast to the unselected group members. After a
  //    delta round, receivers whose reference matches the round's base
  //    epoch take the codec-encoded fold; stale receivers — and every
  //    receiver of a raw round — get the exact dense aggregate, which
  //    realigns them.
  std::vector<sim::DeviceId> aligned;
  std::vector<sim::DeviceId> stale;
  for (sim::DeviceId id : candidates) {
    if (std::find(sync.ring.begin(), sync.ring.end(), id) != sync.ring.end()) {
      continue;
    }
    const bool fresh = sync.delta && exec_.ref_epoch(id) == sync.base_epoch;
    (fresh ? aligned : stale).push_back(id);
  }
  if (!aligned.empty() || !stale.empty()) {
    const sim::DeviceId src = sync.ring[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(sync.ring.size()) - 1))];
    exec_.broadcast(sync, src, aligned, stale, plan);
  }
  if (eval_state.empty()) {
    eval_state = std::move(sync.aggregate);
  } else {
    nn::mix_into(eval_state, sync.aggregate, 0.5);  // mean of group models
  }
}

}  // namespace hadfl::core
