// The one HADFL coordinator loop (paper Alg. 1, Fig. 2a steps 1-7).
// RoundDriver takes every per-round decision; a RoundExecutor carries each
// one out — on virtual clocks (core/trainer.cpp), on live workers
// (rt/coordinator.cpp, reused by src/net), or on a 10^6-device fleet of
// shared slabs (core/fleet.cpp). core/round_logic.hpp describes the
// layering and DESIGN.md §7 which decision lives where.
#pragma once

#include <cstdint>
#include <vector>

#include "core/round_logic.hpp"
#include "obs/metrics.hpp"

namespace hadfl::core {

/// Argument checks every HADFL backend shares.
void check_hadfl_args(const fl::SchemeContext& ctx, const HadflConfig& config);

/// The per-device diagnostic series in HadflExtras (actual and predicted
/// versions, negotiated epoch times) cover at most this many devices: at
/// K = 10^6 the full series would dwarf the model memory the fleet engine
/// saves. Selection and prediction always see all K devices.
inline constexpr std::size_t kExtrasDeviceCap = 4096;

/// One round's sync knobs: the controller's plan, else the static config.
struct SyncPlan {
  comm::SyncCodec codec = comm::SyncCodec::kNone;
  double topk_ratio = 0.05;
  std::size_t chunks = 0;
  bool force_raw = false;  ///< ship exact state even if references agree
};

/// The coordinator's view of each device: the last values it reported.
struct DeviceReports {
  std::vector<double> version;
  std::vector<double> loss;           ///< mean loss of the last burst
  std::vector<std::size_t> executed;  ///< steps of the last burst
  std::vector<double> step_time;      ///< this round's s/step (0 = none)
};

/// One ring synchronization as the executor carried it out.
struct SyncOutcome {
  std::vector<sim::DeviceId> ring;  ///< the repaired ring that committed
  std::vector<float> aggregate;     ///< empty = every attempt failed
  bool delta = false;               ///< shipped codec-encoded deltas
  std::int64_t base_epoch = 0;      ///< reference epoch the deltas built on
  std::int64_t commit_id = 0;       ///< the members' new reference epoch
  double version_mean = 0.0;
  double latency_s = 0.0;           ///< the committed attempt's latency
  std::size_t repairs = 0;          ///< §III-D bypasses over all attempts
  bool ok() const { return !ring.empty() && !aggregate.empty(); }
};

/// How a backend carries out the driver's decisions, called in Alg. 1
/// order. `reports` is the driver's DeviceReports.
class RoundExecutor {
 public:
  virtual ~RoundExecutor() = default;
  struct Negotiation {
    std::vector<double> epoch_times;  ///< T_i per device (§III-B)
    std::vector<float> start_state;   ///< model the first point evaluates
  };
  /// Warm-up plus the optional post-negotiation full sync; fills loss.
  virtual Negotiation negotiate(DeviceReports& reports) = 0;
  /// The keep-going hook: opens the next round, or returns false to stop.
  virtual bool begin_round() = 0;
  /// Devices reachable now (the liveness view of workflow step 1).
  virtual std::vector<bool> available() = 0;
  /// Local training truncated at `window`; updates the reports of the
  /// devices that trained and returns the steps executed.
  virtual double train(std::size_t round,
                       const std::vector<std::size_t>& budgets,
                       double window, DeviceReports& reports) = 0;
  /// Selection over one group's candidates and the ring over the picks
  /// (workflow step 5); core::plan_ring unless the backend samples.
  virtual RingPlan plan_ring(SelectionPolicy& policy,
                             const std::vector<sim::DeviceId>& candidates,
                             const std::vector<double>& predicted,
                             const std::vector<double>& compute_powers,
                             const std::vector<double>& bandwidth_scales,
                             std::size_t select_count, Rng& rng);
  /// Fault-tolerant ring aggregation (§III-D) with its repairs and
  /// retries; commits the aggregate on the ring members. An executor whose
  /// plan_ring fills `ring.train` trains those devices before the fold.
  virtual SyncOutcome sync(std::size_t round, RingPlan ring,
                           const SyncPlan& plan, DeviceReports& reports) = 0;
  /// Reference epoch of device d's delta reference (< 0 = unknown).
  virtual std::int64_t ref_epoch(sim::DeviceId d) const = 0;
  /// Non-blocking push from `src`: `aligned` receivers take the encoded
  /// fold, `stale` ones the dense aggregate.
  virtual void broadcast(const SyncOutcome& sync, sim::DeviceId src,
                         const std::vector<sim::DeviceId>& aligned,
                         const std::vector<sim::DeviceId>& stale,
                         const SyncPlan& plan) = 0;
  /// Leader exchange (§III-A): leaders[g] pushes the leaders' mean into
  /// groups[g]. Returns that global model, empty when the exchange failed.
  virtual std::vector<float> inter_group(
      const std::vector<sim::DeviceId>& leaders,
      const DeviceGroups& groups) = 0;
  /// Mean model of the reachable devices, or the backend's fallback when
  /// none is (empty = nothing left to read, and the run stops).
  virtual std::vector<float> mean_state() = 0;
  /// Run time so far: virtual seconds (sim) or wall seconds (rt).
  virtual double now() = 0;
  /// Ends the run; returns the fallback final model when `need_state`.
  virtual std::vector<float> finish(bool need_state) = 0;

 protected:
  /// Whether a sync attempt over `ring` ships codec-encoded deltas: a codec
  /// is on, no raw round is forced, and every member holds the same known
  /// reference epoch (bit-identical references are the precondition). A
  /// raw round ships exact state instead, which realigns everyone.
  bool ships_deltas(const SyncPlan& plan,
                    const std::vector<sim::DeviceId>& ring) const;
};

/// Draws from `rng` in one fixed order — per group, plan_ring then the
/// broadcast source — so seeded runs are bit-identical across backends.
class RoundDriver {
 public:
  /// `rng` produced `setup` and is advanced past the init splits.
  /// `selection_prob` (Eq. 8 probabilities) and `metrics` (ctrl.*
  /// counters) are optional instruments.
  RoundDriver(const fl::SchemeContext& ctx, const HadflConfig& config,
              const DeviceSetup& setup, Rng& rng, RoundExecutor& exec,
              obs::Histogram* selection_prob = nullptr,
              obs::MetricsRegistry* metrics = nullptr);

  /// Runs Alg. 1 to the epoch budget. Fills the whole result except
  /// scheme_name and the backend-owned volume.
  HadflResult run();

 private:
  void sync_group(const std::vector<sim::DeviceId>& group,
                  const std::vector<bool>& available,
                  const std::vector<double>& predicted, const SyncPlan& plan,
                  std::vector<float>& eval_state,
                  std::vector<sim::DeviceId>& selected);

  const fl::SchemeContext& ctx_;
  const HadflConfig& config_;
  const DeviceSetup& setup_;
  Rng& rng_;
  RoundExecutor& exec_;
  obs::Histogram* selection_prob_;
  obs::MetricsRegistry* metrics_;
  std::size_t k_;
  std::vector<double> bandwidth_scales_;
  std::shared_ptr<SelectionPolicy> policy_;
  std::unique_ptr<ctrl::AdaptiveController> controller_;  ///< null = static
  std::size_t round_ = 0;
  DeviceReports reports_;
  HadflResult result_;
};

}  // namespace hadfl::core
