// Sublinear-per-round selection for fleet-scale runs (10^4–10^6 devices).
//
// The exact Eq. 8 path (core/selection.hpp) sorts all K versions for the
// quartiles, materializes K normalized probabilities, and runs a K-pass
// draw-and-remove sample — O(K log K) time and O(K) fresh allocations per
// round, which dominates a 10^5-device round. The fleet path replaces the
// pieces with streaming equivalents:
//
//  * quartiles from a fixed-B bucketed histogram (two O(K) passes, O(B)
//    memory, no sort, no copy of the versions);
//  * an Efraimidis–Soules weighted reservoir over the *unnormalized*
//    densities — each candidate gets key log(u)/w and the top-N keys are
//    the sample, so no K-vector of probabilities ever exists and the
//    selection is one pass with an O(N) heap.
//
// Parallel + partition-invariant: the O(K) passes run over a fixed range
// grid (grain constant, never derived from thread count) with per-range
// partials — min/max and histogram counts merge order-independently, and
// the per-range top-N heaps merge in range order under a strict total
// order on (key, id), so the selected set is a pure function of the
// candidate set. Each candidate's uniform draw is counter-derived from
// (draw_seed, device id) rather than pulled from a shared sequential
// stream, which is what makes the keys independent of range boundaries
// and thread count.
//
// Both are documented approximations of the exact path (bucketed quartiles
// vs. interpolated order statistics; counter-keyed E–S sampling vs.
// sequential draw-and-remove — same weighted-without-replacement
// semantics, different draw stream), used only in the fleet trainer's
// cohort mode. Exact mode keeps the original path bit-for-bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/device.hpp"

namespace hadfl::core {

/// What the bucketed top-N machinery ranks candidates by.
enum class FleetObjective {
  /// Eq. 8: Gaussian density centred at the bucketed 3rd version quartile,
  /// sampled without replacement via Efraimidis–Soules keys (stochastic,
  /// counter-seeded per candidate).
  kGaussianQuartile,
  /// Deterministic newest-version top-N (key = predicted version, ties to
  /// the lower id) — the fleet twin of core::TopKSelection.
  kTopVersion,
};

/// One fleet-round selection: `cohort` holds the select_count winners
/// (descending key — the devices that will actually train and form the
/// ring) and `shadow` the next shadow_count runners-up (trained so
/// cohort-mode class means have off-ring representatives). `mu`/`scale`
/// echo the Eq. 8 parameters used, so telemetry can price any device's
/// probability on demand without a K vector.
struct FleetSelection {
  std::vector<sim::DeviceId> cohort;
  std::vector<sim::DeviceId> shadow;
  double mu = 0.0;
  double scale = 1.0;
};

/// Streams over `candidates` (ids indexing `predicted`) and keeps the top
/// (select_count + shadow_count) keys under `objective`. O(K log N) time,
/// O(N + B) memory per range, with B = 512 fixed histogram buckets.
/// Bit-identical for any `threads` value (including 1): the range grid is
/// fixed and every reduction merges in range order. `draw_seed` feeds the
/// per-candidate counter uniforms of the Gaussian objective (ignored by
/// kTopVersion).
FleetSelection select_fleet_cohort(std::span<const double> predicted,
                                   const std::vector<sim::DeviceId>& candidates,
                                   std::size_t select_count,
                                   std::size_t shadow_count,
                                   std::uint64_t draw_seed,
                                   FleetObjective objective,
                                   std::size_t threads);

}  // namespace hadfl::core
