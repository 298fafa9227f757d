#include "core/fleet_selection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "common/parallel.hpp"

namespace hadfl::core {

namespace {

/// Fixed range grain for the parallel selection passes. Constant (never a
/// function of thread count), so the partial-reduction grid — and with it
/// every merged result — is identical no matter how many threads execute.
constexpr std::size_t kSelectionGrain = std::size_t{1} << 14;

/// Histogram buckets for the approximate quartiles: the quartile error is
/// at most one bucket width, (max - min) / kSelectionBuckets.
constexpr std::size_t kSelectionBuckets = 512;

/// Uniform in [0, 1) derived from (seed, id) alone — a splitmix64
/// finalizer over the counter, matching Rng's 53-bit mantissa convention.
/// Counter-style so a candidate's draw does not depend on which range (or
/// thread) evaluates it, nor on how many other candidates exist.
double counter_uniform(std::uint64_t seed, std::uint64_t id) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (id + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

struct Keyed {
  double key;
  sim::DeviceId id;
};

/// Strict total order (keys tie-broken by id), which is what makes the
/// top-N set a pure function of the candidate SET — independent of range
/// partitioning and visit order.
bool better(const Keyed& a, const Keyed& b) {
  if (a.key != b.key) return a.key > b.key;
  return a.id < b.id;
}

/// Bounded "best keep" reservoir: a min-heap (front = worst kept element)
/// under the `better` total order.
class TopN {
 public:
  explicit TopN(std::size_t keep) : keep_(keep) { heap_.reserve(keep + 1); }

  void offer(Keyed k) {
    if (heap_.size() < keep_) {
      heap_.push_back(k);
      std::push_heap(heap_.begin(), heap_.end(), better);
    } else if (keep_ > 0 && better(k, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), better);
      heap_.back() = k;
      std::push_heap(heap_.begin(), heap_.end(), better);
    }
  }

  const std::vector<Keyed>& kept() const { return heap_; }

  /// Destructively orders the kept elements best-first.
  std::vector<Keyed> take_sorted() {
    std::sort_heap(heap_.begin(), heap_.end(), better);
    return std::move(heap_);
  }

 private:
  std::size_t keep_;
  std::vector<Keyed> heap_;
};

/// Rank interpolation inside the histogram. Continuous target rank, same
/// convention as quantile(): q*(n-1).
double rank_value(const std::vector<std::size_t>& counts, double lo,
                  double width, std::size_t n, double hi, double q) {
  const double target = q * static_cast<double>(n - 1);
  std::size_t before = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::size_t cb = counts[b];
    if (cb == 0) continue;
    if (target < static_cast<double>(before + cb)) {
      // Spread the bucket's cb members evenly across its width and read
      // the in-bucket position the target rank lands on.
      const double frac = (target - static_cast<double>(before) + 0.5) /
                          static_cast<double>(cb);
      return lo + width * (static_cast<double>(b) + std::clamp(frac, 0.0, 1.0));
    }
    before += cb;
  }
  return hi;
}

}  // namespace

FleetSelection select_fleet_cohort(std::span<const double> predicted,
                                   const std::vector<sim::DeviceId>& candidates,
                                   std::size_t select_count,
                                   std::size_t shadow_count,
                                   std::uint64_t draw_seed,
                                   FleetObjective objective,
                                   std::size_t threads) {
  HADFL_CHECK_ARG(!candidates.empty(), "fleet selection over zero candidates");
  HADFL_CHECK_ARG(select_count > 0, "fleet selection with zero picks");
  select_count = std::min(select_count, candidates.size());
  shadow_count = std::min(shadow_count, candidates.size() - select_count);

  const std::size_t n = candidates.size();
  const std::size_t ranges = (n + kSelectionGrain - 1) / kSelectionGrain;
  const auto range_of = [](std::size_t begin) {
    return begin / kSelectionGrain;
  };

  // Eq. 8 parameters from the candidates' predicted versions: per-range
  // min/max then per-range histograms, both merged order-independently
  // (min/max and integer sums commute exactly).
  double mu = 0.0;
  double scale = 1.0;
  if (objective == FleetObjective::kGaussianQuartile) {
    std::vector<double> los(ranges, std::numeric_limits<double>::infinity());
    std::vector<double> his(ranges, -std::numeric_limits<double>::infinity());
    parallel_chunks(n, kSelectionGrain, threads,
                    [&](std::size_t begin, std::size_t end) {
                      const std::size_t r = range_of(begin);
                      double lo = los[r];
                      double hi = his[r];
                      for (std::size_t i = begin; i < end; ++i) {
                        const double v = predicted[candidates[i]];
                        lo = std::min(lo, v);
                        hi = std::max(hi, v);
                      }
                      los[r] = lo;
                      his[r] = hi;
                    });
    double lo = los[0];
    double hi = his[0];
    for (std::size_t r = 1; r < ranges; ++r) {
      lo = std::min(lo, los[r]);
      hi = std::max(hi, his[r]);
    }
    if (hi - lo <= 1e-12) {
      mu = lo;
      scale = 1.0;
    } else {
      const double width = (hi - lo) / static_cast<double>(kSelectionBuckets);
      std::vector<std::vector<std::size_t>> hists(ranges);
      parallel_chunks(
          n, kSelectionGrain, threads,
          [&](std::size_t begin, std::size_t end) {
            const std::size_t r = range_of(begin);
            hists[r].assign(kSelectionBuckets, 0);
            for (std::size_t i = begin; i < end; ++i) {
              const double v = predicted[candidates[i]];
              const auto b =
                  std::min(kSelectionBuckets - 1,
                           static_cast<std::size_t>((v - lo) / width));
              ++hists[r][b];
            }
          });
      std::vector<std::size_t> counts(kSelectionBuckets, 0);
      // Ranges the serial fallback never visited keep empty histograms.
      for (const auto& h : hists) {
        for (std::size_t b = 0; b < h.size(); ++b) counts[b] += h[b];
      }
      const double q1 = rank_value(counts, lo, width, n, hi, 0.25);
      const double q3 = rank_value(counts, lo, width, n, hi, 0.75);
      mu = q3;
      scale = q3 - q1;
      if (scale <= 1e-12) scale = 1.0;
    }
  }

  const std::size_t keep = select_count + shadow_count;
  const auto key_of = [&](sim::DeviceId id) {
    if (objective == FleetObjective::kTopVersion) return predicted[id];
    // Efraimidis–Soules: candidate i gets key log(u_i) / w_i (the log of
    // u^(1/w), monotone-equivalent and underflow-free); the top keys are a
    // weighted sample without replacement. Zero-density stragglers (density
    // underflow far from μ) get -inf keys: selected only when fewer than
    // `keep` candidates have positive density.
    const double w = standard_normal_pdf(predicted[id] / scale, mu / scale);
    const double u = counter_uniform(draw_seed, id);
    return w > 0.0 ? std::log(std::max(u, 1e-300)) / w
                   : -std::numeric_limits<double>::infinity();
  };

  // Per-range top-N reservoirs, merged in range order. Because the kept
  // set under a strict total order only depends on the candidate set, the
  // merged result equals the single-range serial result exactly.
  std::vector<TopN> partial(ranges, TopN(keep));
  parallel_chunks(n, kSelectionGrain, threads,
                  [&](std::size_t begin, std::size_t end) {
                    TopN& top = partial[range_of(begin)];
                    for (std::size_t i = begin; i < end; ++i) {
                      top.offer({key_of(candidates[i]), candidates[i]});
                    }
                  });
  TopN merged(keep);
  for (TopN& p : partial) {
    for (const Keyed& k : p.kept()) merged.offer(k);
  }
  const std::vector<Keyed> ordered = merged.take_sorted();

  FleetSelection out;
  out.mu = mu;
  out.scale = scale;
  out.cohort.reserve(select_count);
  out.shadow.reserve(ordered.size() - std::min(select_count, ordered.size()));
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    (i < select_count ? out.cohort : out.shadow).push_back(ordered[i].id);
  }
  return out;
}

}  // namespace hadfl::core
