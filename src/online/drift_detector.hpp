#pragma once

// Per-kernel workload-drift detection. The paper trains its models offline
// and freezes them; when the input distribution shifts, a frozen model stays
// pinned to a stale choice with nothing in the loop to notice. This detector
// closes that gap: it tracks, per coarse feature bucket, a decayed mean
// runtime and a decayed mean absolute deviation for every execution variant
// that has been observed (the predicted choice plus the Explorer's occasional
// off-policy launches), and scores each *predicted* launch by how far the
// chosen variant's mean sits above the best *other* variant's, beyond what
// both variants' measured spread explains. Wall-clock noise on µs-scale
// launches therefore scores zero; only a real gap between baselines counts.
// When the windowed mean regret crosses a threshold, the detector fires and
// the adaptation loop reacts (boost exploration, retrain, hot-swap).

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace apollo::online {

struct DriftConfig {
  std::size_t window = 48;        ///< regret samples in the sliding window
  std::size_t min_samples = 12;   ///< windowed samples required before firing
  double regret_threshold = 0.25; ///< mean relative regret that fires
  double baseline_alpha = 0.25;   ///< EWMA weight for per-(bucket,variant) mean and deviation
  std::size_t cooldown = 64;      ///< choice observations to ignore after a fire
};

/// Coarse "similar features" bucket for a launch: log2 of the iteration count
/// plus a capped segment count. Launches in one bucket are comparable enough
/// that their variant runtimes rank the same way.
[[nodiscard]] std::uint64_t feature_bucket(std::int64_t num_indices,
                                           std::size_t num_segments) noexcept;

class DriftDetector {
public:
  explicit DriftDetector(DriftConfig config = {});

  /// Record one observed launch. `variant` is any stable encoding of the
  /// executed (policy, chunk) pair. Chosen launches (the model's prediction)
  /// contribute a regret sample; explored launches only refresh baselines.
  /// The sample is max(0, chosen.mean - best.mean - (chosen.dev + best.dev))
  /// / best.mean, where `best` is the lowest-mean variant other than the
  /// chosen one (zero when no other variant has been seen in the bucket).
  void observe(std::uint64_t bucket, std::uint64_t variant, double seconds, bool chosen);

  /// True exactly once per firing (reading clears the flag, not the window).
  [[nodiscard]] bool consume_fire() noexcept;

  [[nodiscard]] double mean_regret() const noexcept;
  [[nodiscard]] std::size_t window_size() const noexcept { return regrets_.size(); }
  [[nodiscard]] std::uint64_t fires() const noexcept { return fires_; }

  /// Decayed mean runtime of one variant in one bucket (< 0 when unseen).
  [[nodiscard]] double baseline(std::uint64_t bucket, std::uint64_t variant) const noexcept;
  /// Best decayed mean runtime across a bucket's variants (< 0 when empty).
  [[nodiscard]] double best_baseline(std::uint64_t bucket) const noexcept;

  /// Forget the regret window and re-arm (called after a model hot-swap so
  /// the new model starts from a clean slate). Variant baselines are kept —
  /// they are the evidence the next drift detection needs.
  void rearm() noexcept;

  const DriftConfig& config() const noexcept { return config_; }

private:
  struct Baseline {
    double mean = 0.0;       ///< EWMA of the runtime
    double dev = 0.0;        ///< EWMA of |runtime - mean|
    std::uint64_t count = 0; ///< observations (0 = unseen)
  };

  DriftConfig config_;
  /// bucket -> variant -> decayed runtime statistics.
  std::unordered_map<std::uint64_t, std::unordered_map<std::uint64_t, Baseline>> baselines_;
  /// Fixed ring of the last `window` regret samples: no allocation on the
  /// per-launch path once the window has filled for the first time.
  std::vector<double> regrets_;
  std::size_t regret_next_ = 0;
  double regret_sum_ = 0.0;
  std::size_t cooldown_left_ = 0;
  bool fire_pending_ = false;
  std::uint64_t fires_ = 0;
};

}  // namespace apollo::online
