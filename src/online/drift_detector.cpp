#include "online/drift_detector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace apollo::online {

std::uint64_t feature_bucket(std::int64_t num_indices, std::size_t num_segments) noexcept {
  const auto magnitude =
      num_indices > 0 ? std::bit_width(static_cast<std::uint64_t>(num_indices)) : 0;
  return (static_cast<std::uint64_t>(magnitude) << 4) |
         std::min<std::uint64_t>(num_segments, 15);
}

DriftDetector::DriftDetector(DriftConfig config) : config_(config) {}

void DriftDetector::observe(std::uint64_t bucket, std::uint64_t variant, double seconds,
                            bool chosen) {
  auto& variants = baselines_[bucket];
  auto& own = variants[variant];
  if (own.count > 0) {
    own.dev += config_.baseline_alpha * (std::abs(seconds - own.mean) - own.dev);
    own.mean += config_.baseline_alpha * (seconds - own.mean);
  } else {
    own.mean = seconds;
  }
  ++own.count;
  if (!chosen) return;

  // Regret of the chosen variant's baseline against the best *other*
  // variant's, net of both deviation bands: per-launch noise moves a mean by
  // less than its band, so only a persistent gap between baselines scores.
  // With no other variant observed there is no evidence of a better
  // alternative, so regret is zero by construction.
  const Baseline* best = nullptr;
  for (const auto& [id, other] : variants) {
    if (id != variant && other.count > 0 && (best == nullptr || other.mean < best->mean)) {
      best = &other;
    }
  }
  const double regret =
      best != nullptr && best->mean > 0.0
          ? std::max(0.0, own.mean - best->mean - (own.dev + best->dev)) / best->mean
          : 0.0;
  if (config_.window == 0) return;
  if (regrets_.size() < config_.window) {
    regrets_.push_back(regret);
  } else {
    regret_sum_ -= regrets_[regret_next_];
    regrets_[regret_next_] = regret;
    regret_next_ = (regret_next_ + 1) % config_.window;
  }
  regret_sum_ += regret;

  if (cooldown_left_ > 0) {
    --cooldown_left_;
    return;
  }
  if (regrets_.size() >= config_.min_samples && mean_regret() > config_.regret_threshold) {
    fire_pending_ = true;
    ++fires_;
    cooldown_left_ = config_.cooldown;
    regrets_.clear();  // keeps capacity: refilling the window stays alloc-free
    regret_next_ = 0;
    regret_sum_ = 0.0;
  }
}

bool DriftDetector::consume_fire() noexcept {
  const bool fired = fire_pending_;
  fire_pending_ = false;
  return fired;
}

double DriftDetector::baseline(std::uint64_t bucket, std::uint64_t variant) const noexcept {
  const auto bucket_it = baselines_.find(bucket);
  if (bucket_it == baselines_.end()) return -1.0;
  const auto variant_it = bucket_it->second.find(variant);
  if (variant_it == bucket_it->second.end() || variant_it->second.count == 0) return -1.0;
  return variant_it->second.mean;
}

double DriftDetector::best_baseline(std::uint64_t bucket) const noexcept {
  const auto bucket_it = baselines_.find(bucket);
  if (bucket_it == baselines_.end()) return -1.0;
  double best = -1.0;
  for (const auto& [variant, stats] : bucket_it->second) {
    if (stats.count > 0 && (best < 0.0 || stats.mean < best)) best = stats.mean;
  }
  return best;
}

double DriftDetector::mean_regret() const noexcept {
  return regrets_.empty() ? 0.0 : regret_sum_ / static_cast<double>(regrets_.size());
}

void DriftDetector::rearm() noexcept {
  regrets_.clear();
  regret_next_ = 0;
  regret_sum_ = 0.0;
  cooldown_left_ = 0;
  fire_pending_ = false;
}

}  // namespace apollo::online
