// Unit tests for workload-drift detection: feature buckets, baseline EWMAs,
// regret-window firing, cooldown, re-arming after a hot-swap, and the noise
// bands that keep measurement noise from reading as drift.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "online/drift_detector.hpp"

using apollo::online::DriftConfig;
using apollo::online::DriftDetector;
using apollo::online::feature_bucket;

namespace {

constexpr std::uint64_t kFast = 1;
constexpr std::uint64_t kSlow = 2;
constexpr std::uint64_t kBucket = 0x51;

DriftConfig small_config() {
  DriftConfig c;
  c.window = 8;
  c.min_samples = 4;
  c.regret_threshold = 0.25;
  c.cooldown = 6;
  return c;
}

/// Teach the detector both variants' runtimes via explored observations.
void seed_baselines(DriftDetector& det, double fast_seconds, double slow_seconds) {
  for (int i = 0; i < 4; ++i) {
    det.observe(kBucket, kFast, fast_seconds, /*chosen=*/false);
    det.observe(kBucket, kSlow, slow_seconds, /*chosen=*/false);
  }
}

/// Deterministic multiplicative timing noise shaped like wall-clock time on
/// µs-scale launches: uniform +-40% jitter, and one launch in 64 stalls at 3x
/// (an interrupt or a lost core). A splitmix64 counter drives it, so every
/// run sees the same sequence.
class Noise {
public:
  double operator()() {
    const double stall = unit();
    const double jitter = 1.0 + 0.40 * (2.0 * unit() - 1.0);
    return stall < 1.0 / 64.0 ? 3.0 * jitter : jitter;
  }

private:
  double unit() {  // [0, 1)
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }

  std::uint64_t state_ = 0;
};

/// One explored launch of the alternative per this many chosen launches,
/// roughly the Explorer's base rate.
constexpr int kExploreEvery = 8;

/// Warm both baselines with a few noisy explored launches each, so their
/// deviation bands hold a measured spread before the first chosen launch.
void warm_baselines(DriftDetector& det, Noise& noise, double fast_mean, double slow_mean) {
  for (int i = 0; i < 4; ++i) {
    det.observe(kBucket, kFast, fast_mean * noise(), /*chosen=*/false);
    det.observe(kBucket, kSlow, slow_mean * noise(), /*chosen=*/false);
  }
}

}  // namespace

TEST(FeatureBucket, GroupsByMagnitudeAndSegments) {
  EXPECT_EQ(feature_bucket(1000, 1), feature_bucket(1023, 1));   // same log2
  EXPECT_NE(feature_bucket(1000, 1), feature_bucket(4000, 1));   // different log2
  EXPECT_NE(feature_bucket(1000, 1), feature_bucket(1000, 2));   // segments matter
  EXPECT_EQ(feature_bucket(1000, 100), feature_bucket(1000, 15));  // capped at 15
  EXPECT_EQ(feature_bucket(0, 1), feature_bucket(-5, 1));          // degenerate sizes
}

TEST(DriftDetector, SingleVariantNeverFires) {
  DriftDetector det(small_config());
  // Only the chosen variant has ever been observed: regret is zero by
  // construction, no matter how slow the launches are.
  for (int i = 0; i < 100; ++i) det.observe(kBucket, kFast, 5.0, /*chosen=*/true);
  EXPECT_FALSE(det.consume_fire());
  EXPECT_EQ(det.fires(), 0u);
}

TEST(DriftDetector, FiresWhenChosenVariantRegretsAgainstKnownBetter) {
  DriftDetector det(small_config());
  seed_baselines(det, /*fast=*/1.0, /*slow=*/2.0);
  EXPECT_FALSE(det.consume_fire());

  // The model keeps choosing the slow variant: regret vs the fast baseline
  // is ~1.0 > threshold, so the window fires once min_samples accumulate.
  for (int i = 0; i < 4; ++i) det.observe(kBucket, kSlow, 2.0, /*chosen=*/true);
  EXPECT_TRUE(det.consume_fire());
  EXPECT_FALSE(det.consume_fire());  // reading clears the flag
  EXPECT_EQ(det.fires(), 1u);
}

TEST(DriftDetector, CooldownSuppressesImmediateRefire) {
  DriftDetector det(small_config());
  seed_baselines(det, 1.0, 2.0);
  for (int i = 0; i < 4; ++i) det.observe(kBucket, kSlow, 2.0, /*chosen=*/true);
  ASSERT_TRUE(det.consume_fire());

  // Still regretting, but within the cooldown: no second fire yet.
  for (int i = 0; i < 6; ++i) det.observe(kBucket, kSlow, 2.0, /*chosen=*/true);
  EXPECT_FALSE(det.consume_fire());

  // The cooldown is consumed (while the window kept accumulating): the very
  // next regretting launch fires again.
  det.observe(kBucket, kSlow, 2.0, /*chosen=*/true);
  EXPECT_TRUE(det.consume_fire());
  EXPECT_EQ(det.fires(), 2u);
}

TEST(DriftDetector, BaselineAccessors) {
  DriftDetector det(small_config());
  EXPECT_LT(det.baseline(kBucket, kFast), 0.0);      // unseen
  EXPECT_LT(det.best_baseline(kBucket), 0.0);        // empty bucket

  seed_baselines(det, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(det.baseline(kBucket, kFast), 1.0);
  EXPECT_DOUBLE_EQ(det.baseline(kBucket, kSlow), 2.0);
  EXPECT_DOUBLE_EQ(det.best_baseline(kBucket), 1.0);
  EXPECT_LT(det.baseline(kBucket + 1, kFast), 0.0);  // other buckets untouched
}

TEST(DriftDetector, RegretWindowSlides) {
  DriftConfig config = small_config();
  config.regret_threshold = 10.0;  // never fire; we only watch the window
  DriftDetector det(config);
  seed_baselines(det, 1.0, 2.0);

  for (int i = 0; i < 20; ++i) det.observe(kBucket, kSlow, 2.0, /*chosen=*/true);
  EXPECT_EQ(det.window_size(), config.window);
  EXPECT_NEAR(det.mean_regret(), 1.0, 0.05);

  // A full window of good launches displaces the old regrets entirely.
  for (int i = 0; i < 8; ++i) det.observe(kBucket, kFast, 1.0, /*chosen=*/true);
  EXPECT_NEAR(det.mean_regret(), 0.0, 1e-9);
}

TEST(DriftDetector, RearmClearsWindowKeepsBaselines) {
  DriftDetector det(small_config());
  seed_baselines(det, 1.0, 2.0);
  for (int i = 0; i < 3; ++i) det.observe(kBucket, kSlow, 2.0, /*chosen=*/true);
  EXPECT_GT(det.window_size(), 0u);

  det.rearm();
  EXPECT_EQ(det.window_size(), 0u);
  EXPECT_FALSE(det.consume_fire());
  // Baselines survive: they are the evidence the next detection needs.
  EXPECT_DOUBLE_EQ(det.baseline(kBucket, kSlow), 2.0);
}

TEST(DriftDetectorNoise, TrulyFastestChoiceUnderNoiseNeverFires) {
  // The chosen variant really is the fastest; the alternative's mean is 1.3x.
  // Jitter and stalls put single launches far above the alternative's mean,
  // but the chosen baseline never rises past it by more than the two
  // deviation bands, so not one regret sample is positive.
  DriftDetector det(small_config());
  Noise noise;
  warm_baselines(det, noise, /*fast_mean=*/1.0, /*slow_mean=*/1.3);
  double max_regret = 0.0;
  for (int i = 0; i < 2000; ++i) {
    if (i % kExploreEvery == 0) det.observe(kBucket, kSlow, 1.3 * noise(), /*chosen=*/false);
    det.observe(kBucket, kFast, 1.0 * noise(), /*chosen=*/true);
    max_regret = std::max(max_regret, det.mean_regret());
  }
  EXPECT_EQ(det.fires(), 0u);
  EXPECT_EQ(max_regret, 0.0);
}

TEST(DriftDetectorNoise, TwiceSlowerChoiceUnderNoiseFiresWithinOneWindow) {
  // Same noise, but the chosen variant's mean is 2x the alternative's: the
  // gap between baselines exceeds both bands and drift fires within one
  // window of chosen launches.
  DriftDetector det(small_config());
  Noise noise;
  warm_baselines(det, noise, /*fast_mean=*/1.0, /*slow_mean=*/2.0);
  std::size_t chosen = 0;
  while (chosen < det.config().window && !det.consume_fire()) {
    if (chosen % kExploreEvery == 0) det.observe(kBucket, kFast, 1.0 * noise(), /*chosen=*/false);
    det.observe(kBucket, kSlow, 2.0 * noise(), /*chosen=*/true);
    ++chosen;
  }
  EXPECT_EQ(det.fires(), 1u);
}

TEST(DriftDetectorNoise, OneObservationOfAnotherVariantIsEnoughEvidence) {
  DriftDetector det(small_config());
  // Only the chosen variant so far: nothing to regret against.
  for (int i = 0; i < 20; ++i) det.observe(kBucket, kSlow, 2.0, /*chosen=*/true);
  ASSERT_EQ(det.fires(), 0u);

  // A single explored launch of a twice-faster variant is scored against
  // right away: the regret window fills and fires within one window.
  det.observe(kBucket, kFast, 1.0, /*chosen=*/false);
  std::size_t chosen = 0;
  while (chosen < small_config().window && !det.consume_fire()) {
    det.observe(kBucket, kSlow, 2.0, /*chosen=*/true);
    ++chosen;
  }
  EXPECT_EQ(det.fires(), 1u);
}

TEST(DriftDetectorNoise, ChosenVariantIsNotItsOwnBest) {
  // The chosen variant's own baseline never serves as `best`: a chosen
  // launch slower than its own mean, with no other variant known, scores
  // zero; beside a faster variant it scores the gap between the two means.
  DriftDetector det(small_config());
  det.observe(kBucket, kSlow, 1.0, /*chosen=*/true);
  det.observe(kBucket, kSlow, 1.0, /*chosen=*/true);
  det.observe(kBucket, kSlow, 3.0, /*chosen=*/true);
  EXPECT_DOUBLE_EQ(det.mean_regret(), 0.0);

  DriftDetector gap(small_config());
  gap.observe(kBucket, kFast, 1.0, /*chosen=*/false);
  gap.observe(kBucket, kSlow, 1.5, /*chosen=*/true);
  EXPECT_DOUBLE_EQ(gap.mean_regret(), 0.5);  // (1.5 - 1.0 - 0 - 0) / 1.0
}

TEST(DriftDetectorNoise, DeviationBandsShrinkTheGap) {
  DriftDetector det(small_config());
  // Fast: mean 1.0, then 1.4 -> dev 0.25 * |1.4 - 1.0| = 0.1, mean 1.1.
  det.observe(kBucket, kFast, 1.0, /*chosen=*/false);
  det.observe(kBucket, kFast, 1.4, /*chosen=*/false);
  EXPECT_DOUBLE_EQ(det.baseline(kBucket, kFast), 1.1);
  // Slow (chosen, first sight): mean 2.0, dev 0.
  det.observe(kBucket, kSlow, 2.0, /*chosen=*/true);
  EXPECT_DOUBLE_EQ(det.mean_regret(), (2.0 - 1.1 - 0.1) / 1.1);
}
