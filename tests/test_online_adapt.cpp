// End-to-end Mode::Adapt test on the deterministic machine-model timing
// source: a model trained on small launches mis-predicts after the workload
// shifts to large sizes; the adaptation loop must notice (drift fire),
// retrain in the background, hot-swap, and start predicting the parallel
// policy — all inside one process, without touching the offline pipeline.

#include <gtest/gtest.h>

#include "core/runtime.hpp"
#include "core/trainer.hpp"

using namespace apollo;

namespace {

const KernelHandle& stream_kernel() {
  static const KernelHandle k{"test:adapt", "AdaptStream",
                              instr::MixBuilder{}.fp(2).load(2).store(1).build(), 24};
  return k;
}

void launch(std::int64_t size) {
  auto& rt = Runtime::instance();
  const raja::IndexSet iset = raja::IndexSet::range(0, size);
  const ModelParams params = rt.begin(stream_kernel(), iset);
  rt.end(stream_kernel(), iset, params);
}

/// Policy-only model fitted to small launches (seq is right for all of them).
TunerModel small_regime_model() {
  auto& rt = Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(Mode::Record);
  TrainingConfig config;
  config.chunk_values.clear();
  rt.set_training_config(config);
  for (std::int64_t size : {500, 1000, 2000, 4000}) {
    for (int i = 0; i < 4; ++i) launch(size);
  }
  return Trainer::train(rt.records(), TunedParameter::Policy);
}

class AdaptModeTest : public ::testing::Test {
protected:
  void TearDown() override { Runtime::instance().reset(); }
};

}  // namespace

TEST_F(AdaptModeTest, RecoversFromWorkloadShiftViaHotSwap) {
  const TunerModel stale = small_regime_model();

  auto& rt = Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(Mode::Adapt);

  online::OnlineConfig config;
  config.sample_stride = 2;
  config.min_retrain_samples = 24;
  config.post_drift_samples = 12;
  config.drift.window = 24;
  config.drift.min_samples = 6;
  config.drift.cooldown = 32;
  config.explorer.epsilon = 0.10;
  config.explorer.boosted_epsilon = 0.40;
  rt.configure_online(config);
  rt.set_policy_model(stale);

  // Small regime: the stale model is right, nothing should fire.
  for (int i = 0; i < 60; ++i) launch(2000);
  EXPECT_EQ(rt.online().status().drift_fires, 0u);

  // Shift to sizes far past the seq/omp crossover. The stale model keeps
  // predicting seq; drift must fire and a retrain must land.
  for (int i = 0; i < 400 && rt.online().status().model_version == 0; ++i) {
    launch(200000);
  }
  rt.online().wait_retrain_idle();

  const auto status = rt.online().status();
  EXPECT_GE(status.drift_fires, 1u);
  EXPECT_GE(status.retrains_completed, 1u);
  EXPECT_EQ(status.retrains_failed, 0u);
  ASSERT_GE(status.model_version, 1u);

  // After one more launch begin() notices the published version and
  // hot-swaps; large launches must now be predicted parallel.
  launch(200000);
  const raja::IndexSet big = raja::IndexSet::range(0, 200000);
  const ModelParams params = rt.begin(stream_kernel(), big);
  rt.end(stream_kernel(), big, params);
  EXPECT_EQ(params.policy, raja::PolicyType::seq_segit_omp_parallel_for_exec);
}

TEST_F(AdaptModeTest, CorrectModelUnderNoisyTimingsNeverFiresDrift) {
  // The model is right for this regime (seq on small launches); only the
  // measurements are noisy. Noise alone must not read as drift: no fire, and
  // the explorer never leaves its base rate.
  const TunerModel model = small_regime_model();

  auto& rt = Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(Mode::Adapt);
  sim::MachineConfig noisy;
  noisy.noise_sigma = 0.60;  // 10x the default: wall-clock noise on µs launches
  rt.set_machine(sim::MachineModel(noisy));

  online::OnlineConfig config;
  config.explorer.epsilon = 0.10;
  rt.configure_online(config);
  rt.set_policy_model(model);

  bool boosted = false;
  for (int i = 0; i < 1500; ++i) {
    launch(i % 3 == 0 ? 1000 : (i % 3 == 1 ? 2000 : 4000));
    boosted = boosted || rt.online().status().exploring_boosted;
  }
  const auto status = rt.online().status();
  EXPECT_GT(status.explorations, 0u);
  EXPECT_EQ(status.drift_fires, 0u);
  EXPECT_FALSE(boosted);
}

TEST_F(AdaptModeTest, StridedSamplingAndExploredLaunchesFillBuffer) {
  auto& rt = Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(Mode::Adapt);

  online::OnlineConfig config;
  config.sample_stride = 4;
  config.retrain_every = 0;  // no retraining; watch the sampling only
  config.explorer.epsilon = 0.0;
  rt.configure_online(config);

  for (int i = 0; i < 40; ++i) launch(1000);
  // Every 4th predicted launch is recorded; no exploration is running.
  EXPECT_EQ(rt.record_count(), 10u);
  EXPECT_EQ(rt.online().status().explorations, 0u);
}

TEST_F(AdaptModeTest, ConfigureOnlineResetsState) {
  auto& rt = Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(Mode::Adapt);

  online::OnlineConfig config;
  config.explorer.epsilon = 0.5;
  rt.configure_online(config);
  for (int i = 0; i < 50; ++i) launch(1000);
  EXPECT_GT(rt.online().status().explorations, 0u);

  config.explorer.epsilon = 0.0;
  rt.configure_online(config);
  EXPECT_EQ(rt.online().status().explorations, 0u);
  EXPECT_EQ(rt.online().status().launches, 0u);
}
