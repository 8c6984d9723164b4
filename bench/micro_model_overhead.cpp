// SIII microbenchmark: the per-launch cost of evaluating Apollo's decision
// models. The design goal is "only a few conditional evaluations" — cheap
// enough to run at every kernel launch in a code making thousands of
// decisions per timestep.

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <random>

#include "apps/cleverleaf/cleverleaf.hpp"
#include "core/runtime.hpp"
#include "core/trainer.hpp"
#include "ml/codegen.hpp"
#include "ml/decision_tree.hpp"
#include "perf/blackboard.hpp"

using namespace apollo;

namespace {

ml::Dataset synthetic_dataset(std::size_t rows) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> dist(0, 100000);
  ml::Dataset d({"num_indices", "func_size", "timestep", "movsd", "num_segments"},
                {"seq", "omp"});
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> row{dist(rng), dist(rng) / 500.0, dist(rng) / 1000.0, dist(rng) / 2000.0,
                            1.0 + dist(rng) / 30000.0};
    const int label = (row[0] > 19965.5) != (row[3] > 20.0 && row[0] < 40000) ? 1 : 0;
    d.add_row(std::move(row), label);
  }
  return d;
}

const ml::DecisionTree& tree_of_depth(int depth) {
  static std::map<int, ml::DecisionTree> cache;
  auto it = cache.find(depth);
  if (it == cache.end()) {
    ml::TreeParams params;
    params.max_depth = depth;
    params.min_samples_leaf = 1;
    it = cache.emplace(depth, ml::DecisionTree::fit(synthetic_dataset(20000), params)).first;
  }
  return it->second;
}

void InterpretedTreePredict(benchmark::State& state) {
  const ml::DecisionTree& tree = tree_of_depth(static_cast<int>(state.range(0)));
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(0, 100000);
  double features[5];
  for (double& f : features) f = dist(rng);
  for (auto _ : state) {
    features[0] = dist(rng);
    benchmark::DoNotOptimize(tree.predict(features));
  }
  state.SetLabel("depth=" + std::to_string(tree.depth()) +
                 " nodes=" + std::to_string(tree.node_count()));
}
BENCHMARK(InterpretedTreePredict)->Arg(5)->Arg(15)->Arg(25);

void CompiledTreePredict(benchmark::State& state) {
  const ml::DecisionTree& tree = tree_of_depth(15);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "apollo_bench_codegen").string();
  std::filesystem::create_directories(dir);
  static const ml::CompiledPredictor predictor = ml::CompiledPredictor::compile(
      ml::generate_cpp(tree, "bench_model"), "bench_model", dir);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(0, 100000);
  double features[5];
  for (double& f : features) f = dist(rng);
  for (auto _ : state) {
    features[0] = dist(rng);
    benchmark::DoNotOptimize(predictor.predict(features));
  }
}
BENCHMARK(CompiledTreePredict);

void FullTunerDecision(benchmark::State& state) {
  // End-to-end apollo::begin cost in Tune mode: resolver + encode + tree.
  auto& rt = Runtime::instance();
  rt.reset();
  rt.set_mode(Mode::Record);
  static const KernelHandle kernel{"bench:decision", "BenchKernel",
                                   instr::MixBuilder{}.fp(4).load(2).build(), 32};
  forall(kernel, 100, [](raja::Index) {});
  forall(kernel, 50000, [](raja::Index) {});
  ml::TreeParams params;
  params.min_samples_leaf = 1;
  params.min_samples_split = 2;
  rt.set_policy_model(Trainer::train(rt.records(), TunedParameter::Policy, params));
  rt.clear_records();
  rt.set_mode(Mode::Tune);
  const raja::IndexSet iset = raja::IndexSet::range(0, 12345);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.begin(kernel, iset));
  }
  rt.reset();
}
BENCHMARK(FullTunerDecision);

void TrainFromSamples(benchmark::State& state) {
  // The model-generation path every set-up and retrain pays: materialize a
  // fixed Record sweep (12k samples of the CleverLeaf triple-point deck),
  // label it for the policy and chunk models, and fit both trees. Counters
  // give each phase's milliseconds per iteration.
  constexpr std::size_t kSamples = 12000;
  auto& rt = Runtime::instance();
  rt.reset();
  rt.sample_buffer().set_capacity(kSamples);
  rt.set_mode(Mode::Record);
  rt.set_timing_source(TimingSource::Model);
  rt.set_execute_selected(false);
  TrainingConfig training;
  training.sweep_variants = true;
  training.chunk_values = {8, 64, 512};
  rt.set_training_config(training);
  apps::cleverleaf::CleverConfig config;
  config.problem = "triple_point";
  apps::cleverleaf::Simulation sim(config);
  const perf::ScopedAnnotation problem("problem_name", "clover-triple_point");
  const perf::ScopedAnnotation size("problem_size", config.coarse_cells);
  while (rt.record_count() < kSamples) {
    const perf::ScopedAnnotation timestep("timestep", sim.cycle());
    sim.step();
  }
  rt.set_mode(Mode::Off);

  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  };
  double materialize_ms = 0.0, label_ms = 0.0, fit_ms = 0.0;
  for (auto _ : state) {
    auto t0 = Clock::now();
    const std::vector<perf::SampleRecord> records = rt.records();
    materialize_ms += ms_since(t0);
    t0 = Clock::now();
    const LabeledData policy = Trainer::build_labeled_data(records, TunedParameter::Policy);
    const LabeledData chunk = Trainer::build_labeled_data(records, TunedParameter::ChunkSize);
    label_ms += ms_since(t0);
    t0 = Clock::now();
    const TunerModel policy_model = Trainer::train(policy, TunedParameter::Policy);
    const TunerModel chunk_model = Trainer::train(chunk, TunedParameter::ChunkSize);
    fit_ms += ms_since(t0);
    benchmark::DoNotOptimize(policy_model.tree().node_count());
    benchmark::DoNotOptimize(chunk_model.tree().node_count());
  }
  state.counters["materialize_ms"] = benchmark::Counter(materialize_ms, benchmark::Counter::kAvgIterations);
  state.counters["label_ms"] = benchmark::Counter(label_ms, benchmark::Counter::kAvgIterations);
  state.counters["fit_ms"] = benchmark::Counter(fit_ms, benchmark::Counter::kAvgIterations);
  state.SetLabel("samples=" + std::to_string(rt.sample_buffer().size()));
  rt.sample_buffer().set_capacity(online::kDefaultSampleCapacity);
  rt.reset();
}
BENCHMARK(TrainFromSamples)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
