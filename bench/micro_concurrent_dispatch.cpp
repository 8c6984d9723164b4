// Concurrent-dispatch microbenchmark: N application threads x M kernels
// through the full apollo::forall hooks, in all four runtime modes. This is
// the scaling proof for the KernelContext decomposition — with per-kernel
// stats shards and the RCU model snapshot, tuned-dispatch throughput must
// scale with the thread count instead of serializing on a runtime-wide lock
// (CI gates on >= 3x items/s at 8 threads vs 1 for the tuned path).
//
// Google Benchmark's threaded mode supplies the barrier semantics: every
// thread runs the same loop, thread 0 performs setup/teardown outside the
// timed region, and items/s is summed across threads via SetItemsProcessed.

#include <benchmark/benchmark.h>

#include "core/runtime.hpp"
#include "core/trainer.hpp"

namespace {

constexpr int kKernels = 8;
constexpr std::int64_t kN = 512;

const apollo::KernelHandle& kernel_at(int k) {
  static const apollo::KernelHandle kernels[kKernels] = {
      {"conc:k0", "Conc0", apollo::instr::MixBuilder{}.fp(2).load(2).store(1).build(), 24},
      {"conc:k1", "Conc1", apollo::instr::MixBuilder{}.fp(4).load(1).store(1).build(), 16},
      {"conc:k2", "Conc2", apollo::instr::MixBuilder{}.fp(1).load(3).store(2).build(), 40},
      {"conc:k3", "Conc3", apollo::instr::MixBuilder{}.fp(8).div(1).load(2).store(1).build(), 24},
      {"conc:k4", "Conc4", apollo::instr::MixBuilder{}.fp(3).load(2).store(2).build(), 32},
      {"conc:k5", "Conc5", apollo::instr::MixBuilder{}.fp(6).load(4).store(1).build(), 48},
      {"conc:k6", "Conc6", apollo::instr::MixBuilder{}.fp(2).div(1).load(1).store(1).build(), 16},
      {"conc:k7", "Conc7", apollo::instr::MixBuilder{}.fp(5).load(3).store(3).build(), 56},
  };
  return kernels[k];
}

const apollo::TunerModel& concurrent_model() {
  static const apollo::TunerModel model = [] {
    auto& rt = apollo::Runtime::instance();
    rt.reset();
    rt.set_execute_selected(false);
    rt.set_mode(apollo::Mode::Record);
    apollo::TrainingConfig training;
    training.chunk_values.clear();
    rt.set_training_config(training);
    for (int step = 0; step < 8; ++step) {
      for (int k = 0; k < kKernels; ++k) {
        apollo::forall(kernel_at(k), raja::IndexSet::range(0, kN), [](raja::Index) {});
      }
    }
    auto trained = apollo::Trainer::train(rt.records(), apollo::TunedParameter::Policy);
    rt.reset();
    return trained;
  }();
  return model;
}

/// The measured loop: each thread drives a disjoint slice of the kernel set
/// (different kernels never share a shard), cycling through its slice.
void dispatch_loop(benchmark::State& state) {
  const int threads = state.threads();
  const int per_thread = kKernels / threads > 0 ? kKernels / threads : 1;
  const int base = (state.thread_index() * per_thread) % kKernels;
  const raja::IndexSet iset = raja::IndexSet::range(0, kN);
  int slot = 0;
  for (auto _ : state) {
    apollo::forall(kernel_at(base + (slot++ % per_thread)), iset, [](raja::Index) {});
  }
  state.SetItemsProcessed(state.iterations());
}

void ConcurrentDispatchOff(benchmark::State& state) {
  if (state.thread_index() == 0) {
    auto& rt = apollo::Runtime::instance();
    rt.reset();
    rt.set_execute_selected(false);
  }
  dispatch_loop(state);
  if (state.thread_index() == 0) apollo::Runtime::instance().reset();
}
BENCHMARK(ConcurrentDispatchOff)->ThreadRange(1, 8)->UseRealTime();

void ConcurrentDispatchRecord(benchmark::State& state) {
  if (state.thread_index() == 0) {
    auto& rt = apollo::Runtime::instance();
    rt.reset();
    rt.set_execute_selected(false);
    rt.set_mode(apollo::Mode::Record);
    apollo::TrainingConfig training;
    training.sweep_variants = false;
    rt.set_training_config(training);
  }
  dispatch_loop(state);
  if (state.thread_index() == 0) apollo::Runtime::instance().reset();
}
BENCHMARK(ConcurrentDispatchRecord)->ThreadRange(1, 8)->UseRealTime();

void ConcurrentDispatchTune(benchmark::State& state) {
  if (state.thread_index() == 0) {
    const auto& model = concurrent_model();
    auto& rt = apollo::Runtime::instance();
    rt.reset();
    rt.set_execute_selected(false);
    rt.set_mode(apollo::Mode::Tune);
    rt.set_policy_model(model);
  }
  dispatch_loop(state);
  if (state.thread_index() == 0) apollo::Runtime::instance().reset();
}
BENCHMARK(ConcurrentDispatchTune)->ThreadRange(1, 8)->UseRealTime();

void ConcurrentDispatchTunePointer(benchmark::State& state) {
  // Uncached tuned dispatch: a tree walk on every launch, inline cache off.
  // The CI overhead gate compares the tuned path above against this baseline
  // at 1 and 8 threads.
  if (state.thread_index() == 0) {
    const auto& model = concurrent_model();
    auto& rt = apollo::Runtime::instance();
    rt.reset();
    rt.set_execute_selected(false);
    rt.set_mode(apollo::Mode::Tune);
    rt.set_policy_model(model);
    rt.set_inline_cache_enabled(false);
  }
  dispatch_loop(state);
  if (state.thread_index() == 0) apollo::Runtime::instance().reset();
}
BENCHMARK(ConcurrentDispatchTunePointer)->ThreadRange(1, 8)->UseRealTime();

void ConcurrentDispatchAdapt(benchmark::State& state) {
  if (state.thread_index() == 0) {
    const auto& model = concurrent_model();
    auto& rt = apollo::Runtime::instance();
    rt.reset();
    rt.set_execute_selected(false);
    rt.set_mode(apollo::Mode::Adapt);
    rt.sample_buffer().set_capacity(4096);
    apollo::online::OnlineConfig config;
    config.retrain_every = 4096;
    config.min_retrain_samples = 64;
    rt.configure_online(config);
    rt.set_policy_model(model);
  }
  dispatch_loop(state);
  if (state.thread_index() == 0) apollo::Runtime::instance().reset();
}
BENCHMARK(ConcurrentDispatchAdapt)->ThreadRange(1, 8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
