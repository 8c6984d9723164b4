// ext_online_adapt: time-to-recover after a workload shift (extension).
//
// The paper trains offline and deploys a frozen model; its conclusion points
// at "dynamically updating models based on the behavior of the application"
// as future work. This experiment quantifies the gap the src/online subsystem
// closes. A policy model is trained on a small-iteration regime (where
// sequential execution wins), then the workload shifts to large iteration
// counts (where OpenMP wins ~4x). Three configurations run the same launch
// sequence on the simulated machine:
//
//   oracle  — per launch, the cheaper of {seq, omp} priced deterministically;
//   frozen  — Mode::Tune with the offline model: stays pinned to seq forever;
//   adapt   — Mode::Adapt with the same offline model: exploration feeds the
//             drift detector, a background retrain relabels the shifted
//             region, and the registry hot-swaps the new model mid-run.
//
// Reported: mean per-launch cost vs oracle in windows across the shift, the
// launch at which the hot-swap landed, and the steady-state ratio after it
// (acceptance: the hot-swap lands within 60 launches of the shift and adapt
// settles within 10% of oracle while frozen stays stale).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "core/runtime.hpp"
#include "core/trainer.hpp"
#include "perf/blackboard.hpp"

using namespace apollo;

namespace {

const KernelHandle& stream_kernel() {
  static const KernelHandle k{"adapt:stream", "StreamKernel",
                              instr::MixBuilder{}.fp(2).load(2).store(1).build(), 24};
  return k;
}

constexpr std::size_t kPreLaunches = 150;   // small-size regime (matches training)
constexpr std::size_t kPostLaunches = 450;  // shifted large-size regime
constexpr std::size_t kMaxSwapDelay = 60;   // launches from the shift to the hot-swap

std::int64_t size_at(std::size_t launch) {
  static const std::int64_t small[] = {2000, 4000, 8000};
  static const std::int64_t large[] = {150000, 250000};
  return launch < kPreLaunches ? small[launch % 3] : large[launch % 2];
}

double oracle_cost(std::int64_t size) {
  const auto& rt = Runtime::instance();
  sim::CostQuery query;
  query.num_indices = size;
  query.num_segments = 1;
  query.mix = stream_kernel().mix();
  query.bytes_per_iteration = stream_kernel().bytes_per_iteration();
  query.threads = rt.machine().config().cores;
  query.kernel_seed = std::hash<std::string>{}(stream_kernel().loop_id());
  query.policy = sim::PolicyKind::Sequential;
  const double seq = rt.machine().cost_seconds(query);
  query.policy = sim::PolicyKind::OpenMP;
  const double omp = rt.machine().cost_seconds(query);
  return std::min(seq, omp);
}

TunerModel train_offline_model() {
  auto& rt = Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(Mode::Record);
  TrainingConfig training;
  training.chunk_values.clear();  // policy-only corpus: {seq, omp} per launch
  rt.set_training_config(training);
  for (std::int64_t size : {1000, 2000, 4000, 8000, 12000}) {
    for (int step = 0; step < 8; ++step) {
      apollo::forall(stream_kernel(), raja::IndexSet::range(0, size), [](raja::Index) {});
    }
  }
  TunerModel model = Trainer::train(rt.records(), TunedParameter::Policy);
  rt.reset();
  return model;
}

online::OnlineConfig adapt_config() {
  online::OnlineConfig config;
  config.sample_stride = 4;
  config.min_retrain_samples = 32;
  config.post_drift_samples = 16;
  config.drift.window = 32;
  config.drift.min_samples = 8;
  config.drift.cooldown = 48;
  config.explorer.epsilon = 0.05;
  config.explorer.boosted_epsilon = 0.40;
  return config;
}

struct PassResult {
  std::vector<double> launch_cost;       ///< charged seconds per launch
  std::size_t swap_launch = 0;           ///< first launch served by a retrained model
  online::OnlineTuner::Status status{};  ///< final adapt counters (adapt pass only)
};

PassResult run_pass(Mode mode, const TunerModel& offline_model) {
  auto& rt = Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(mode);
  if (mode == Mode::Adapt) rt.configure_online(adapt_config());
  rt.set_policy_model(offline_model);

  PassResult result;
  result.launch_cost.reserve(kPreLaunches + kPostLaunches);
  for (std::size_t launch = 0; launch < kPreLaunches + kPostLaunches; ++launch) {
    const double before = rt.stats().total_seconds;
    apollo::forall(stream_kernel(), raja::IndexSet::range(0, size_at(launch)), [](raja::Index) {});
    result.launch_cost.push_back(rt.stats().total_seconds - before);
    if (mode == Mode::Adapt) {
      // forall never blocks on retraining; the bench waits here so the swap
      // lands at a reproducible launch index for the report below.
      if (rt.online().status().retrain_in_flight) rt.online().wait_retrain_idle();
      if (result.swap_launch == 0 && rt.online().status().model_version > 0) {
        result.swap_launch = launch + 1;  // next launch predicts with the new model
      }
    }
  }
  if (mode == Mode::Adapt) {
    result.status = rt.online().status();
    rt.online().wait_retrain_idle();
  }
  rt.reset();
  return result;
}

double window_mean(const std::vector<double>& costs, std::size_t begin, std::size_t end) {
  double sum = 0.0;
  for (std::size_t i = begin; i < end && i < costs.size(); ++i) sum += costs[i];
  return end > begin ? sum / static_cast<double>(end - begin) : 0.0;
}

}  // namespace

int main() {
  bench::print_heading("Online adaptation: recovery after a workload shift",
                       "extension of SVI (conclusion: dynamically updating models)");

  const TunerModel offline_model = train_offline_model();
  std::vector<double> oracle;
  oracle.reserve(kPreLaunches + kPostLaunches);
  for (std::size_t launch = 0; launch < kPreLaunches + kPostLaunches; ++launch) {
    oracle.push_back(oracle_cost(size_at(launch)));
  }

  const PassResult frozen = run_pass(Mode::Tune, offline_model);
  const PassResult adapt = run_pass(Mode::Adapt, offline_model);

  std::printf("launches: %zu small-regime + %zu after shift to large sizes\n\n",
              kPreLaunches, kPostLaunches);
  std::printf("%-24s %12s %10s %10s\n", "window (launch range)", "oracle us", "frozen x",
              "adapt x");
  const std::size_t window = 75;  // divides kPreLaunches: windows align with the shift
  for (std::size_t begin = 0; begin < kPreLaunches + kPostLaunches; begin += window) {
    const std::size_t end = std::min(begin + window, kPreLaunches + kPostLaunches);
    const double oracle_mean = window_mean(oracle, begin, end);
    std::printf("%6zu..%-6zu %s %12s %9sx %9sx\n", begin, end,
                begin >= kPreLaunches ? "(shifted)" : "         ",
                bench::fmt(oracle_mean * 1e6, 2).c_str(),
                bench::fmt(window_mean(frozen.launch_cost, begin, end) / oracle_mean, 2).c_str(),
                bench::fmt(window_mean(adapt.launch_cost, begin, end) / oracle_mean, 2).c_str());
  }

  const auto& st = adapt.status;
  std::printf("\nadapt events: drift fires=%llu retrains=%llu (failed=%llu) "
              "explorations=%llu vetoed=%llu model version=%llu\n",
              static_cast<unsigned long long>(st.drift_fires),
              static_cast<unsigned long long>(st.retrains_completed),
              static_cast<unsigned long long>(st.retrains_failed),
              static_cast<unsigned long long>(st.explorations),
              static_cast<unsigned long long>(st.exploration_vetoes),
              static_cast<unsigned long long>(st.model_version));
  if (adapt.swap_launch > 0) {
    std::printf("hot-swap landed at launch %zu (%zu launches after the shift)\n",
                adapt.swap_launch, adapt.swap_launch - kPreLaunches);
  } else {
    std::printf("hot-swap never landed\n");
  }

  // Steady state: the tail of the shifted region, after the swap.
  const std::size_t tail_begin =
      std::max(adapt.swap_launch + 30, kPreLaunches + kPostLaunches - 200);
  const std::size_t total = kPreLaunches + kPostLaunches;
  const double oracle_tail = window_mean(oracle, tail_begin, total);
  const double frozen_ratio = window_mean(frozen.launch_cost, tail_begin, total) / oracle_tail;
  const double adapt_ratio = window_mean(adapt.launch_cost, tail_begin, total) / oracle_tail;
  std::printf("\nsteady state (launches %zu..%zu): frozen %.2fx oracle, adapt %.2fx oracle\n",
              tail_begin, total, frozen_ratio, adapt_ratio);

  const bool swapped_in_time = adapt.swap_launch >= kPreLaunches &&
                               adapt.swap_launch - kPreLaunches <= kMaxSwapDelay;
  const bool recovered = swapped_in_time && adapt_ratio <= 1.10 && frozen_ratio > 1.5;
  std::printf("%s: adapt %s within 10%% of oracle after the shift, hot-swap %s %zu launches "
              "(frozen stays %.1fx)\n",
              recovered ? "PASS" : "FAIL", recovered ? "recovered to" : "did NOT recover to",
              swapped_in_time ? "within" : "NOT within", kMaxSwapDelay, frozen_ratio);
  return recovered ? 0 : 1;
}
