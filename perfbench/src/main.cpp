// apollo_perfbench: wall-clock time to solution of the bundled applications
// under a tuned Apollo runtime, on real cores.
//
//   apollo_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file>] [--perturb <rel>]
//
// One process, one application thread, a closed time-step loop and a
// fork-join team of half the cores (1 or 2 members), spinning up to 5 ms
// between regions unless APOLLO_SPIN_US says otherwise. Set-up trains the policy and
// chunk-size models with a deterministic Record sweep on the machine model,
// publishes them and warms up; it runs three times and the median is
// reported. Then whole solves (a fresh deck stepped a fixed number of steps)
// repeat under TimingSource::Wallclock until --seconds have passed; each
// solve's final state is checked against the same deck run with every launch
// sequential (after the timed loop), and against the deck's conservation
// invariants.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
// traced solves (program telemetry on, benchmark spans recorded) and prints
// the per-layer metrics. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// --perturb scales one value of every solve's final state before the check
// (the benchmark's own test uses it to show the check rejects a wrong state).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "core/trainer.hpp"
#include "decks.hpp"
#include "parallel/thread_pool.hpp"
#include "spans.hpp"
#include "telemetry/build_info.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace apollo;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

/// Team cap: runs on larger hosts stay comparable with 4-core ones.
constexpr unsigned kMaxTeam = 2;
constexpr int kSetupRepeats = 3;
/// Chunk sizes the Record sweep prices for the OpenMP variant.
const std::vector<std::int64_t> kChunkValues = {8, 64, 512};
/// Newest Record-sweep samples the models are fitted on.
constexpr std::size_t kRecordBudget = 12000;
/// Reduction-order tolerance between a tuned and an all-sequential final
/// state: OpenMP sum reductions combine per-member partials in a different
/// order than the sequential loop. Each solve is held to it against the first
/// solve, and the first solve against the reference, so a solve agrees with
/// the reference within twice this tolerance.
constexpr double kStateRtol = 1e-9;
constexpr double kStateAtol = 1e-12;
/// Conservation drift allowed over one solve, relative to the initial totals.
/// Neither miniature conserves exactly: the all-sequential reference itself
/// drifts 4.4-5.0% in LULESH ensemble energy over a 40-step solve and 2.6% in
/// CleverLeaf level-0 totals over 200 steps. The bound catches blow-ups and
/// lost cells; tuning errors are caught by the state comparison above.
constexpr double kConservedTol = 0.10;
/// Program trace events kept for the written trace file.
constexpr std::size_t kKeptEvents = 50000;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/// Linear-interpolated quantile (numpy's default) of an unsorted sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// Quantile of the union of several histograms sharing one set of bounds,
/// interpolated inside the bucket as telemetry::Histogram::quantile does.
double merged_quantile(const std::vector<const telemetry::Histogram*>& hists, double q) {
  if (hists.empty()) return 0.0;
  const std::vector<double>& bounds = hists.front()->bounds();
  std::vector<double> counts(bounds.size() + 1, 0.0);
  double total = 0.0;
  for (const auto* h : hists) {
    for (std::size_t i = 0; i <= bounds.size(); ++i) {
      counts[i] += static_cast<double>(h->bucket(i));
      total += static_cast<double>(h->bucket(i));
    }
  }
  if (total == 0.0) return 0.0;
  const double target = q * total;
  double cumulative = 0.0;
  for (std::size_t i = 0; i <= bounds.size(); ++i) {
    if (counts[i] == 0.0) continue;
    if (cumulative + counts[i] >= target) {
      if (i == bounds.size()) return bounds.back();
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double within = std::clamp((target - cumulative) / counts[i], 0.0, 1.0);
      return lo + (bounds[i] - lo) * within;
    }
    cumulative += counts[i];
  }
  return bounds.back();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
  double perturb = 0.0;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--perturb") {
      args.perturb = std::stod(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || !(args.seconds > 0.0)) {
    throw std::invalid_argument("--workload, --seed and --seconds are required");
  }
  return args;
}

// --- runtime arming ----------------------------------------------------------

/// How a solve drives the runtime.
enum class SolveKind { Tuned, Static, Sequential };

struct Models {
  std::optional<TunerModel> policy;
  std::optional<TunerModel> chunk;
};

/// Reset the runtime and arm it for one solve: wall-clock timing with the
/// selected variant executed for real.
void arm_runtime(SolveKind kind, Mode tuned_mode, const Models& models, unsigned team) {
  auto& rt = Runtime::instance();
  rt.reset();
  rt.set_timing_source(TimingSource::Wallclock);
  rt.set_threads(team);
  if (kind == SolveKind::Tuned) {
    if (models.policy) rt.set_policy_model(*models.policy);
    if (models.chunk) rt.set_chunk_model(*models.chunk);
    rt.set_mode(tuned_mode);
  } else {
    rt.set_mode(Mode::Off);
    if (kind == SolveKind::Sequential) {
      rt.set_default_policy_override(raja::PolicyType::seq_segit_seq_exec);
    }
  }
}

// --- set-up ------------------------------------------------------------------

struct SetupResult {
  Models models;
  double total_s = 0.0;
  double record_s = 0.0;
  double records = 0.0;
  double fit_s = 0.0;
  double publish_ms = 0.0;
};

/// Deck build, deterministic Record sweep (machine-model timing, bodies run
/// sequentially), fit, model publish, warm-up.
SetupResult run_setup(const perfbench::DeckSpec& spec, Mode tuned_mode, unsigned team,
                      SpanRecorder* spans, Clock::time_point start) {
  auto& rt = Runtime::instance();
  SetupResult result;
  const ScopedSpan setup_span(spans, "setup");
  rt.reset();
  std::unique_ptr<perfbench::Deck> deck;
  {
    const ScopedSpan span(spans, "setup.deck");
    deck = perfbench::make_deck(spec.app, spec.train_sizes);
  }
  {
    const ScopedSpan span(spans, "setup.record");
    const auto t0 = Clock::now();
    // A fixed record budget: every seed fits its models on the same number
    // of samples, so set-up time and memory do not depend on the mesh size.
    rt.sample_buffer().set_capacity(kRecordBudget);
    rt.set_mode(Mode::Record);
    rt.set_timing_source(TimingSource::Model);
    rt.set_execute_selected(false);
    rt.set_threads(team);
    TrainingConfig training;
    training.sweep_variants = true;
    training.chunk_values = kChunkValues;
    rt.set_training_config(training);
    for (int s = 0; s < spec.record_steps; ++s) deck->step(nullptr, static_cast<std::uint64_t>(s));
    result.record_s = seconds_since(t0);
  }
  std::vector<perf::SampleRecord> records = rt.records();
  rt.clear_records();
  rt.sample_buffer().set_capacity(online::kDefaultSampleCapacity);
  result.records = static_cast<double>(records.size());
  {
    const ScopedSpan span(spans, "setup.fit");
    const auto t0 = Clock::now();
    result.models.policy = Trainer::train(records, TunedParameter::Policy);
    result.models.chunk = Trainer::train(records, TunedParameter::ChunkSize);
    result.fit_s = seconds_since(t0);
  }
  records.clear();
  records.shrink_to_fit();
  {
    const ScopedSpan span(spans, "setup.publish");
    const auto t0 = Clock::now();
    arm_runtime(SolveKind::Tuned, tuned_mode, result.models, team);
    result.publish_ms = seconds_since(t0) * 1e3;
  }
  {
    const ScopedSpan span(spans, "setup.warmup");
    deck = perfbench::make_deck(spec.app, spec.sizes);
    for (int s = 0; s < spec.warmup_steps; ++s) deck->step(nullptr, static_cast<std::uint64_t>(s));
    if (tuned_mode == Mode::Adapt) rt.online().wait_retrain_idle();
  }
  result.total_s = seconds_since(start);
  return result;
}

// --- solves ------------------------------------------------------------------

/// Per-step trace aggregates (traced solves only).
struct TraceAggregate {
  std::vector<double> step_self_ms;   ///< apps.step span minus covered Launch spans
  std::vector<double> retrain_ms;     ///< Retrain span durations
  double launches = 0.0;              ///< Launch spans seen
  double omp_launches = 0.0;          ///< ... that ran the OpenMP policy
};

struct SolveResult {
  bool ok = true;
  std::string error;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> step_ms;
  RunStats stats;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  par::PoolStats pool{};
  online::OnlineTuner::Status online{};
  std::vector<double> state;
  double mismatch = 0.0;  ///< state_mismatch against the first good solve's final state
  std::vector<double> initial;       ///< conserved totals before the first step
  std::vector<double> final_totals;  ///< ... and after the last
};

par::PoolStats pool_delta(const par::PoolStats& a, const par::PoolStats& b) {
  return {b.launches - a.launches, b.inline_runs - a.inline_runs, b.wakeups - a.wakeups,
          b.spin_completions - a.spin_completions, b.park_completions - a.park_completions};
}

/// Fold the program events drained after one traced step into the aggregate.
void aggregate_step_events(const std::vector<telemetry::TraceEvent>& events,
                           const SpanRecorder::Span& step, TraceAggregate& agg) {
  std::uint64_t covered = 0;
  for (const auto& event : events) {
    if (event.kind == telemetry::EventKind::Launch) {
      agg.launches += 1.0;
      if ((event.arg0 >> 32) ==
          static_cast<std::uint64_t>(raja::PolicyType::seq_segit_omp_parallel_for_exec)) {
        agg.omp_launches += 1.0;
      }
      if (event.ts_ns >= step.start_ns && event.ts_ns < step.end_ns) {
        covered += std::min(event.dur_ns, step.end_ns - event.ts_ns);
      }
    } else if (event.kind == telemetry::EventKind::Retrain) {
      agg.retrain_ms.push_back(static_cast<double>(event.dur_ns) * 1e-6);
    }
  }
  const std::uint64_t span = step.end_ns - step.start_ns;
  agg.step_self_ms.push_back(static_cast<double>(span - std::min(span, covered)) * 1e-6);
}

SolveResult run_solve(const perfbench::DeckSpec& spec, SolveKind kind, Mode tuned_mode,
                      const Models& models, unsigned team, SpanRecorder* spans,
                      TraceAggregate* agg, std::uint64_t solve_id) {
  auto& rt = Runtime::instance();
  SolveResult result;
  arm_runtime(kind, tuned_mode, models, team);
  auto deck = perfbench::make_deck(spec.app, spec.sizes);
  result.initial = deck->invariants();
  result.step_ms.reserve(static_cast<std::size_t>(spec.solve_steps));
  std::vector<telemetry::TraceEvent> events;
  if (spans != nullptr) {
    telemetry::Tracer::instance().drain(events);  // discard anything from before the solve
    events.clear();
    telemetry::set_enabled(true);
  }
  const par::PoolStats pool0 = par::ThreadPool::stats();
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  try {
    const ScopedSpan solve_span(spans, "solve", solve_id);
    for (int s = 0; s < spec.solve_steps; ++s) {
      const auto t0 = Clock::now();
      deck->step(spans, static_cast<std::uint64_t>(s));
      result.step_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      if (spans != nullptr) {
        telemetry::Tracer::instance().drain(events);
        // The step span is the last apps.step the recorder opened.
        const auto& all = spans->spans();
        for (auto it = all.rbegin(); it != all.rend(); ++it) {
          if (std::string_view(it->name) == "apps.step") {
            aggregate_step_events(events, *it, *agg);
            break;
          }
        }
        spans->keep_events(events, kKeptEvents);
        events.clear();
      }
    }
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  result.wall_s = seconds_since(start);
  result.cpu_s = cpu_seconds() - cpu0;
  result.pool = pool_delta(pool0, par::ThreadPool::stats());
  if (kind == SolveKind::Tuned && tuned_mode == Mode::Adapt) {
    rt.online().wait_retrain_idle();
    result.online = rt.online().status();
  }
  if (spans != nullptr) {
    telemetry::set_enabled(false);
    telemetry::Tracer::instance().drain(events);  // retrains that finished after the last step
    for (const auto& event : events) {
      if (event.kind == telemetry::EventKind::Retrain) {
        agg->retrain_ms.push_back(static_cast<double>(event.dur_ns) * 1e-6);
      }
    }
    spans->keep_events(events, kKeptEvents);
  }
  result.stats = rt.stats();
  for (const auto& [loop_id, kernel] : result.stats.per_kernel) {
    const KernelContext& context = rt.context_for_id(loop_id);
    result.cache_hits += static_cast<double>(context.inline_cache_hits());
    result.cache_misses += static_cast<double>(context.inline_cache_misses());
  }
  result.state = deck->state();
  result.final_totals = deck->invariants();
  return result;
}

/// Largest relative drift of a conserved total over the solve (infinite when
/// a total is not finite).
double conservation_drift(const SolveResult& solve) {
  double worst = 0.0;
  for (std::size_t i = 0; i < solve.initial.size(); ++i) {
    const double before = solve.initial[i];
    const double drift = std::fabs(solve.final_totals[i] - before) / std::fabs(before);
    worst = std::isfinite(drift) ? std::max(worst, drift) : HUGE_VAL;
  }
  return worst;
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  perfbench::DeckSpec spec;
  try {
    args = parse_args(argc, argv);
    spec = perfbench::deck_spec(args.workload, args.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apollo_perfbench: %s\n", e.what());
    return 2;
  }
  const Mode tuned_mode = args.workload == "clover-amr-adapt" ? Mode::Adapt : Mode::Tune;

  // The pool is sized from APOLLO_NUM_THREADS on first use.
  const unsigned cores = nproc();
  // Half the cores: the rest absorb the host's own work. With every core in
  // the team (3 workers spinning beside the application thread on a 4-vCPU
  // guest) the hypervisor stole 2-3 times as much time, and a solve's median
  // moved by up to 35% between runs a minute apart, against 15% with a team
  // of two.
  const unsigned team = std::clamp(cores / 2, 1u, kMaxTeam);
  setenv("APOLLO_NUM_THREADS", std::to_string(team).c_str(), 1);
  // Workers spin up to 5 ms for the next region (an HPC "active" wait
  // policy) unless the environment says otherwise. Measured with a team of
  // 4: with the pool's 50 us default the gaps between CleverLeaf's fork-join
  // launches straddle the budget, and solve time flipped between two modes
  // (0.27 and 0.51 s) from run to run. Parking at once exposes every launch
  // to the host's wake-up latency: Adapt solves took 0.85-0.95 s against
  // 0.45 s spinning, and wall time exceeded process CPU time by up to 25% on
  // a busy host. The cores the spinning burns show in cpu_s.
  setenv("APOLLO_SPIN_US", "5000", 0);
  {
    telemetry::Config config;
    config.trace_file.clear();
    config.decisions_file.clear();
    config.flush_interval_seconds = 0.0;
    config.ring_capacity = std::size_t{1} << 16;  // one step's events fit between drains
    telemetry::configure(config);
  }
  telemetry::set_enabled(false);

  SpanRecorder recorder;
  SpanRecorder* spans = args.trace ? &recorder : nullptr;

  // Set-up, several times: the first is timed from process start.
  std::vector<SetupResult> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setups.push_back(run_setup(spec, tuned_mode, team, spans,
                               r == 0 ? g_process_start : Clock::now()));
  }
  const Models& models = setups.back().models;
  const auto metric_of_setups = [&](double SetupResult::*field) {
    std::vector<double> v;
    for (const auto& s : setups) v.push_back(s.*field);
    return median(v);
  };

  // Timed solves. The traced run alternates untraced and traced solves so the
  // tracing overhead is measured under the same conditions.
  std::vector<SolveResult> base;    // untraced
  std::vector<SolveResult> traced;  // telemetry on + benchmark spans
  TraceAggregate agg;
  // One final state is kept: later solves are compared with the first good
  // one as they finish, so memory does not grow with the number of solves.
  std::vector<double> first_state;
  const auto loop_start = Clock::now();
  std::uint64_t solve_id = 0;
  while (base.empty() || (args.trace && traced.empty()) ||
         seconds_since(loop_start) < args.seconds) {
    const bool traced_solve = args.trace && (solve_id % 2 == 1);
    SolveResult r = run_solve(spec, SolveKind::Tuned, tuned_mode, models, team,
                              traced_solve ? spans : nullptr, &agg, solve_id);
    if (args.perturb != 0.0 && !r.state.empty()) {
      double& value = r.state[r.state.size() / 2];
      value += args.perturb * (std::fabs(value) + 1.0);
    }
    if (first_state.empty() && r.ok) {
      first_state = std::move(r.state);
    } else {
      r.mismatch = perfbench::state_mismatch(r.state, first_state, kStateRtol, kStateAtol);
    }
    // Free the state: `r.state = {}` would keep its capacity, and a LULESH
    // run's peak RSS grew 10 MB with every solve it fitted in.
    r.state = std::vector<double>();
    (traced_solve ? traced : base).push_back(std::move(r));
    ++solve_id;
  }

  // Reference: the same deck with every launch sequential; in the traced run
  // also the shipped static defaults (Fig. 11's baseline).
  const SolveResult reference =
      run_solve(spec, SolveKind::Sequential, tuned_mode, models, team, nullptr, nullptr, solve_id++);
  std::optional<SolveResult> static_solve;
  if (args.trace) {
    static_solve =
        run_solve(spec, SolveKind::Static, tuned_mode, models, team, nullptr, nullptr, solve_id++);
  }

  // Output check.
  double worst_drift = conservation_drift(reference);
  bool correct = reference.ok && worst_drift <= kConservedTol;
  if (!correct) {
    std::fprintf(stderr, "apollo_perfbench: sequential reference failed: %s\n",
                 reference.error.c_str());
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const double first_vs_reference =
      perfbench::state_mismatch(first_state, reference.state, kStateRtol, kStateAtol);
  double worst_mismatch = 0.0;
  for (auto* group : {&base, &traced}) {
    for (SolveResult& solve : *group) {
      const auto steps = static_cast<std::uint64_t>(spec.solve_steps);
      const std::uint64_t retrains = solve.online.retrains_completed + solve.online.retrains_failed;
      attempted += steps + retrains;
      failed += solve.online.retrains_failed;
      const double mismatch = std::max(solve.mismatch, first_vs_reference);
      worst_mismatch = std::max(worst_mismatch, mismatch);
      const double drift = conservation_drift(solve);
      worst_drift = std::max(worst_drift, drift);
      const bool solve_ok = solve.ok && mismatch <= 1.0 && drift <= kConservedTol;
      if (!solve_ok) {
        failed += steps;
        correct = false;
        std::fprintf(stderr,
                     "apollo_perfbench: solve failed the output check (%s; state mismatch %.3g, "
                     "conservation drift %.3g)\n",
                     solve.error.empty() ? "no exception" : solve.error.c_str(), mismatch, drift);
      }
    }
  }

  // End-to-end figures from the untraced solves.
  std::vector<double> walls, cpus, steps_ms;
  for (const auto& s : base) {
    walls.push_back(s.wall_s);
    cpus.push_back(s.cpu_s);
    steps_ms.insert(steps_ms.end(), s.step_ms.begin(), s.step_ms.end());
  }
  const double solve_s = median(walls);
  const double failed_frac =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"solve_s", solve_s, "s"},
        {"step_ms_p50", quantile(steps_ms, 0.5), "ms"},
        {"step_ms_p90", quantile(steps_ms, 0.9), "ms"},
        {"cpu_s", median(cpus), "s"},
        {"setup_s", metric_of_setups(&SetupResult::total_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"ok_frac", 1.0 - failed_frac, "fraction"},
    };
  } else {
    // Per-layer figures: counters that are always on come from the untraced
    // solves, span-derived ones from the traced solves.
    std::vector<double> outside_ns, decide_p50, decide_p99, kernel_s, launch_p99, launches,
        hit_frac, forkjoin, inline_runs, wakeups_per, park_frac, explore, drift, retrains,
        retrains_failed, swaps;
    for (const auto& s : base) {
      const auto n = static_cast<double>(s.stats.invocations);
      outside_ns.push_back(n > 0 ? (s.wall_s - s.stats.total_seconds) / n * 1e9 : 0.0);
      decide_p50.push_back(s.stats.decision_latency.quantile(0.5) * 1e9);
      decide_p99.push_back(s.stats.decision_latency.quantile(0.99) * 1e9);
      kernel_s.push_back(s.stats.total_seconds);
      std::vector<const telemetry::Histogram*> hists;
      for (const auto& [id, k] : s.stats.per_kernel) hists.push_back(&k.launch_seconds);
      launch_p99.push_back(merged_quantile(hists, 0.99) * 1e6);
      launches.push_back(n);
      const double lookups = s.cache_hits + s.cache_misses;
      hit_frac.push_back(lookups > 0 ? s.cache_hits / lookups : 0.0);
      const auto fj = static_cast<double>(s.pool.launches);
      forkjoin.push_back(fj);
      inline_runs.push_back(static_cast<double>(s.pool.inline_runs));
      wakeups_per.push_back(fj > 0 ? static_cast<double>(s.pool.wakeups) / fj : 0.0);
      const double waits = static_cast<double>(s.pool.spin_completions + s.pool.park_completions);
      park_frac.push_back(waits > 0 ? static_cast<double>(s.pool.park_completions) / waits : 0.0);
      const auto ol = static_cast<double>(s.online.launches);
      explore.push_back(ol > 0 ? static_cast<double>(s.online.explorations) / ol : 0.0);
      drift.push_back(static_cast<double>(s.online.drift_fires));
      retrains.push_back(static_cast<double>(s.online.retrains_completed));
      retrains_failed.push_back(static_cast<double>(s.online.retrains_failed));
      swaps.push_back(static_cast<double>(s.online.model_version));
    }
    std::vector<double> traced_walls;
    for (const auto& s : traced) traced_walls.push_back(s.wall_s);
    const double static_s = static_solve ? static_solve->wall_s : 0.0;
    metrics = {
        {"core.outside_kernel_ns_per_launch", median(outside_ns), "ns"},
        {"core.decide_ns_p50", median(decide_p50), "ns"},
        {"core.decide_ns_p99", median(decide_p99), "ns"},
        {"core.inline_cache_hit_frac", median(hit_frac), "fraction"},
        {"core.omp_frac", agg.launches > 0 ? agg.omp_launches / agg.launches : 0.0, "fraction"},
        {"core.launches", median(launches), "count"},
        {"core.launches_per_step", median(launches) / spec.solve_steps, "count"},
        {"raja.kernel_s", median(kernel_s), "s"},
        {"raja.launch_us_p99", median(launch_p99), "us"},
        {"parallel.forkjoin_launches", median(forkjoin), "count"},
        {"parallel.inline_runs", median(inline_runs), "count"},
        {"parallel.wakeups_per_forkjoin", median(wakeups_per), "count"},
        {"parallel.park_frac", median(park_frac), "fraction"},
        {"online.explore_frac", median(explore), "fraction"},
        {"online.drift_fires", median(drift), "count"},
        {"online.retrains", median(retrains), "count"},
        {"online.retrains_failed", median(retrains_failed), "count"},
        {"online.swaps", median(swaps), "count"},
        {"online.retrain_ms_p50", median(agg.retrain_ms), "ms"},
        {"core.record_s", metric_of_setups(&SetupResult::record_s), "s"},
        {"core.records", metric_of_setups(&SetupResult::records), "count"},
        {"ml.fit_s", metric_of_setups(&SetupResult::fit_s), "s"},
        {"core.publish_ms", metric_of_setups(&SetupResult::publish_ms), "ms"},
        {"apps.static_solve_s", static_s, "s"},
        {"apps.seq_solve_s", reference.wall_s, "s"},
        {"apps.static_over_tuned", solve_s > 0 ? static_s / solve_s : 0.0, "ratio"},
        {"apps.step_self_ms_p50", median(agg.step_self_ms), "ms"},
        {"apps.steps", static_cast<double>(steps_ms.size()), "count"},
        {"telemetry.trace_overhead_frac", median(traced_walls) / solve_s - 1.0, "fraction"},
        {"failed_frac", failed_frac, "fraction"},
    };
  }

  if (args.trace && !args.trace_out.empty() && !recorder.write(args.trace_out)) {
    std::fprintf(stderr, "apollo_perfbench: cannot write %s\n", args.trace_out.c_str());
  }

  // Stamp: what a later run must match to be compared with this one.
  std::string wall_list;
  for (double w : walls) wall_list += (wall_list.empty() ? "" : ",") + json_number(w);
  const BuildInfo& build = build_info();
  std::printf(
      "stamp {\"workload\":%s,\"seed\":%llu,\"deck\":%s,\"nproc\":%u,\"team\":%u,"
      "\"spin_us\":%lld,\"compiler\":%s,\"build_type\":%s,\"git_sha\":%s,\"solves\":%zu,"
      "\"traced_solves\":%zu,\"step_samples\":%zu,\"worst_state_mismatch\":%s,"
      "\"worst_conservation_drift\":%s,\"solve_walls_s\":[%s]}\n",
      json_string(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      json_string(spec.describe()).c_str(), cores, par::ThreadPool::global().thread_count(),
      static_cast<long long>(par::ThreadPool::global().spin_us()),
      json_string(build.compiler).c_str(), json_string(build.build_type).c_str(),
      json_string(build.git_sha).c_str(), base.size(), traced.size(), steps_ms.size(),
      json_number(worst_mismatch).c_str(), json_number(worst_drift).c_str(), wall_list.c_str());

  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}
