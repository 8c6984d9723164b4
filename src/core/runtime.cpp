#include "core/runtime.hpp"

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/cluster_accountant.hpp"
#include "core/features.hpp"
#include "core/search_support.hpp"
#include "ml/search/two_stage.hpp"
#include "perf/blackboard.hpp"
#include "service/client.hpp"
#include "telemetry/env.hpp"
#include "telemetry/hwprof.hpp"

namespace apollo {

namespace {

/// Telemetry state carried from begin() to end() on the launching thread.
/// A forall never nests, so one slot per thread suffices; the armed fields
/// are consumed (and cleared) by end().
struct PendingLaunch {
  std::uint64_t start_ns = 0;
  std::uint64_t decide_dur_ns = 0;
  /// Decision capture (maybe_capture_decision): the record end() completes
  /// and hands to the DecisionLog. `sampled` marks the introspection stride
  /// (recent ring, calibration, Decide span); the sink takes every armed
  /// record.
  bool armed = false;
  bool sampled = false;
  telemetry::DecisionRecord record;
  /// Hardware-counter window opened by begin() on the profiling stride
  /// (APOLLO_HW_STRIDE); closed and aggregated by end().
  bool hw_armed = false;
  /// online::feature_bucket of the launch, computed once by begin() for the
  /// tuned modes that need it (Adapt always, Tune with telemetry on): the
  /// explorer's guard, the quality baselines and the Adapt tail all read it.
  std::uint64_t bucket = 0;
};
thread_local PendingLaunch t_pending;

// Per-thread stride counter for decision introspection. Thread-local on
// purpose: a shared atomic would add cross-thread contention to every tuned
// launch, and per-thread phase drift does not bias a uniform stride sample.
thread_local std::uint64_t t_introspect_tick = 0;

/// This thread's view of the published model snapshot. The dispatch path
/// compares one relaxed epoch load against the cached epoch; the models
/// mutex is taken only in the launch after a publish — so the steady state
/// reads models with no lock and no shared-refcount traffic.
struct ThreadModelCache {
  std::uint64_t epoch = 0;
  std::shared_ptr<const ModelSnapshot> snapshot;
};
thread_local ThreadModelCache t_models;

/// Per-thread feature scratch for model evaluation (the tree reads a dense
/// double vector; reusing one allocation per thread keeps the decision path
/// allocation-free).
thread_local std::vector<double> t_features;

/// Per-thread wall-clock stopwatch for TimingSource::Wallclock (begin/end
/// always pair on the launching thread).
thread_local perf::Stopwatch t_stopwatch;

std::shared_ptr<const CompiledModel> compile_checked(TunerModel model, TunedParameter parameter,
                                                     const char* what) {
  if (model.parameter() != parameter) throw std::invalid_argument(what);
  return std::make_shared<const CompiledModel>(CompiledModel::compile(std::move(model)));
}

/// Finalizing mix for the inline-cache key (splitmix64): spreads the epoch
/// and generation bits so the entry index (low key bits) changes when either
/// does.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Fields a cached decision must carry to reproduce apply_models' output.
/// Packed into one 64-bit word: policy 8 | selection 16 | threads 12 |
/// chunk 28. pack returns false when a field exceeds its lane — that launch
/// simply is not cached.
bool pack_decision(const ModelParams& params, std::uint64_t& packed) noexcept {
  const auto policy = static_cast<std::uint64_t>(params.policy);
  const auto selection = static_cast<std::int64_t>(params.selection);
  const auto threads = static_cast<std::uint64_t>(params.threads);
  const auto chunk = params.chunk_size;
  if (selection < 0 || selection > 0xFFFF) return false;
  if (threads > 0xFFF) return false;
  if (chunk < 0 || chunk > 0xFFFFFFF) return false;
  packed = policy | (static_cast<std::uint64_t>(selection) << 8) | (threads << 24) |
           (static_cast<std::uint64_t>(chunk) << 36);
  return true;
}

void unpack_decision(std::uint64_t packed, ModelParams& params) noexcept {
  params.policy = static_cast<raja::PolicyType>(packed & 0xFF);
  params.selection = static_cast<int>((packed >> 8) & 0xFFFF);
  params.threads = static_cast<unsigned>((packed >> 24) & 0xFFF);
  params.chunk_size = static_cast<std::int64_t>((packed >> 36) & 0xFFFFFFF);
}

}  // namespace

namespace {
/// Defined with the rest of the training-search support further down; the
/// online-tuner wiring above it needs the declaration.
online::Retrainer::AugmentFn make_search_augment(sim::MachineModel machine,
                                                 std::vector<std::int64_t> chunk_values,
                                                 std::vector<unsigned> thread_values,
                                                 unsigned default_team, SearchOptions options);
}  // namespace

const char* mode_name(Mode mode) noexcept {
  switch (mode) {
    case Mode::Off: return "off";
    case Mode::Record: return "record";
    case Mode::Tune: return "tune";
    case Mode::Adapt: return "adapt";
  }
  return "?";
}

Runtime::Runtime() {
  telemetry::init_from_env();
  if (const char* env = std::getenv("APOLLO_MODE")) {
    const std::string value(env);
    if (value == "record") {
      mode_ = Mode::Record;
    } else if (value == "tune") {
      mode_ = Mode::Tune;
    } else if (value == "adapt") {
      mode_ = Mode::Adapt;
    }
  }
  const std::size_t capacity =
      telemetry::env_size("APOLLO_SAMPLE_CAPACITY", online::kDefaultSampleCapacity);
  if (capacity != online::kDefaultSampleCapacity) records_.set_capacity(capacity);
  // Training-search knobs (APOLLO_SEARCH family), hardened the same way.
  env_search_defaults_ = search_options_from_env();
  search_options_ = env_search_defaults_;
  // The paper's training protocol: re-run the same binary once per parameter
  // value, selected through the RAJA_POLICY / RAJA_CHUNK_SIZE environment
  // variables (SIII-A). An explicit policy disables sweep recording.
  if (const auto env_policy = raja::apollo::policy_from_env()) {
    training_.sweep_variants = false;
    training_.forced_policy = env_policy->policy;
    training_.forced_chunk = env_policy->chunk;
  }
}

Runtime::~Runtime() {
  // The service client's thread drains records_ and publishes into the
  // tuner's registry; stop it while both are still alive.
  const std::lock_guard<std::mutex> lock(online_mutex_);
  service_.reset();
  online_.reset();
}

Runtime& Runtime::instance() {
  static Runtime runtime;
  return runtime;
}

unsigned Runtime::threads() const noexcept {
  return threads_ > 0 ? threads_ : machine_.config().cores;
}

// --- model snapshot (RCU) ----------------------------------------------------

const std::shared_ptr<const ModelSnapshot>& Runtime::current_models() const {
  const std::uint64_t epoch = model_epoch_.load(std::memory_order_acquire);
  if (t_models.epoch != epoch) {
    const std::lock_guard<std::mutex> lock(models_mutex_);
    t_models.snapshot = models_;
    // Re-read under the lock: a publish between the load above and the lock
    // is folded into this refresh instead of triggering another one.
    t_models.epoch = model_epoch_.load(std::memory_order_relaxed);
  }
  return t_models.snapshot;
}

void Runtime::publish_models(std::shared_ptr<const ModelSnapshot> next) {
  const std::lock_guard<std::mutex> lock(models_mutex_);
  models_ = std::move(next);
  model_epoch_.fetch_add(1, std::memory_order_release);
}

void Runtime::replace_model(TunerModel model, TunedParameter parameter) {
  const char* what = parameter == TunedParameter::Policy      ? "Runtime: not a policy model"
                     : parameter == TunedParameter::ChunkSize ? "Runtime: not a chunk-size model"
                                                              : "Runtime: not a team-size model";
  // Compile outside the lock; publication itself is a pointer swap.
  auto compiled = compile_checked(std::move(model), parameter, what);
  const std::lock_guard<std::mutex> lock(models_mutex_);
  auto next = models_ ? std::make_shared<ModelSnapshot>(*models_) : std::make_shared<ModelSnapshot>();
  switch (parameter) {
    case TunedParameter::Policy: next->policy = std::move(compiled); break;
    case TunedParameter::ChunkSize: next->chunk = std::move(compiled); break;
    case TunedParameter::Threads: next->threads = std::move(compiled); break;
  }
  models_ = std::move(next);
  model_epoch_.fetch_add(1, std::memory_order_release);
}

void Runtime::set_policy_model(TunerModel model) {
  replace_model(std::move(model), TunedParameter::Policy);
}

void Runtime::set_chunk_model(TunerModel model) {
  replace_model(std::move(model), TunedParameter::ChunkSize);
}

void Runtime::set_threads_model(TunerModel model) {
  replace_model(std::move(model), TunedParameter::Threads);
}

void Runtime::clear_models() noexcept {
  publish_models(nullptr);
}

bool Runtime::has_policy_model() const noexcept {
  const auto& snapshot = current_models();
  return snapshot && snapshot->policy;
}

bool Runtime::has_chunk_model() const noexcept {
  const auto& snapshot = current_models();
  return snapshot && snapshot->chunk;
}

bool Runtime::has_threads_model() const noexcept {
  const auto& snapshot = current_models();
  return snapshot && snapshot->threads;
}

const TunerModel& Runtime::policy_model() const {
  const auto& snapshot = current_models();
  if (!snapshot || !snapshot->policy) throw std::logic_error("Runtime: no policy model loaded");
  return snapshot->policy->model();
}

// --- contexts ----------------------------------------------------------------

KernelContext& Runtime::context_for_id(std::string_view loop_id) {
  const std::lock_guard<std::mutex> lock(contexts_mutex_);
  auto it = contexts_.find(loop_id);
  if (it == contexts_.end()) {
    it = contexts_.emplace(std::string(loop_id),
                           std::make_unique<KernelContext>(std::string(loop_id)))
             .first;
  }
  return *it->second;
}

// --- records / online --------------------------------------------------------

void Runtime::flush_records(const std::string& path) {
  perf::append_records_file(path, records_.drain());
}

online::OnlineTuner& Runtime::online_locked() {
  if (!online_) {
    online_ = std::make_unique<online::OnlineTuner>(&records_);
    online_ptr_.store(online_.get(), std::memory_order_release);
    // Two-stage search in the retrain lane: each duty cycle's window is
    // augmented with budgeted, model-searched variant measurements for its
    // newest launch groups before fitting. The closure copies the machine
    // model and training lanes now — it runs on the Retrainer's background
    // thread, concurrently with tuned dispatch.
    if (search_options_.mode == SearchMode::TwoStage) {
      online_->retrainer().set_augment(make_search_augment(
          machine_, training_.chunk_values, training_.thread_values, threads(),
          search_options_));
    }
    // Fleet mode: when APOLLO_SERVICE_SOCKET names a trainer daemon, a
    // background client drains the sample buffer to it and applies pushed
    // model generations through the registry — the same hot-swap path local
    // retrains use. Everything here is off the dispatch path; a missing or
    // dying daemon degrades to pure-local adaptation.
    const auto config = service::ClientConfig::from_env();
    if (config.enabled()) {
      service_ = std::make_unique<service::ServiceClient>(&records_, &online_->registry(), config);
      service_->start();
    }
  }
  return *online_;
}

online::OnlineTuner& Runtime::online() {
  if (online::OnlineTuner* tuner = online_ptr_.load(std::memory_order_acquire)) return *tuner;
  const std::lock_guard<std::mutex> lock(online_mutex_);
  return online_locked();
}

void Runtime::configure_online(online::OnlineConfig config) {
  {
    const std::lock_guard<std::mutex> lock(online_mutex_);
    online::OnlineTuner& tuner = online_locked();
    tuner.configure(std::move(config));
    // Re-capture the (possibly reconfigured) machine model and training
    // lanes for the retrain-lane search; clear the hook when the mode was
    // switched back to exhaustive.
    if (search_options_.mode == SearchMode::TwoStage) {
      tuner.retrainer().set_augment(make_search_augment(
          machine_, training_.chunk_values, training_.thread_values, threads(),
          search_options_));
    } else {
      tuner.retrainer().set_augment(nullptr);
    }
  }
  // Re-examine the registry (it may hold restored models).
  adapt_version_.store(0, std::memory_order_release);
}

void Runtime::reset() {
  {
    const std::lock_guard<std::mutex> lock(online_mutex_);
    service_.reset();  // stops the fleet client before its registry dies
    online_ptr_.store(nullptr, std::memory_order_release);
    online_.reset();  // joins any in-flight retrain before state is torn down
  }
  adapt_version_.store(0, std::memory_order_relaxed);
  mode_.store(Mode::Off, std::memory_order_relaxed);
  timing_ = TimingSource::Model;
  machine_ = sim::MachineModel{};
  threads_ = 0;
  training_ = TrainingConfig{};
  search_options_ = env_search_defaults_;
  default_override_.reset();
  execute_selected_ = true;
  accountant_ = nullptr;
  inline_cache_enabled_.store(true, std::memory_order_relaxed);
  clear_models();
  {
    // Reset in place: contexts (and the pointers KernelHandles cache) stay
    // valid; only their counters and handle caches are cleared.
    const std::lock_guard<std::mutex> lock(contexts_mutex_);
    for (auto& [loop_id, context] : contexts_) context->reset();
  }
  decision_latency_.reset();
  clear_records();
  sample_counter_.store(0, std::memory_order_relaxed);
  probe_tick_.store(0, std::memory_order_relaxed);
  t_introspect_tick = 0;
  t_pending = PendingLaunch{};
  t_models = ThreadModelCache{};  // other threads refresh on their next launch
}

// --- aggregation -------------------------------------------------------------

RunStats Runtime::stats() const {
  RunStats stats;
  stats.decision_latency = decision_latency_;  // relaxed histogram snapshot
  const std::lock_guard<std::mutex> lock(contexts_mutex_);
  for (const auto& [loop_id, context] : contexts_) {
    KernelStats shard = context->stats_snapshot();
    // Contexts persist across reset_stats(); an idle shard is not a kernel
    // this run touched.
    if (shard.invocations == 0) continue;
    stats.total_seconds += shard.seconds;
    stats.invocations += shard.invocations;
    stats.per_kernel.emplace(loop_id, std::move(shard));
  }
  return stats;
}

void Runtime::reset_stats() noexcept {
  const std::lock_guard<std::mutex> lock(contexts_mutex_);
  for (auto& [loop_id, context] : contexts_) context->reset_stats();
  decision_latency_.reset();
}

std::vector<std::pair<std::string, telemetry::KernelQuality>> Runtime::quality_snapshot() {
  std::vector<std::pair<std::string, telemetry::KernelQuality>> result;
  const std::lock_guard<std::mutex> lock(contexts_mutex_);
  for (auto& [loop_id, context] : contexts_) {
    const std::lock_guard<std::mutex> context_lock(context->mutex());
    for (auto& entry : context->quality_locked().snapshot()) result.push_back(std::move(entry));
  }
  return result;  // contexts_ is name-sorted, so the merged view is too
}

std::uint64_t Runtime::probe_count() {
  std::uint64_t total = 0;
  const std::lock_guard<std::mutex> lock(contexts_mutex_);
  for (auto& [loop_id, context] : contexts_) {
    const std::lock_guard<std::mutex> context_lock(context->mutex());
    total += context->quality_locked().total_probes();
  }
  return total;
}

double Runtime::regret_seconds_total() {
  double total = 0.0;
  const std::lock_guard<std::mutex> lock(contexts_mutex_);
  for (auto& [loop_id, context] : contexts_) {
    const std::lock_guard<std::mutex> context_lock(context->mutex());
    total += context->quality_locked().total_regret_seconds();
  }
  return total;
}

// --- features / cost queries -------------------------------------------------

std::optional<perf::Value> Runtime::resolve_feature(const std::string& name,
                                                    const KernelHandle& kernel,
                                                    const raja::IndexSet& iset) const {
  using namespace features;
  if (name == kFunc) return perf::Value(kernel.func());
  if (name == kFuncSize) return perf::Value(kernel.mix().total());
  if (name == kIndexType) return perf::Value(iset.type_name());
  if (name == kLoopId) return perf::Value(kernel.loop_id());
  if (name == kNumIndices) return perf::Value(iset.getLength());
  if (name == kNumSegments) return perf::Value(static_cast<std::int64_t>(iset.getNumSegments()));
  if (name == kStride) return perf::Value(iset.stride());
  for (std::size_t m = 0; m < instr::kMnemonicCount; ++m) {
    const auto mnemonic = static_cast<instr::Mnemonic>(m);
    if (name == instr::mnemonic_name(mnemonic)) return perf::Value(kernel.mix().count(mnemonic));
  }
  return perf::Blackboard::instance().get(name);
}

sim::CostQuery Runtime::make_query(const KernelHandle& kernel, const raja::IndexSet& iset,
                                   raja::PolicyType policy, std::int64_t chunk,
                                   unsigned team) const {
  sim::CostQuery query;
  query.num_indices = iset.getLength();
  query.num_segments = static_cast<std::int64_t>(iset.getNumSegments());
  query.mix = kernel.mix();
  query.bytes_per_iteration = kernel.bytes_per_iteration();
  query.policy = policy == raja::PolicyType::seq_segit_seq_exec ? sim::PolicyKind::Sequential
                                                                : sim::PolicyKind::OpenMP;
  query.threads = team > 0 ? team : threads();
  query.chunk = chunk;
  query.kernel_seed = std::hash<std::string>{}(kernel.loop_id());
  auto& board = perf::Blackboard::instance();
  if (const auto problem = board.get(features::kProblemName); problem && problem->is_string()) {
    query.context_seed = std::hash<std::string>{}(problem->as_string());
  }
  if (const auto step = board.get(features::kTimestep)) {
    query.epoch = step->as_number();
  }
  return query;
}

double Runtime::measure_seconds(const sim::CostQuery& query) {
  return machine_.measured_seconds(query,
                                   sample_counter_.fetch_add(1, std::memory_order_relaxed));
}

// --- decisions ---------------------------------------------------------------

void Runtime::apply_models(const ModelSnapshot* snapshot, ModelParams& params,
                           const KernelHandle& kernel, const raja::IndexSet& iset) {
  if (snapshot == nullptr) return;
  if (snapshot->policy) {
    const int label = snapshot->policy->predict(kernel, iset, t_features);
    params.selection = label;
    params.policy = snapshot->policy->policy_of(label);
  }
  if (snapshot->chunk && params.policy == raja::PolicyType::seq_segit_omp_parallel_for_exec) {
    params.chunk_size =
        snapshot->chunk->chunk_of(snapshot->chunk->predict(kernel, iset, t_features));
  }
  if (snapshot->threads && params.policy == raja::PolicyType::seq_segit_omp_parallel_for_exec) {
    params.threads =
        snapshot->threads->threads_of(snapshot->threads->predict(kernel, iset, t_features));
  }
}

void Runtime::tuned_decision(KernelContext& context, const ModelSnapshot* snapshot,
                             ModelParams& params, const KernelHandle& kernel,
                             const raja::IndexSet& iset, bool telem) {
  // With telemetry on, begin() just stamped the launch start; reuse it as
  // the decision start rather than paying a second clock read.
  const std::uint64_t decide_start = telem ? t_pending.start_ns : telemetry::now_ns();

  // Per-site inline cache: a decision is a pure function of the launch's
  // feature signature, the published snapshot (epoch), and the blackboard
  // state (generation), so a key over those three reuses the last decision
  // with one load and one compare. Hot-swaps and attribute writes invalidate
  // for free — they bump the epoch/generation, so the key simply changes.
  // Only policy-model decisions are cached: without one, params.policy stays
  // the caller's default, which the key does not cover.
  std::uint64_t key = 0;
  const bool cacheable = snapshot != nullptr && snapshot->policy &&
                         inline_cache_enabled_.load(std::memory_order_relaxed);
  if (cacheable) {
    key = iset.feature_signature() ^ mix64(t_models.epoch) ^
          mix64(perf::Blackboard::instance().generation() * 0x9e3779b97f4a7c15ULL + 1);
    if (key == 0) key = 1;
    std::uint64_t packed = 0;
    if (context.inline_cache_lookup(key, packed)) {
      unpack_decision(packed, params);
      const std::uint64_t decide_end = telemetry::now_ns();
      decision_latency_.observe(static_cast<double>(decide_end - decide_start) * 1e-9);
      if (telem) {
        t_pending.decide_dur_ns = decide_end - decide_start;
        static telemetry::Counter& hits = telemetry::MetricsRegistry::instance().counter(
            "apollo_inline_cache_hits_total",
            "Tuned launches that reused the call site's cached decision.");
        hits.inc();
        maybe_capture_decision(*snapshot, params, kernel, iset);
      }
      return;
    }
  }

  apply_models(snapshot, params, kernel, iset);
  if (cacheable && !params.explored) {
    std::uint64_t packed = 0;
    if (pack_decision(params, packed)) context.inline_cache_store(key, packed);
  }
  const std::uint64_t decide_end = telemetry::now_ns();
  // Always on, atomic bucket increments: feeds the p50/p95/p99
  // decision-latency report in stats_report.
  decision_latency_.observe(static_cast<double>(decide_end - decide_start) * 1e-9);
  if (telem) {
    t_pending.decide_dur_ns = decide_end - decide_start;
    if (cacheable) {
      static telemetry::Counter& misses = telemetry::MetricsRegistry::instance().counter(
          "apollo_inline_cache_misses_total",
          "Tuned launches that evaluated the model (no cached decision matched).");
      misses.inc();
    }
    if (snapshot != nullptr) maybe_capture_decision(*snapshot, params, kernel, iset);
  }
}

void Runtime::maybe_capture_decision(const ModelSnapshot& snapshot, const ModelParams& params,
                                     const KernelHandle& kernel, const raja::IndexSet& iset) {
  const auto& cfg = telemetry::config();
  if (!snapshot.policy) return;
  const bool sampled =
      cfg.introspect_stride != 0 && t_introspect_tick++ % cfg.introspect_stride == 0;
  if (!sampled && !telemetry::DecisionLog::instance().sink_enabled()) return;
  // Re-evaluate the policy model for this captured launch over the whole
  // feature vector (the decision itself resolves only the features the tree
  // reads), so the record carries every feature's value. The record is
  // stamped with the generation that decided, not whatever is live when the
  // launch ends.
  const TunerModel& policy = snapshot.policy->model();
  snapshot.policy->resolve_features(kernel, iset, t_features);
  const int label = snapshot.policy->predict_encoded(t_features.data());
  const auto& names = policy.tree().feature_names();
  telemetry::DecisionRecord& record = t_pending.record;
  record = telemetry::DecisionRecord{};
  record.kernel = kernel.loop_id();
  record.model_version = snapshot.version;
  record.label = policy.label_name(label);
  record.features.reserve(names.size());
  for (std::size_t f = 0; f < names.size(); ++f) {
    record.features.emplace_back(names[f], t_features[f]);
  }
  if (sampled) {
    policy.tree().predict_path(t_features.data(), record.tree_path);
    record.predicted_seconds = machine_.cost_seconds(
        make_query(kernel, iset, params.policy, params.chunk_size, params.threads));
  }
  t_pending.armed = true;
  t_pending.sampled = sampled;
}

void Runtime::emit_record(const KernelHandle& kernel, const raja::IndexSet& iset,
                          raja::PolicyType policy, std::int64_t chunk, double seconds,
                          unsigned team) {
  // Capture, don't materialize: the full attribute-map record is built by
  // whoever consumes the sample (Retrainer background thread, records(),
  // flush). The launch thread pays scalar copies, three short strings, and a
  // pointer fetch of the blackboard snapshot.
  online::Sample sample;
  sample.loop_id = kernel.loop_id();
  sample.func = kernel.func();
  sample.index_type = iset.type_name();
  sample.mix = kernel.mix();
  sample.num_indices = iset.getLength();
  sample.num_segments = static_cast<std::int64_t>(iset.getNumSegments());
  sample.stride = iset.stride();
  sample.bytes_per_iter = kernel.bytes_per_iteration();
  sample.app = perf::Blackboard::instance().snapshot_shared();
  sample.policy = policy;
  sample.chunk = chunk;
  sample.threads = team;
  sample.seconds = seconds;
  records_.push(std::move(sample));
}

void Runtime::charge_external(const std::string& loop_id, const sim::CostQuery& query) {
  if (timing_ != TimingSource::Model) return;
  charge_external(context_for_id(loop_id), query);
}

void Runtime::charge_external(KernelContext& context, const sim::CostQuery& query) {
  if (timing_ != TimingSource::Model) return;
  const double seconds = measure_seconds(query);
  if (accountant_ != nullptr) accountant_->charge(seconds);
  context.charge(seconds);
}

const std::shared_ptr<const ModelSnapshot>& Runtime::refresh_adapt_models() {
  online::OnlineTuner& tuner = online();
  const std::uint64_t version = tuner.registry().version();  // single atomic load
  if (version == adapt_version_.load(std::memory_order_acquire)) return current_models();
  bool swapped = false;
  {
    const std::lock_guard<std::mutex> lock(models_mutex_);
    if (version != adapt_version_.load(std::memory_order_relaxed)) {
      if (const auto published = tuner.registry().current()) {
        // Slots the registry did not retrain carry the previous generation's
        // compilation forward (shared, immutable).
        auto next = models_ ? std::make_shared<ModelSnapshot>(*models_)
                            : std::make_shared<ModelSnapshot>();
        next->version = version;
        if (published->policy) {
          next->policy = compile_checked(*published->policy, TunedParameter::Policy,
                                         "Runtime: not a policy model");
        }
        if (published->chunk) {
          next->chunk = compile_checked(*published->chunk, TunedParameter::ChunkSize,
                                        "Runtime: not a chunk-size model");
        }
        if (published->threads) {
          next->threads = compile_checked(*published->threads, TunedParameter::Threads,
                                          "Runtime: not a team-size model");
        }
        models_ = std::move(next);
        model_epoch_.fetch_add(1, std::memory_order_release);
        swapped = true;
      }
      adapt_version_.store(version, std::memory_order_release);
    }
  }
  if (swapped) {
    // Outside models_mutex_ (lock order: never hold it across online calls).
    {
      const std::lock_guard<std::mutex> lock(online_mutex_);
      online_locked().on_models_swapped();
    }
    if (telemetry::enabled()) {
      auto& registry = telemetry::MetricsRegistry::instance();
      registry.counter("apollo_hot_swaps_total", "Model hot-swaps applied by the runtime.").inc();
      registry
          .gauge("apollo_model_generation",
                 "Registry model generation currently compiled into the runtime.")
          .set(static_cast<double>(version));
      telemetry::emit_instant(telemetry::EventKind::HotSwap, "hot_swap", version);
    }
  }
  return current_models();
}

// --- training-search support -------------------------------------------------

namespace {

/// Searched-vs-skipped accounting (the sweep path and the Retrainer's
/// augmentation both report here; apollo_top renders the pane).
void record_search_metrics(std::size_t measured, std::size_t skipped, std::size_t seeded) {
  if (!telemetry::enabled()) return;
  auto& registry = telemetry::MetricsRegistry::instance();
  static telemetry::Counter& measured_total = registry.counter(
      "apollo_search_measured_total",
      "Variant configurations measured while covering a tuning space.");
  static telemetry::Counter& skipped_total = registry.counter(
      "apollo_search_skipped_total",
      "Variant configurations the two-stage search never measured.");
  static telemetry::Counter& seeded_total = registry.counter(
      "apollo_search_seeded_total",
      "Seed configurations selected by the model-ranked search stage.");
  measured_total.inc(measured);
  skipped_total.inc(skipped);
  seeded_total.inc(seeded);
}

/// Distinct launch groups searched per retrain window: bounds the synthesis
/// cost of one duty cycle independently of the window size.
constexpr std::size_t kMaxSearchGroupsPerRetrain = 8;

/// Build the Retrainer's pre-fit augmentation: for the newest launch groups
/// in the window, run the budgeted two-stage search against the machine
/// model and synthesize one record per measured configuration. Everything is
/// captured by value (machine model included), so the closure is
/// self-contained on the background lane — it shares no mutable state with
/// tuned dispatch on the application threads.
online::Retrainer::AugmentFn make_search_augment(sim::MachineModel machine,
                                                 std::vector<std::int64_t> chunk_values,
                                                 std::vector<unsigned> thread_values,
                                                 unsigned default_team, SearchOptions options) {
  auto sample_id = std::make_shared<std::atomic<std::uint64_t>>(0x5eedULL);
  return [machine, chunk_values = std::move(chunk_values),
          thread_values = std::move(thread_values), default_team, options,
          sample_id](const std::vector<perf::SampleRecord>& window) {
    std::vector<perf::SampleRecord> extra;
    if (window.empty()) return extra;
    // Newest-first distinct groups: the budget goes to the launch shapes the
    // application produced most recently.
    std::vector<const perf::SampleRecord*> exemplars;
    std::set<std::string> seen;
    for (auto it = window.rbegin(); it != window.rend(); ++it) {
      if (exemplars.size() >= kMaxSearchGroupsPerRetrain) break;
      if (seen.insert(search_group_key(*it)).second) exemplars.push_back(&*it);
    }
    const ml::search::Space space = make_variant_space(chunk_values, thread_values);
    std::size_t measured = 0;
    std::size_t skipped = 0;
    std::size_t seeded = 0;
    for (const perf::SampleRecord* exemplar : exemplars) {
      sim::CostQuery base = query_from_record(*exemplar);
      if (base.num_indices <= 0) continue;
      const auto with_variant = [&](const ml::search::Point& point) {
        sim::CostQuery query = base;
        const SearchVariant variant = variant_at(space, point);
        query.policy = variant.policy == raja::PolicyType::seq_segit_seq_exec
                           ? sim::PolicyKind::Sequential
                           : sim::PolicyKind::OpenMP;
        query.chunk = variant.chunk;
        query.threads = variant.team > 0 ? variant.team : default_team;
        return query;
      };
      const auto cheap = [&](const ml::search::Point& point) {
        return machine.cost_seconds(with_variant(point));
      };
      const auto measure = [&](const ml::search::Point& point) {
        return machine.measured_seconds(with_variant(point),
                                        sample_id->fetch_add(1, std::memory_order_relaxed));
      };
      const auto canonical = [&](const ml::search::Point& point) {
        return canonical_variant_key(space, point);
      };
      // Two samples per configuration: the dominance early-abort prunes the
      // second sample of clearly-dominated variants.
      const ml::search::SearchConfig config = search_engine_config(
          options, std::hash<std::string>{}(search_group_key(*exemplar)), 2);
      const ml::search::Result result = ml::search::TwoStageSearch(config).run(
          space, cheap, measure, {{0, 0, 0}, {1, 0, 0}}, canonical);
      for (const auto& m : result.measurements) {
        const SearchVariant variant = variant_at(space, m.point);
        perf::SampleRecord record = *exemplar;
        record[features::kParamPolicy] = raja::policy_name(variant.policy);
        record[features::kParamChunk] = variant.chunk;
        if (variant.team > 0) {
          record[features::kParamThreads] = static_cast<std::int64_t>(variant.team);
        } else {
          record.erase(features::kParamThreads);
        }
        record[features::kMeasureRuntime] = m.seconds;
        extra.push_back(std::move(record));
      }
      measured += result.stats.measured;
      skipped += result.stats.skipped;
      seeded += result.stats.seeded;
    }
    record_search_metrics(measured, skipped, seeded);
    return extra;
  };
}

}  // namespace

// --- the begin/end hooks -----------------------------------------------------

ModelParams Runtime::begin(KernelContext& context, const KernelHandle& kernel,
                           const raja::IndexSet& iset) {
  const bool telem = telemetry::enabled();
  if (telem) {
    t_pending.start_ns = telemetry::now_ns();
    t_pending.decide_dur_ns = 0;
    t_pending.armed = false;
    t_pending.sampled = false;
  }
  // Off-state cost: exactly this one relaxed load + branch (APOLLO_HW_STRIDE=0).
  if (telemetry::hwprof::enabled()) {
    t_pending.hw_armed = telemetry::hwprof::window_due() && telemetry::hwprof::begin_window();
  }

  ModelParams params;
  params.policy = default_override_.value_or(kernel.default_policy());
  params.chunk_size = 0;

  switch (mode_.load(std::memory_order_relaxed)) {
    case Mode::Off:
      break;
    case Mode::Record:
      if (!training_.sweep_variants) {
        params.policy = training_.forced_policy;
        params.chunk_size = training_.forced_chunk;
      }
      break;
    case Mode::Tune:
      tuned_decision(context, current_models().get(), params, kernel, iset, telem);
      if (telem) t_pending.bucket = online::feature_bucket(iset.getLength(), iset.getNumSegments());
      break;
    case Mode::Adapt: {
      tuned_decision(context, refresh_adapt_models().get(), params, kernel, iset, telem);
      t_pending.bucket = online::feature_bucket(iset.getLength(), iset.getNumSegments());
      std::optional<online::Variant> explored;
      {
        const std::lock_guard<std::mutex> lock(online_mutex_);
        explored = online_locked().maybe_explore(kernel.loop_id(), t_pending.bucket);
      }
      if (explored) {
        params.policy = explored->policy;
        params.chunk_size = explored->chunk;
        params.threads = 0;
        params.explored = true;
        if (telem) {
          static telemetry::Counter& explores = telemetry::MetricsRegistry::instance().counter(
              "apollo_explore_total", "Launches where the explorer substituted a trial variant.");
          explores.inc();
          telemetry::emit_instant(telemetry::EventKind::Explore, "explore", explored->key());
        }
      }
      break;
    }
  }

  if (timing_ == TimingSource::Wallclock) t_stopwatch.start();
  return params;
}

void Runtime::end(KernelContext& context, const KernelHandle& kernel, const raja::IndexSet& iset,
                  const ModelParams& params) {
  // Close the hardware-counter window first: it should cover the decision
  // and the launch body, not end()'s own bookkeeping below.
  telemetry::hwprof::HwSample hw_sample;
  bool hw_valid = false;
  if (t_pending.hw_armed) {
    t_pending.hw_armed = false;
    hw_valid = telemetry::hwprof::end_window(hw_sample);
  }
  double seconds = 0.0;
  if (timing_ == TimingSource::Wallclock) {
    seconds = t_stopwatch.stop();
  } else {
    seconds = measure_seconds(
        make_query(kernel, iset, params.policy, params.chunk_size, params.threads));
  }

  const Mode mode = mode_.load(std::memory_order_relaxed);
  const bool telem = telemetry::enabled();
  const bool tuned = mode == Mode::Tune || mode == Mode::Adapt;
  if (accountant_ != nullptr) accountant_->charge(seconds);
  // The stats shard: two relaxed atomic adds plus atomic histogram buckets.
  // The steady-state dispatch path ends here when telemetry is off — no lock
  // was taken anywhere between begin() and this point.
  context.charge(seconds);

  if (hw_valid) {
    // Strided, so the label allocation and the aggregator mutex are paid on
    // 1/stride launches only. Same variant spelling as apollo_dispatch_total.
    std::string variant = raja::policy_name(params.policy);
    if (params.chunk_size > 0) variant += "/c" + std::to_string(params.chunk_size);
    telemetry::hwprof::record_window(kernel.loop_id(), variant, hw_sample,
                                     static_cast<std::uint64_t>(iset.getLength()));
  }

  const char* trace_name = nullptr;
  const std::uint64_t bucket = t_pending.bucket;
  bool probe_armed = false;
  online::Variant probe_variant{};
  if (telem) {
    // Per-kernel lock: concurrent launches of *different* kernels never
    // serialize here.
    const std::lock_guard<std::mutex> lock(context.mutex());
    KernelContext::TelemetryHandles& entry = context.telemetry_locked();
    trace_name = entry.name;
    context.variant_counter_locked(params).inc();
    // The registry histogram rides the introspection stride: every launch
    // already feeds the always-on decision_latency_ histogram, so the
    // labeled series trades resolution for ~40ns off the hot path.
    if (t_pending.sampled && t_pending.decide_dur_ns > 0) {
      entry.decision_seconds->observe(static_cast<double>(t_pending.decide_dur_ns) * 1e-9);
    }
    if (tuned) {
      // Quality accounting: refresh this variant's baseline and score the
      // model's choice (explored launches refresh evidence only).
      telemetry::QualityAccountant& quality = context.quality_locked();
      const std::uint64_t vkey = online::Variant{params.policy, params.chunk_size}.key();
      quality.observe_choice(context.loop_id(), bucket, vkey, seconds, !params.explored);
      if (t_pending.sampled) {
        quality.observe_calibration(context.loop_id(), t_pending.record.predicted_seconds,
                                    seconds);
        // The exported gauges ride the introspection stride (and the probe
        // path below): the live files refresh on a 500ms cadence, so
        // per-launch gauge stores would buy nothing but hot-path cost.
        if (const telemetry::KernelQuality* q = quality.kernel(context.loop_id())) {
          entry.accuracy->set(q->accuracy());
          entry.regret_seconds->set(q->regret_seconds);
        }
      }
      // Budgeted ground-truth probe: every probe_stride-th tuned launch
      // (process-wide tick, so the budget holds across kernels and threads)
      // also times one non-executed variant, rotating through this kernel's
      // candidates. Model timing only — a finished wall-clock launch cannot
      // be re-run untuned (there, the Adapt explorer supplies off-policy
      // ground truth).
      if (timing_ == TimingSource::Model && probe_due(telemetry::config().probe_stride)) {
        const online::Variant candidates[] = {
            {raja::PolicyType::seq_segit_seq_exec, 0},
            {raja::PolicyType::seq_segit_omp_parallel_for_exec, 0}};
        for (int i = 0; i < 2 && !probe_armed; ++i) {
          const online::Variant candidate = candidates[context.next_probe_slot() % 2];
          if (candidate.key() != vkey) {
            probe_variant = candidate;
            probe_armed = true;
          }
        }
      }
    }
  }
  if (telem && t_pending.start_ns != 0) {
    // Derive the span end rather than paying another clock read: the launch
    // span covers the model decision plus the measured (or model-charged)
    // execution seconds — exactly the time Apollo accounts to this launch.
    const std::uint64_t end_ns = t_pending.start_ns + t_pending.decide_dur_ns +
                                 static_cast<std::uint64_t>(seconds * 1e9);
    telemetry::emit_span(telemetry::EventKind::Launch, trace_name, t_pending.start_ns, end_ns,
                         online::Variant{params.policy, params.chunk_size}.key(),
                         params.explored ? 1 : 0);
    // Decide spans ride the introspection stride: every tuned launch feeds
    // the latency histograms, but only sampled launches pay a second event.
    if (t_pending.sampled && t_pending.decide_dur_ns > 0) {
      telemetry::emit_span(telemetry::EventKind::Decide, trace_name, t_pending.start_ns,
                           t_pending.start_ns + t_pending.decide_dur_ns,
                           t_pending.record.model_version, 0);
    }
    if (t_pending.armed) {
      telemetry::DecisionRecord& record = t_pending.record;
      record.ts_ns = t_pending.start_ns;
      record.bucket = bucket;
      record.policy = raja::policy_name(params.policy);
      record.chunk = params.chunk_size;
      record.explored = params.explored;
      record.seconds = seconds;
      if (hw_valid) {
        // Counter signature for this exact decision: lets apollo_replay and
        // apollo_prof correlate mispredictions with what the PMU saw.
        record.has_hw = true;
        record.hw_instructions = hw_sample.count(telemetry::hwprof::Event::Instructions);
        record.hw_cycles = hw_sample.count(telemetry::hwprof::Event::Cycles);
        record.hw_cache_misses = hw_sample.count(telemetry::hwprof::Event::CacheMisses);
        record.hw_branch_misses = hw_sample.count(telemetry::hwprof::Event::BranchMisses);
        record.hw_stalled_cycles = hw_sample.count(telemetry::hwprof::Event::StalledCycles);
        record.hw_scale = hw_sample.scale;
      }
      telemetry::DecisionLog::instance().record(std::move(record), t_pending.sampled);
      t_pending.armed = false;
      t_pending.sampled = false;
    }
    t_pending.start_ns = 0;
  }

  if (probe_armed) {
    // The probe runs outside the per-kernel lock: it prices the alternative
    // variant through the machine model and shares the measurement with the
    // sample buffer (retraining data), the drift detector (Adapt mode), the
    // quality baselines, and the decision log sink.
    const double probe_seconds =
        measure_seconds(make_query(kernel, iset, probe_variant.policy, probe_variant.chunk));
    emit_record(kernel, iset, probe_variant.policy, probe_variant.chunk, probe_seconds);
    {
      const std::lock_guard<std::mutex> lock(context.mutex());
      telemetry::QualityAccountant& quality = context.quality_locked();
      quality.record_probe(context.loop_id(), bucket, probe_variant.key(), probe_seconds);
      if (const telemetry::KernelQuality* q = quality.kernel(context.loop_id())) {
        KernelContext::TelemetryHandles& entry = context.telemetry_locked();
        entry.accuracy->set(q->accuracy());
        entry.regret_seconds->set(q->regret_seconds);
      }
    }
    if (mode == Mode::Adapt) {
      const std::lock_guard<std::mutex> lock(online_mutex_);
      online_locked().observe_probe(kernel.loop_id(), bucket, probe_variant, probe_seconds);
    }
    static telemetry::Counter& probes = telemetry::MetricsRegistry::instance().counter(
        "apollo_probe_total", "Ground-truth probes launched (alternative-variant timings).");
    probes.inc();
    if (telemetry::DecisionLog::instance().sink_enabled()) {
      telemetry::DecisionRecord record;
      record.kind = telemetry::DecisionRecord::Kind::Probe;
      record.ts_ns = telemetry::now_ns();
      record.kernel = kernel.loop_id();
      record.bucket = bucket;
      record.model_version = adapt_version_.load(std::memory_order_relaxed);
      record.policy = raja::policy_name(probe_variant.policy);
      record.chunk = probe_variant.chunk;
      record.seconds = probe_seconds;
      telemetry::DecisionLog::instance().record(std::move(record), false);
    }
  }

  if (mode == Mode::Adapt) {
    // One lock for the whole Adapt tail: the tuner's bookkeeping methods are
    // single-threaded by contract (see OnlineTuner), and the retrain itself
    // runs on the Retrainer's background thread, so this stays short.
    const std::lock_guard<std::mutex> lock(online_mutex_);
    online::OnlineTuner& tuner = online_locked();
    // Explored launches always land in the buffer (they carry the off-policy
    // labels retraining needs); predicted launches are strided to keep the
    // hot path cheap.
    if (params.explored || tuner.should_record_sample()) {
      emit_record(kernel, iset, params.policy, params.chunk_size, seconds, params.threads);
    }
    tuner.observe(kernel.loop_id(), bucket,
                  online::Variant{params.policy, params.chunk_size}, seconds, params.explored);
    tuner.maybe_retrain();
    return;
  }

  if (mode != Mode::Record) return;

  if (!training_.sweep_variants) {
    emit_record(kernel, iset, params.policy, params.chunk_size, seconds);
    return;
  }

  // Sweep recording: price every parameter variant of this launch. Requires
  // the machine-model timing source (one real execution cannot yield
  // wall-clock times for variants that did not run).
  if (timing_ == TimingSource::Wallclock) {
    throw std::logic_error(
        "Runtime: sweep_variants recording requires TimingSource::Model; "
        "use forced-policy recording for wall-clock training runs");
  }
  if (search_options_.mode == SearchMode::TwoStage) {
    sweep_twostage(kernel, iset);
    return;
  }
  const double seq_seconds =
      measure_seconds(make_query(kernel, iset, raja::PolicyType::seq_segit_seq_exec, 0));
  emit_record(kernel, iset, raja::PolicyType::seq_segit_seq_exec, 0, seq_seconds);
  const double omp_seconds = measure_seconds(
      make_query(kernel, iset, raja::PolicyType::seq_segit_omp_parallel_for_exec, 0));
  emit_record(kernel, iset, raja::PolicyType::seq_segit_omp_parallel_for_exec, 0, omp_seconds);
  for (std::int64_t chunk : training_.chunk_values) {
    const double chunk_seconds = measure_seconds(
        make_query(kernel, iset, raja::PolicyType::seq_segit_omp_parallel_for_exec, chunk));
    emit_record(kernel, iset, raja::PolicyType::seq_segit_omp_parallel_for_exec, chunk,
                chunk_seconds);
  }
  for (unsigned team : training_.thread_values) {
    const double team_seconds = measure_seconds(
        make_query(kernel, iset, raja::PolicyType::seq_segit_omp_parallel_for_exec, 0, team));
    emit_record(kernel, iset, raja::PolicyType::seq_segit_omp_parallel_for_exec, 0, team_seconds,
                team);
  }
  record_search_metrics(2 + training_.chunk_values.size() + training_.thread_values.size(), 0, 0);
}

void Runtime::sweep_twostage(const KernelHandle& kernel, const raja::IndexSet& iset) {
  const ml::search::Space space =
      make_variant_space(training_.chunk_values, training_.thread_values);
  const auto cheap = [&](const ml::search::Point& point) {
    const SearchVariant variant = variant_at(space, point);
    return machine_.cost_seconds(make_query(kernel, iset, variant.policy, variant.chunk,
                                            variant.team));
  };
  const auto measure = [&](const ml::search::Point& point) {
    const SearchVariant variant = variant_at(space, point);
    return measure_seconds(make_query(kernel, iset, variant.policy, variant.chunk, variant.team));
  };
  const auto canonical = [&](const ml::search::Point& point) {
    return canonical_variant_key(space, point);
  };
  // Deterministic per launch shape: the same kernel at the same size repeats
  // the same trajectory, so repeated launches accumulate evidence on the
  // same searched variants instead of scattering one sample everywhere.
  const std::uint64_t seed =
      std::hash<std::string>{}(kernel.loop_id()) ^ static_cast<std::uint64_t>(iset.getLength());
  // One sample per configuration, like the exhaustive sweep: record-mode
  // noise averaging comes from launch repetition, not per-launch resampling.
  const ml::search::SearchConfig config = search_engine_config(search_options_, seed, 1);
  // Anchors: the trainer's policy labels compare seq against OpenMP at the
  // default schedule, so those two variants are always measured.
  const ml::search::Result result = ml::search::TwoStageSearch(config).run(
      space, cheap, measure, {{0, 0, 0}, {1, 0, 0}}, canonical);
  for (const auto& m : result.measurements) {
    const SearchVariant variant = variant_at(space, m.point);
    emit_record(kernel, iset, variant.policy, variant.chunk, m.seconds, variant.team);
  }
  record_search_metrics(result.stats.measured, result.stats.skipped, result.stats.seeded);
}

}  // namespace apollo
