#include "online/sample_buffer.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>

#include "core/features.hpp"
#include "telemetry/telemetry.hpp"

namespace apollo::online {

namespace {

/// Metric handles resolved once (registry lookups take a lock; push must not).
struct BufferTelemetry {
  telemetry::Counter* pushed;
  telemetry::Counter* dropped;
  telemetry::Gauge* occupancy;
  telemetry::Gauge* capacity;
};

BufferTelemetry& buffer_telemetry() {
  static BufferTelemetry handles = [] {
    auto& registry = telemetry::MetricsRegistry::instance();
    return BufferTelemetry{
        &registry.counter("apollo_samples_pushed_total",
                          "Samples pushed into the runtime sample buffer."),
        &registry.counter("apollo_samples_dropped_total",
                          "Samples overwritten by newer pushes before a consumer saw them."),
        &registry.gauge("apollo_sample_buffer_occupancy",
                        "Samples currently retained in the buffer."),
        &registry.gauge("apollo_sample_buffer_capacity", "Configured sample-buffer capacity.")};
  }();
  return handles;
}

/// The 42 keys a Sample always fills, in the record map's key order, each
/// with the Sample field it comes from. Built once.
struct FixedKey {
  enum class Field : std::uint8_t {
    Func, FuncSize, IndexType, LoopId, NumIndices, NumSegments, Stride, Mnemonic,
    Policy, Chunk, Threads, BytesPerIter, Runtime
  };
  std::string key;
  Field field;
  instr::Mnemonic mnemonic = instr::Mnemonic::count_;
};

const std::vector<FixedKey>& fixed_keys() {
  using Field = FixedKey::Field;
  static const std::vector<FixedKey> plan = [] {
    std::vector<FixedKey> keys = {
        {features::kFunc, Field::Func},
        {features::kFuncSize, Field::FuncSize},
        {features::kIndexType, Field::IndexType},
        {features::kLoopId, Field::LoopId},
        {features::kNumIndices, Field::NumIndices},
        {features::kNumSegments, Field::NumSegments},
        {features::kStride, Field::Stride},
        {features::kParamPolicy, Field::Policy},
        {features::kParamChunk, Field::Chunk},
        {features::kParamThreads, Field::Threads},
        {features::kMeasureBytesPerIter, Field::BytesPerIter},
        {features::kMeasureRuntime, Field::Runtime}};
    for (std::size_t m = 0; m < instr::kMnemonicCount; ++m) {
      const auto mnemonic = static_cast<instr::Mnemonic>(m);
      keys.push_back({instr::mnemonic_name(mnemonic), Field::Mnemonic, mnemonic});
    }
    std::sort(keys.begin(), keys.end(),
              [](const FixedKey& a, const FixedKey& b) { return a.key < b.key; });
    return keys;
  }();
  return plan;
}

}  // namespace

perf::SampleRecord Sample::materialize() const {
  using Field = FixedKey::Field;
  // Merge the blackboard snapshot with the fixed keys, both in key order, so
  // every node is appended at the end of the map. A fixed key overwrites an
  // app attribute of the same name, except threads and bytes/iter, which a
  // Sample only fills when nonzero.
  perf::SampleRecord record;
  static const perf::SampleRecord kNoApp;
  const perf::SampleRecord& attributes = app ? *app : kNoApp;
  auto attr = attributes.begin();
  const auto append_attributes_before = [&](const std::string* key) {
    for (; attr != attributes.end() && (key == nullptr || attr->first < *key); ++attr) {
      record.emplace_hint(record.end(), *attr);
    }
  };
  for (const FixedKey& fixed : fixed_keys()) {
    append_attributes_before(&fixed.key);
    perf::Value value;
    bool filled = true;
    switch (fixed.field) {
      case Field::Func: value = func; break;
      case Field::FuncSize: value = mix.total(); break;
      case Field::IndexType: value = index_type; break;
      case Field::LoopId: value = loop_id; break;
      case Field::NumIndices: value = num_indices; break;
      case Field::NumSegments: value = num_segments; break;
      case Field::Stride: value = stride; break;
      case Field::Mnemonic: value = mix.count(fixed.mnemonic); break;
      case Field::Policy: value = raja::policy_name(policy); break;
      case Field::Chunk: value = chunk; break;
      case Field::Threads:
        filled = threads > 0;
        value = static_cast<std::int64_t>(threads);
        break;
      case Field::BytesPerIter:
        filled = bytes_per_iter > 0;
        value = bytes_per_iter;
        break;
      case Field::Runtime: value = seconds; break;
    }
    const bool shadowed = attr != attributes.end() && attr->first == fixed.key;
    if (filled) {
      record.emplace_hint(record.end(), fixed.key, std::move(value));
    } else if (shadowed) {
      record.emplace_hint(record.end(), *attr);
    }
    if (shadowed) ++attr;
  }
  append_attributes_before(nullptr);
  return record;
}

SampleBuffer::SampleBuffer(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {
  // Memory tracks the number of samples actually retained: the ring grows by
  // push_back until it reaches capacity, then wraps.
}

void SampleBuffer::push(Sample sample) {
  auto shared = std::make_shared<const Sample>(std::move(sample));
  const bool telem = telemetry::enabled();
  bool overwrote = false;
  std::size_t occupancy = 0;
  std::size_t capacity = 0;
  {
    std::lock_guard lock(mutex_);
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(shared));
    } else {
      ring_[next_] = std::move(shared);
      next_ = (next_ + 1) % capacity_;
      overwrote = true;
    }
    occupancy = ring_.size();
    capacity = capacity_;
    pushed_.fetch_add(1, std::memory_order_release);
  }
  if (telem) {
    auto& handles = buffer_telemetry();
    handles.pushed->inc();
    if (overwrote) handles.dropped->inc();
    handles.occupancy->set(static_cast<double>(occupancy));
    handles.capacity->set(static_cast<double>(capacity));
    telemetry::emit_instant(telemetry::EventKind::SamplePush, "sample_push", occupancy);
  }
}

std::size_t SampleBuffer::size() const {
  std::lock_guard lock(mutex_);
  return ring_.size();
}

std::uint64_t SampleBuffer::dropped() const {
  std::lock_guard lock(mutex_);
  return pushed_.load(std::memory_order_relaxed) - ring_.size();
}

std::vector<SampleBuffer::SharedSample> SampleBuffer::take_ordered_locked() {
  std::vector<SharedSample> out;
  out.reserve(ring_.size());
  // Oldest sample sits at next_ once the ring has wrapped, at 0 before.
  const std::size_t start = ring_.size() < capacity_ ? 0 : next_;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(std::move(ring_[(start + i) % ring_.size()]));
  }
  ring_.clear();
  next_ = 0;
  return out;
}

std::vector<perf::SampleRecord> SampleBuffer::snapshot() const {
  std::vector<perf::SampleRecord> out;
  const auto shared = snapshot_shared();
  out.reserve(shared.size());
  for (const auto& sample : shared) out.push_back(sample->materialize());
  return out;
}

std::vector<SampleBuffer::SharedSample> SampleBuffer::snapshot_shared(
    std::size_t max_samples) const {
  std::vector<SharedSample> out;
  std::lock_guard lock(mutex_);
  const std::size_t count =
      max_samples > 0 ? std::min(max_samples, ring_.size()) : ring_.size();
  out.reserve(count);
  const std::size_t start = ring_.size() < capacity_ ? 0 : next_;
  // Newest `count` samples, emitted oldest first.
  for (std::size_t i = ring_.size() - count; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::vector<perf::SampleRecord> SampleBuffer::drain() {
  std::vector<SharedSample> taken;
  {
    std::lock_guard lock(mutex_);
    taken = take_ordered_locked();
  }
  std::vector<perf::SampleRecord> out;
  out.reserve(taken.size());
  for (const auto& sample : taken) out.push_back(sample->materialize());
  return out;
}

std::size_t SampleBuffer::drain_into(std::vector<SharedSample>& out) {
  std::vector<SharedSample> taken;
  {
    std::lock_guard lock(mutex_);
    taken = take_ordered_locked();
  }
  const std::size_t count = taken.size();
  if (out.empty()) {
    out = std::move(taken);
  } else {
    out.insert(out.end(), std::make_move_iterator(taken.begin()),
               std::make_move_iterator(taken.end()));
  }
  return count;
}

void SampleBuffer::clear() {
  std::lock_guard lock(mutex_);
  ring_.clear();
  next_ = 0;
}

void SampleBuffer::set_capacity(std::size_t capacity) {
  std::lock_guard lock(mutex_);
  std::vector<SharedSample> kept = take_ordered_locked();
  capacity_ = std::max<std::size_t>(capacity, 1);
  if (kept.size() > capacity_) {
    kept.erase(kept.begin(), kept.end() - static_cast<std::ptrdiff_t>(capacity_));
  }
  ring_ = std::move(kept);
}

}  // namespace apollo::online
