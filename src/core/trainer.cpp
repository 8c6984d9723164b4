#include "core/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>

#include "core/features.hpp"

namespace apollo {

namespace {

/// Mean-runtime accumulator per (row, label).
struct RuntimeAccumulator {
  double sum = 0.0;
  std::int64_t count = 0;
  [[nodiscard]] double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

/// A record kept for training, with the fields the labeling pass reads.
struct UsableRecord {
  const perf::SampleRecord* record;
  const perf::Value* label;    ///< the tuned parameter's value in this record
  const perf::Value* runtime;  ///< measure:runtime
};

/// Groups encoded rows by value and keeps them in first-seen order: an
/// open-addressing table of group ids over the stored rows. Values compare
/// with `==`, so -0.0 and 0.0 share a group as they do under `<`; NaN, which
/// `==` never matches, groups with NaN.
class RowGroups {
public:
  /// Group id of `row` (a new group, id == size() before the call, when
  /// unseen; `added` says which).
  std::size_t find_or_add(const std::vector<double>& row, bool& added) {
    if ((rows_.size() + 1) * 2 > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t slot = hash(row) & mask;; slot = (slot + 1) & mask) {
      if (slots_[slot] == 0) {
        rows_.push_back(row);
        slots_[slot] = rows_.size();
        added = true;
        return rows_.size() - 1;
      }
      if (same(rows_[slots_[slot] - 1], row)) {
        added = false;
        return slots_[slot] - 1;
      }
    }
  }

  [[nodiscard]] std::vector<std::vector<double>>& rows() noexcept { return rows_; }

private:
  static std::uint64_t hash(const std::vector<double>& row) noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (double value : row) {
      if (value == 0.0) value = 0.0;  // -0.0 hashes as 0.0
      std::uint64_t bits = 0x7ff8000000000000ULL;  // every NaN hashes alike
      if (!std::isnan(value)) std::memcpy(&bits, &value, sizeof(bits));
      h = (h ^ bits) * 0x100000001b3ULL;
      h ^= h >> 29;
    }
    // splitmix64 finalizer: the table indexes by the low bits.
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
  }

  static bool same(const std::vector<double>& a, const std::vector<double>& b) noexcept {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i] && !(std::isnan(a[i]) && std::isnan(b[i]))) return false;
    }
    return true;
  }

  void grow() {
    slots_.assign(std::max<std::size_t>(64, slots_.size() * 2), 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t g = 0; g < rows_.size(); ++g) {
      std::size_t slot = hash(rows_[g]) & mask;
      while (slots_[slot] != 0) slot = (slot + 1) & mask;
      slots_[slot] = g + 1;
    }
  }

  std::vector<std::vector<double>> rows_;
  std::vector<std::size_t> slots_;  ///< group id + 1; 0 marks an empty slot
};

}  // namespace

double LabeledData::total_runtime_oracle() const {
  double total = 0.0;
  for (std::size_t r = 0; r < runtimes.size(); ++r) {
    double best = std::numeric_limits<double>::max();
    for (const auto& [label, seconds] : runtimes[r]) best = std::min(best, seconds);
    total += best * static_cast<double>(row_counts[r]);
  }
  return total;
}

double LabeledData::total_runtime_static(int label) const {
  double total = 0.0;
  for (std::size_t r = 0; r < runtimes.size(); ++r) {
    auto it = runtimes[r].find(label);
    if (it == runtimes[r].end()) {
      throw std::invalid_argument("LabeledData: static label missing for a row");
    }
    total += it->second * static_cast<double>(row_counts[r]);
  }
  return total;
}

double LabeledData::total_runtime_predicted(const std::vector<int>& predictions) const {
  if (predictions.size() != runtimes.size()) {
    throw std::invalid_argument("LabeledData: prediction count mismatch");
  }
  double total = 0.0;
  for (std::size_t r = 0; r < runtimes.size(); ++r) {
    auto it = runtimes[r].find(predictions[r]);
    if (it == runtimes[r].end()) {
      // The model picked a value never measured for this launch; charge the
      // worst observed value (pessimistic but defined).
      double worst = 0.0;
      for (const auto& [label, seconds] : runtimes[r]) worst = std::max(worst, seconds);
      total += worst * static_cast<double>(row_counts[r]);
    } else {
      total += it->second * static_cast<double>(row_counts[r]);
    }
  }
  return total;
}

LabeledData Trainer::build_labeled_data(const std::vector<perf::SampleRecord>& records,
                                        TunedParameter parameter) {
  // One in-order walk of each record finds its parameter and runtime values
  // and its feature entries. Usable records then add to the feature schema
  // (union of non-meta keys, sorted for stability), the categories of every
  // feature that ever carries a string, and the label vocabulary. Records and
  // the schema are both sorted maps, so each record merge-walks the schema.
  std::vector<UsableRecord> usable;
  usable.reserve(records.size());
  std::map<std::string, std::set<std::string>> schema;
  std::set<std::string> policy_labels;
  std::set<std::int64_t> numeric_labels;
  std::vector<const perf::SampleRecord::value_type*> entries;
  for (const auto& record : records) {
    const perf::Value* runtime = nullptr;
    const perf::Value* policy = nullptr;
    const perf::Value* chunk = nullptr;
    const perf::Value* threads = nullptr;
    entries.clear();
    for (const auto& entry : record) {
      if (!features::is_meta_key(entry.first)) {
        entries.push_back(&entry);
      } else if (entry.first == features::kMeasureRuntime) {
        runtime = &entry.second;
      } else if (entry.first == features::kParamPolicy) {
        policy = &entry.second;
      } else if (entry.first == features::kParamChunk) {
        chunk = &entry.second;
      } else if (entry.first == features::kParamThreads) {
        threads = &entry.second;
      }
    }
    if (runtime == nullptr) continue;
    // Chunk-size models only make sense over OpenMP executions.
    const bool is_omp = policy == nullptr || policy->as_string() == "omp";
    const bool default_chunk = chunk == nullptr || chunk->as_int() <= 0;
    const perf::Value* label = nullptr;
    switch (parameter) {
      case TunedParameter::Policy:
        // Policy labels compare seq against OpenMP at the *default* schedule
        // and team size; sweep samples of the other parameters are excluded.
        if (policy == nullptr || !default_chunk) continue;
        if (threads != nullptr && policy->as_string() == "omp" && threads->as_int() > 0) {
          continue;  // explicit team-size sample, not the default
        }
        label = policy;
        policy_labels.insert(label->as_string());
        break;
      case TunedParameter::ChunkSize:
        // Chunk models choose among the explicit values (paper: 1..1024) on
        // OpenMP executions; the default-schedule sample is not a label.
        if (chunk == nullptr || chunk->as_int() <= 0 || !is_omp) continue;
        label = chunk;
        numeric_labels.insert(label->as_int());
        break;
      case TunedParameter::Threads:
        // Team-size models: OpenMP at the default schedule, explicit teams.
        if (threads == nullptr || threads->as_int() <= 0 || !is_omp || !default_chunk) continue;
        label = threads;
        numeric_labels.insert(label->as_int());
        break;
    }
    usable.push_back(UsableRecord{&record, label, runtime});

    auto column = schema.begin();
    for (const auto* entry : entries) {
      while (column != schema.end() && column->first < entry->first) ++column;
      if (column == schema.end() || column->first != entry->first) {
        column = schema.emplace_hint(column, entry->first, std::set<std::string>{});
      }
      if (entry->second.is_string()) column->second.insert(entry->second.as_string());
      ++column;
    }
  }
  if (usable.empty()) throw std::invalid_argument("Trainer: no usable training records");

  LabeledData data;
  std::vector<std::string> feature_keys;
  feature_keys.reserve(schema.size());
  // Per column: the sorted categories, or null for a numeric feature.
  std::vector<const std::vector<std::string>*> column_categories;
  column_categories.reserve(schema.size());
  for (auto& [key, categories] : schema) {
    feature_keys.push_back(key);
    if (categories.empty()) {
      column_categories.push_back(nullptr);
    } else {
      auto& dictionary = data.dictionaries[key];
      dictionary.assign(categories.begin(), categories.end());
      column_categories.push_back(&dictionary);
    }
  }

  // Label vocabulary (sorted: "omp"<"seq" lexicographically for policy;
  // numeric ascending for chunk sizes and team sizes).
  std::vector<std::string> label_values;
  if (parameter == TunedParameter::Policy) {
    label_values.assign(policy_labels.begin(), policy_labels.end());
  } else {
    for (const std::int64_t value : numeric_labels) label_values.push_back(std::to_string(value));
  }
  const std::vector<std::int64_t> numeric_values(numeric_labels.begin(), numeric_labels.end());
  const auto label_index = [&](const perf::Value& value) -> std::size_t {
    if (parameter == TunedParameter::Policy) {
      return static_cast<std::size_t>(
          std::lower_bound(label_values.begin(), label_values.end(), value.as_string()) -
          label_values.begin());
    }
    return static_cast<std::size_t>(
        std::lower_bound(numeric_values.begin(), numeric_values.end(), value.as_int()) -
        numeric_values.begin());
  };

  // Encode each record by merge-walking it against the sorted feature keys
  // (absent features encode -1, strings their dictionary code), then group
  // samples by encoded feature vector. Accumulators are flat: one slot per
  // (group, label).
  const std::size_t num_labels = label_values.size();
  RowGroups groups;
  std::vector<RuntimeAccumulator> accumulators;
  std::vector<std::string> group_loop_ids;
  std::vector<double> row(feature_keys.size());
  for (const UsableRecord& use : usable) {
    const perf::SampleRecord& record = *use.record;
    auto entry = record.begin();
    for (std::size_t f = 0; f < feature_keys.size(); ++f) {
      while (entry != record.end() && entry->first < feature_keys[f]) ++entry;
      double value = -1.0;
      if (entry != record.end() && entry->first == feature_keys[f]) {
        if (!entry->second.is_string()) {
          value = entry->second.as_number();
        } else {
          const auto& categories = *column_categories[f];
          value = static_cast<double>(std::lower_bound(categories.begin(), categories.end(),
                                                       entry->second.as_string()) -
                                      categories.begin());
        }
        ++entry;
      }
      row[f] = value;
    }

    bool added = false;
    const std::size_t group = groups.find_or_add(row, added);
    if (added) {
      accumulators.resize(accumulators.size() + num_labels);
      auto loop_it = record.find(features::kLoopId);
      group_loop_ids.push_back(loop_it != record.end() ? loop_it->second.as_string() : "");
    }
    auto& acc = accumulators[group * num_labels + label_index(*use.label)];
    acc.sum += use.runtime->as_number();
    acc.count += 1;
  }

  // Each group contributed `count` samples across parameter variants; the
  // number of *launches* it represents is the max samples seen for any one
  // variant (a full sweep measures each variant once per launch).
  data.dataset = ml::Dataset(std::move(feature_keys), std::move(label_values));
  auto& group_features = groups.rows();
  data.runtimes.reserve(group_features.size());
  for (std::size_t g = 0; g < group_features.size(); ++g) {
    int best_label = -1;
    double best_runtime = std::numeric_limits<double>::max();
    std::map<int, double> means;
    std::int64_t launches = 1;
    for (std::size_t label = 0; label < num_labels; ++label) {
      const RuntimeAccumulator& acc = accumulators[g * num_labels + label];
      if (acc.count == 0) continue;
      const double mean = acc.mean();
      means.emplace_hint(means.end(), static_cast<int>(label), mean);
      launches = std::max(launches, acc.count);
      if (mean < best_runtime) {
        best_runtime = mean;
        best_label = static_cast<int>(label);
      }
    }
    data.dataset.add_row(std::move(group_features[g]), best_label);
    data.runtimes.push_back(std::move(means));
    data.row_loop_ids.push_back(std::move(group_loop_ids[g]));
    data.row_counts.push_back(launches);
  }
  return data;
}

TunerModel Trainer::train(const LabeledData& data, TunedParameter parameter,
                          const ml::TreeParams& params) {
  ml::DecisionTree tree = ml::DecisionTree::fit(data.dataset, params);
  return TunerModel(parameter, std::move(tree), data.dictionaries);
}

TunerModel Trainer::train(const std::vector<perf::SampleRecord>& records, TunedParameter parameter,
                          const ml::TreeParams& params) {
  return train(build_labeled_data(records, parameter), parameter, params);
}

}  // namespace apollo
