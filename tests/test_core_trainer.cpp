// Unit tests for the trainer pipeline: grouping, argmin labeling, the
// runtime tables behind the oracle/static comparisons, and model training.
// The labeling is pinned against a straightforward reference implementation
// (per-key map lookups, std::map grouping) on application Record sweeps and
// randomized corpora.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <sstream>

#include "apps/application.hpp"
#include "core/features.hpp"
#include "core/runtime.hpp"
#include "core/trainer.hpp"

using apollo::LabeledData;
using apollo::Trainer;
using apollo::TunedParameter;
using apollo::perf::SampleRecord;
namespace features = apollo::features;

namespace {

SampleRecord make_record(std::int64_t num_indices, const std::string& policy, std::int64_t chunk,
                         double runtime, const std::string& loop_id = "k1") {
  SampleRecord r;
  r["loop_id"] = loop_id;
  r["num_indices"] = num_indices;
  r["param:policy"] = policy;
  r["param:chunk_size"] = chunk;
  r["measure:runtime"] = runtime;
  return r;
}

/// Small launches favour seq, large favour omp; two launches each, swept.
std::vector<SampleRecord> sweep_records() {
  std::vector<SampleRecord> records;
  for (int rep = 0; rep < 2; ++rep) {
    records.push_back(make_record(100, "seq", 0, 1e-6));
    records.push_back(make_record(100, "omp", 0, 1e-5));
    records.push_back(make_record(100000, "seq", 0, 1e-3));
    records.push_back(make_record(100000, "omp", 0, 1e-4));
  }
  return records;
}

}  // namespace

TEST(Trainer, GroupsIdenticalFeatureVectors) {
  const LabeledData data = Trainer::build_labeled_data(sweep_records(), TunedParameter::Policy);
  EXPECT_EQ(data.dataset.num_rows(), 2u);  // two unique feature vectors
  EXPECT_EQ(data.row_counts, (std::vector<std::int64_t>{2, 2}));
}

TEST(Trainer, LabelsAreArgminRuntime) {
  const LabeledData data = Trainer::build_labeled_data(sweep_records(), TunedParameter::Policy);
  const auto& labels = data.dataset.label_names();
  const std::size_t ni = data.dataset.feature_index("num_indices");
  for (std::size_t r = 0; r < data.dataset.num_rows(); ++r) {
    const std::string expected = data.dataset.row(r)[ni] < 1000 ? "seq" : "omp";
    EXPECT_EQ(labels[static_cast<std::size_t>(data.dataset.label(r))], expected);
  }
}

TEST(Trainer, RuntimeTableHoldsMeansPerLabel) {
  const LabeledData data = Trainer::build_labeled_data(sweep_records(), TunedParameter::Policy);
  for (std::size_t r = 0; r < data.runtimes.size(); ++r) {
    EXPECT_EQ(data.runtimes[r].size(), 2u);  // both labels measured
  }
}

TEST(Trainer, OracleBeatsOrTiesAnyStatic) {
  const LabeledData data = Trainer::build_labeled_data(sweep_records(), TunedParameter::Policy);
  const double oracle = data.total_runtime_oracle();
  for (int label = 0; label < 2; ++label) {
    EXPECT_LE(oracle, data.total_runtime_static(label) + 1e-15);
  }
  // Static "omp" costs the small kernel's penalty on every launch.
  const auto& labels = data.dataset.label_names();
  const int omp = static_cast<int>(
      std::find(labels.begin(), labels.end(), "omp") - labels.begin());
  EXPECT_NEAR(data.total_runtime_static(omp), 2 * (1e-5 + 1e-4), 1e-12);
  EXPECT_NEAR(oracle, 2 * (1e-6 + 1e-4), 1e-12);
}

TEST(Trainer, PredictedRuntimeUsesPerRowTable) {
  const LabeledData data = Trainer::build_labeled_data(sweep_records(), TunedParameter::Policy);
  std::vector<int> oracle_predictions;
  for (std::size_t r = 0; r < data.dataset.num_rows(); ++r) {
    oracle_predictions.push_back(data.dataset.label(r));
  }
  EXPECT_NEAR(data.total_runtime_predicted(oracle_predictions), data.total_runtime_oracle(),
              1e-15);
  EXPECT_THROW((void)data.total_runtime_predicted({0}), std::invalid_argument);
}

TEST(Trainer, MeanRuntimePerGroupAveragesRepeats) {
  std::vector<SampleRecord> records;
  records.push_back(make_record(50, "seq", 0, 1.0));
  records.push_back(make_record(50, "seq", 0, 3.0));
  records.push_back(make_record(50, "omp", 0, 10.0));
  const LabeledData data = Trainer::build_labeled_data(records, TunedParameter::Policy);
  ASSERT_EQ(data.dataset.num_rows(), 1u);
  const auto& labels = data.dataset.label_names();
  const int seq = static_cast<int>(
      std::find(labels.begin(), labels.end(), "seq") - labels.begin());
  EXPECT_DOUBLE_EQ(data.runtimes[0].at(seq), 2.0);  // mean of 1 and 3
  EXPECT_EQ(data.row_counts[0], 2);                 // two launches of the seq variant
}

TEST(Trainer, ChunkDataUsesOnlyOmpSamples) {
  std::vector<SampleRecord> records;
  records.push_back(make_record(1000, "seq", 0, 1e-5));
  records.push_back(make_record(1000, "omp", 64, 2e-5));
  records.push_back(make_record(1000, "omp", 128, 1e-5));
  const LabeledData data = Trainer::build_labeled_data(records, TunedParameter::ChunkSize);
  EXPECT_EQ(data.dataset.num_rows(), 1u);
  EXPECT_EQ(data.dataset.label_names(), (std::vector<std::string>{"64", "128"}));
  EXPECT_EQ(data.dataset.label_names()[static_cast<std::size_t>(data.dataset.label(0))], "128");
}

TEST(Trainer, ChunkLabelsSortedNumerically) {
  std::vector<SampleRecord> records;
  for (std::int64_t chunk : {1024, 2, 128, 16}) {
    records.push_back(make_record(1000, "omp", chunk, 1e-5 / static_cast<double>(chunk)));
  }
  const LabeledData data = Trainer::build_labeled_data(records, TunedParameter::ChunkSize);
  EXPECT_EQ(data.dataset.label_names(),
            (std::vector<std::string>{"2", "16", "128", "1024"}));
}

TEST(Trainer, CategoricalFeaturesGetDictionaries) {
  std::vector<SampleRecord> records = sweep_records();
  for (auto& r : records) r["problem_name"] = "sedov";
  records[0]["problem_name"] = "sod";
  const LabeledData data = Trainer::build_labeled_data(records, TunedParameter::Policy);
  ASSERT_TRUE(data.dictionaries.count("problem_name"));
  EXPECT_EQ(data.dictionaries.at("problem_name"),
            (std::vector<std::string>{"sedov", "sod"}));
  EXPECT_TRUE(data.dictionaries.count("loop_id"));
  EXPECT_FALSE(data.dictionaries.count("num_indices"));
}

TEST(Trainer, MissingFeatureEncodedMinusOne) {
  std::vector<SampleRecord> records = sweep_records();
  records[0]["extra"] = 5;  // only present on one record
  const LabeledData data = Trainer::build_labeled_data(records, TunedParameter::Policy);
  const std::size_t extra = data.dataset.feature_index("extra");
  bool saw_minus_one = false, saw_five = false;
  for (std::size_t r = 0; r < data.dataset.num_rows(); ++r) {
    if (data.dataset.row(r)[extra] == -1.0) saw_minus_one = true;
    if (data.dataset.row(r)[extra] == 5.0) saw_five = true;
  }
  EXPECT_TRUE(saw_minus_one);
  EXPECT_TRUE(saw_five);
}

TEST(Trainer, NoUsableRecordsThrows) {
  EXPECT_THROW((void)Trainer::build_labeled_data({}, TunedParameter::Policy),
               std::invalid_argument);
  std::vector<SampleRecord> seq_only;
  seq_only.push_back(make_record(10, "seq", 0, 1.0));
  EXPECT_THROW((void)Trainer::build_labeled_data(seq_only, TunedParameter::ChunkSize),
               std::invalid_argument);
}

TEST(Trainer, TrainedModelPredictsArgmin) {
  // The grouped dataset has only two rows; relax the split minimums.
  apollo::ml::TreeParams params;
  params.min_samples_leaf = 1;
  params.min_samples_split = 2;
  const apollo::TunerModel model =
      Trainer::train(sweep_records(), TunedParameter::Policy, params);
  EXPECT_EQ(model.parameter(), TunedParameter::Policy);
  const auto resolve_small = [](const std::string& name) -> std::optional<apollo::perf::Value> {
    if (name == "num_indices") return apollo::perf::Value(std::int64_t{100});
    if (name == "loop_id") return apollo::perf::Value("k1");
    return std::nullopt;
  };
  const auto resolve_large = [](const std::string& name) -> std::optional<apollo::perf::Value> {
    if (name == "num_indices") return apollo::perf::Value(std::int64_t{100000});
    if (name == "loop_id") return apollo::perf::Value("k1");
    return std::nullopt;
  };
  EXPECT_EQ(model.label_name(model.predict(resolve_small)), "seq");
  EXPECT_EQ(model.label_name(model.predict(resolve_large)), "omp");
}

// --- reference labeling -------------------------------------------------------

namespace {

/// Straightforward labeling: per-feature map lookups, linear category search,
/// label strings, and std::map grouping by feature vector. Kept as the oracle
/// Trainer::build_labeled_data must match field for field (NaN-free inputs:
/// std::map's `<` cannot order NaN).
LabeledData reference_labeled_data(const std::vector<SampleRecord>& records,
                                   TunedParameter parameter) {
  struct Accumulator {
    double sum = 0.0;
    std::int64_t count = 0;
  };
  const auto param_value = [&](const SampleRecord& record) -> std::string {
    switch (parameter) {
      case TunedParameter::Policy: return record.at(features::kParamPolicy).as_string();
      case TunedParameter::ChunkSize:
        return std::to_string(record.at(features::kParamChunk).as_int());
      case TunedParameter::Threads:
        return std::to_string(record.at(features::kParamThreads).as_int());
    }
    return {};
  };
  std::vector<const SampleRecord*> usable;
  for (const auto& record : records) {
    if (!record.count(features::kMeasureRuntime)) continue;
    const auto policy_it = record.find(features::kParamPolicy);
    const auto chunk_it = record.find(features::kParamChunk);
    const auto threads_it = record.find(features::kParamThreads);
    const bool is_omp = policy_it == record.end() || policy_it->second.as_string() == "omp";
    const bool default_chunk = chunk_it == record.end() || chunk_it->second.as_int() <= 0;
    switch (parameter) {
      case TunedParameter::Policy:
        if (policy_it == record.end() || !default_chunk) continue;
        if (threads_it != record.end() && policy_it->second.as_string() == "omp" &&
            threads_it->second.as_int() > 0) {
          continue;
        }
        break;
      case TunedParameter::ChunkSize:
        if (chunk_it == record.end() || chunk_it->second.as_int() <= 0 || !is_omp) continue;
        break;
      case TunedParameter::Threads:
        if (threads_it == record.end() || threads_it->second.as_int() <= 0 || !is_omp ||
            !default_chunk) {
          continue;
        }
        break;
    }
    usable.push_back(&record);
  }
  if (usable.empty()) throw std::invalid_argument("Trainer: no usable training records");

  std::set<std::string> key_set;
  for (const auto* record : usable) {
    for (const auto& [key, value] : *record) {
      if (!features::is_meta_key(key)) key_set.insert(key);
    }
  }
  const std::vector<std::string> feature_keys(key_set.begin(), key_set.end());
  LabeledData data;
  for (const auto& key : feature_keys) {
    std::set<std::string> categories;
    bool is_categorical = false;
    for (const auto* record : usable) {
      auto it = record->find(key);
      if (it != record->end() && it->second.is_string()) {
        is_categorical = true;
        categories.insert(it->second.as_string());
      }
    }
    if (is_categorical) {
      data.dictionaries[key] = std::vector<std::string>(categories.begin(), categories.end());
    }
  }
  std::vector<std::string> label_values;
  {
    std::set<std::string> values;
    for (const auto* record : usable) values.insert(param_value(*record));
    label_values.assign(values.begin(), values.end());
    if (parameter != TunedParameter::Policy) {
      std::sort(label_values.begin(), label_values.end(),
                [](const std::string& a, const std::string& b) { return std::stoll(a) < std::stoll(b); });
    }
  }
  const auto label_index = [&](const std::string& value) {
    return static_cast<int>(std::find(label_values.begin(), label_values.end(), value) -
                            label_values.begin());
  };
  const auto encode = [&](const std::string& key, const SampleRecord& record) -> double {
    auto it = record.find(key);
    if (it == record.end()) return -1.0;
    if (!it->second.is_string()) return it->second.as_number();
    const auto& categories = data.dictionaries.at(key);
    return static_cast<double>(
        std::find(categories.begin(), categories.end(), it->second.as_string()) -
        categories.begin());
  };

  std::map<std::vector<double>, std::size_t> group_of;
  std::vector<std::map<int, Accumulator>> accumulators;
  std::vector<std::vector<double>> group_features;
  std::vector<std::string> group_loop_ids;
  for (const auto* record : usable) {
    std::vector<double> row;
    for (const auto& key : feature_keys) row.push_back(encode(key, *record));
    auto [it, inserted] = group_of.try_emplace(row, accumulators.size());
    if (inserted) {
      accumulators.emplace_back();
      group_features.push_back(row);
      auto loop_it = record->find(features::kLoopId);
      group_loop_ids.push_back(loop_it != record->end() ? loop_it->second.as_string() : "");
    }
    auto& acc = accumulators[it->second][label_index(param_value(*record))];
    acc.sum += record->at(features::kMeasureRuntime).as_number();
    acc.count += 1;
  }
  data.dataset = apollo::ml::Dataset(feature_keys, label_values);
  for (std::size_t g = 0; g < accumulators.size(); ++g) {
    int best_label = -1;
    double best_runtime = std::numeric_limits<double>::max();
    std::map<int, double> means;
    std::int64_t launches = 1;
    for (const auto& [label, acc] : accumulators[g]) {
      const double mean = acc.sum / static_cast<double>(acc.count);
      means[label] = mean;
      launches = std::max(launches, acc.count);
      if (mean < best_runtime) {
        best_runtime = mean;
        best_label = label;
      }
    }
    data.dataset.add_row(group_features[g], best_label);
    data.runtimes.push_back(std::move(means));
    data.row_loop_ids.push_back(group_loop_ids[g]);
    data.row_counts.push_back(launches);
  }
  return data;
}

std::string saved_tree(const LabeledData& data, TunedParameter parameter) {
  std::ostringstream out;
  Trainer::train(data, parameter).save(out);
  return out.str();
}

/// Field-for-field equality; rows compare bit for bit (so a group keeps the
/// first-seen sign of a zero), and the trees fitted on both save identically.
void expect_same_labeling(const std::vector<SampleRecord>& records, TunedParameter parameter,
                          const std::string& what) {
  SCOPED_TRACE(what + " / " + apollo::tuned_parameter_name(parameter));
  LabeledData expected;
  try {
    expected = reference_labeled_data(records, parameter);
  } catch (const std::invalid_argument&) {
    EXPECT_THROW((void)Trainer::build_labeled_data(records, parameter), std::invalid_argument);
    return;
  }
  const LabeledData actual = Trainer::build_labeled_data(records, parameter);
  ASSERT_EQ(actual.dataset.feature_names(), expected.dataset.feature_names());
  ASSERT_EQ(actual.dataset.label_names(), expected.dataset.label_names());
  ASSERT_EQ(actual.dataset.num_rows(), expected.dataset.num_rows());
  for (std::size_t r = 0; r < expected.dataset.num_rows(); ++r) {
    const auto& a = actual.dataset.row(r);
    const auto& e = expected.dataset.row(r);
    ASSERT_EQ(a.size(), e.size());
    EXPECT_EQ(std::memcmp(a.data(), e.data(), e.size() * sizeof(double)), 0) << "row " << r;
    EXPECT_EQ(actual.dataset.label(r), expected.dataset.label(r)) << "row " << r;
  }
  EXPECT_EQ(actual.runtimes, expected.runtimes);
  EXPECT_EQ(actual.dictionaries, expected.dictionaries);
  EXPECT_EQ(actual.row_loop_ids, expected.row_loop_ids);
  EXPECT_EQ(actual.row_counts, expected.row_counts);
  EXPECT_EQ(saved_tree(actual, parameter), saved_tree(expected, parameter));
}

constexpr TunedParameter kParameters[] = {TunedParameter::Policy, TunedParameter::ChunkSize,
                                          TunedParameter::Threads};

/// A Record sweep of one application run: every launch recorded for both
/// policies, three chunk sizes and two team sizes.
std::vector<SampleRecord> record_sweep(apollo::apps::Application& app,
                                       const apollo::apps::RunConfig& run) {
  auto& rt = apollo::Runtime::instance();
  rt.reset();
  rt.set_mode(apollo::Mode::Record);
  rt.set_timing_source(apollo::TimingSource::Model);
  rt.set_execute_selected(false);
  apollo::TrainingConfig training;
  training.sweep_variants = true;
  training.chunk_values = {8, 64, 512};
  training.thread_values = {2, 4};
  rt.set_training_config(training);
  app.run(run);
  std::vector<SampleRecord> records = rt.records();
  rt.reset();
  return records;
}

/// Random records over a small value space so feature vectors repeat; keys
/// go missing, one key is a string in some records and a number (colliding
/// with category codes) in others, zeros come with either sign, and the
/// parameter keys cover policy, chunk and team-size samples.
std::vector<SampleRecord> random_corpus(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::uint64_t n) { return rng() % n; };
  std::vector<SampleRecord> records;
  for (int i = 0; i < 400; ++i) {
    SampleRecord r;
    static constexpr const char* kLoops[] = {"k0", "k1", "k2", "k3"};
    if (pick(8) != 0) r[features::kLoopId] = kLoops[pick(4)];
    if (pick(4) != 0) r[features::kNumIndices] = static_cast<std::int64_t>(pick(4) * 100);
    switch (pick(3)) {
      case 0: r["mixed"] = pick(2) != 0 ? "b" : "a"; break;
      case 1: r["mixed"] = static_cast<std::int64_t>(pick(3)); break;
      default: break;
    }
    r["signed_zero"] = pick(2) != 0 ? 0.0 : -0.0;
    if (pick(5) == 0) r["rare"] = 1.5;
    if (pick(3) == 0) r[features::kTimestep] = static_cast<std::int64_t>(pick(3));
    if (pick(10) != 0) r[features::kParamPolicy] = pick(2) != 0 ? "omp" : "seq";
    if (pick(6) != 0) {
      static constexpr std::int64_t kChunks[] = {0, 0, 8, 64, 512};
      r[features::kParamChunk] = kChunks[pick(5)];
    }
    if (pick(2) != 0) r[features::kParamThreads] = static_cast<std::int64_t>(pick(3) * 2);
    if (pick(3) == 0) r[features::kMeasureBytesPerIter] = std::int64_t{24};
    if (pick(12) != 0) r[features::kMeasureRuntime] = static_cast<double>(1 + pick(4)) * 1e-6;
    records.push_back(std::move(r));
  }
  return records;
}

}  // namespace

TEST(TrainerOracle, MatchesReferenceOnCleverLeafRecordSweep) {
  const auto app = apollo::apps::make_cleverleaf();
  const auto records = record_sweep(*app, {"triple_point", 16, 3});
  ASSERT_GT(records.size(), 1000u);
  for (const TunedParameter parameter : kParameters) {
    expect_same_labeling(records, parameter, "cleverleaf");
  }
}

TEST(TrainerOracle, MatchesReferenceOnLuleshRecordSweep) {
  const auto app = apollo::apps::make_lulesh();
  const auto records = record_sweep(*app, {"sedov", 8, 3});
  ASSERT_GT(records.size(), 500u);
  for (const TunedParameter parameter : kParameters) {
    expect_same_labeling(records, parameter, "lulesh");
  }
}

TEST(TrainerOracle, MatchesReferenceOnRandomizedCorpora) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto records = random_corpus(seed);
    for (const TunedParameter parameter : kParameters) {
      expect_same_labeling(records, parameter, "seed " + std::to_string(seed));
    }
  }
}

TEST(TrainerOracle, SignedZerosShareAGroupKeepingTheFirstSeenSign) {
  std::vector<SampleRecord> records = sweep_records();
  records[0]["zero"] = -0.0;
  for (std::size_t i = 1; i < records.size(); ++i) records[i]["zero"] = 0.0;
  const LabeledData data = Trainer::build_labeled_data(records, TunedParameter::Policy);
  ASSERT_EQ(data.dataset.num_rows(), 2u);
  const std::size_t zero = data.dataset.feature_index("zero");
  EXPECT_TRUE(std::signbit(data.dataset.row(0)[zero]));
  EXPECT_EQ(data.row_counts, (std::vector<std::int64_t>{2, 2}));
  expect_same_labeling(records, TunedParameter::Policy, "signed zeros");
}

TEST(Trainer, NanFeatureValuesGroupTogether) {
  // A records file can carry `r:nan`; NaN must group with NaN (and only with
  // NaN), whichever feature it sits in.
  const double nan = apollo::perf::Value::decode("r:nan").as_real();
  ASSERT_TRUE(std::isnan(nan));
  std::vector<SampleRecord> records;
  for (int rep = 0; rep < 3; ++rep) {
    records.push_back(make_record(100, "seq", 0, 1e-6));
    records.push_back(make_record(100, "omp", 0, 1e-5));
    for (auto* r : {&records[records.size() - 2], &records.back()}) (*r)["ratio"] = nan;
  }
  records.push_back(make_record(100, "omp", 0, 1e-7));
  records.back()["ratio"] = 1.0;
  records.push_back(make_record(200, "omp", 0, 1e-7));
  records.back()["ratio"] = nan;

  const LabeledData data = Trainer::build_labeled_data(records, TunedParameter::Policy);
  ASSERT_EQ(data.dataset.num_rows(), 3u);  // {100, NaN}, {100, 1.0}, {200, NaN}
  const std::size_t ratio = data.dataset.feature_index("ratio");
  EXPECT_TRUE(std::isnan(data.dataset.row(0)[ratio]));
  EXPECT_EQ(data.dataset.row(1)[ratio], 1.0);
  EXPECT_TRUE(std::isnan(data.dataset.row(2)[ratio]));
  EXPECT_EQ(data.row_counts, (std::vector<std::int64_t>{3, 1, 1}));
  EXPECT_EQ(data.runtimes[0].size(), 2u);  // both policies measured for the NaN group
  const auto& labels = data.dataset.label_names();
  EXPECT_EQ(labels[static_cast<std::size_t>(data.dataset.label(0))], "seq");
}
