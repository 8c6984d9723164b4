// Cross-cutting property tests: parameterized sweeps over the invariants the
// reproduction depends on (tree/codegen equivalence, labeling optimality,
// model-vs-oracle bounds, scheduling coverage under composition).

#include <gtest/gtest.h>

#include <filesystem>
#include <ostream>
#include <random>

#include "core/trainer.hpp"
#include "ml/codegen.hpp"
#include "ml/decision_tree.hpp"
#include "raja/forall.hpp"
#include "sim/machine.hpp"

using namespace apollo;

namespace {

ml::Dataset random_dataset(std::uint64_t seed, std::size_t features, std::size_t classes,
                           std::size_t rows) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(0, 1);
  std::vector<std::string> feature_names, label_names;
  for (std::size_t f = 0; f < features; ++f) feature_names.push_back("f" + std::to_string(f));
  for (std::size_t c = 0; c < classes; ++c) label_names.push_back("c" + std::to_string(c));
  ml::Dataset d(std::move(feature_names), std::move(label_names));
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> row(features);
    for (auto& v : row) v = dist(rng);
    // Hidden rule: class from a threshold grid over the first two features.
    const int label =
        static_cast<int>((row[0] > 0.5 ? 1 : 0) + (features > 1 && row[1] > 0.5 ? 1 : 0)) %
        static_cast<int>(classes);
    d.add_row(std::move(row), label);
  }
  return d;
}

}  // namespace

class TreeCodegenEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeCodegenEquivalence, CompiledMatchesInterpreted) {
  const ml::Dataset data = random_dataset(GetParam(), 4, 3, 400);
  ml::TreeParams params;
  params.max_depth = 10;
  const ml::DecisionTree tree = ml::DecisionTree::fit(data, params);
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("apollo_prop_" + std::to_string(GetParam())))
          .string();
  std::filesystem::create_directories(dir);
  const auto predictor = ml::CompiledPredictor::compile(
      ml::generate_cpp(tree, "prop_model"), "prop_model", dir);
  std::mt19937_64 rng(GetParam() ^ 0xabcdef);
  std::uniform_real_distribution<double> dist(-0.2, 1.2);
  for (int i = 0; i < 500; ++i) {
    double f[4];
    for (double& v : f) v = dist(rng);
    ASSERT_EQ(predictor.predict(f), tree.predict(f));
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeCodegenEquivalence, ::testing::Values(1u, 2u, 3u));

class PruneMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PruneMonotonicity, TrainingAccuracyNonDecreasingInDepth) {
  const ml::Dataset data = random_dataset(GetParam(), 3, 2, 500);
  ml::TreeParams params;
  params.max_depth = 25;
  params.min_samples_leaf = 1;
  const ml::DecisionTree full = ml::DecisionTree::fit(data, params);
  double prev = 0.0;
  for (int depth = 0; depth <= full.depth(); ++depth) {
    const double score = full.prune_to_depth(depth).score(data);
    EXPECT_GE(score, prev - 1e-12) << "depth " << depth;
    prev = score;
  }
  EXPECT_DOUBLE_EQ(full.prune_to_depth(full.depth()).score(data), full.score(data));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruneMonotonicity, ::testing::Values(11u, 12u, 13u, 14u));

class LabelingOptimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LabelingOptimality, OracleIsLowerBoundOverAllStatics) {
  // Random synthetic sweep records: the oracle total never exceeds any
  // static assignment, and a perfect predictor achieves the oracle.
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> runtime_dist(1e-6, 1e-3);
  std::uniform_int_distribution<int> n_dist(1, 50);
  std::vector<perf::SampleRecord> records;
  for (int group = 0; group < 30; ++group) {
    const std::int64_t n = n_dist(rng) * 100;
    for (const char* policy : {"seq", "omp"}) {
      perf::SampleRecord r;
      r["loop_id"] = "k" + std::to_string(group % 5);
      r["num_indices"] = n;
      r["group"] = group;  // force distinct rows
      r["param:policy"] = policy;
      r["measure:runtime"] = runtime_dist(rng);
      records.push_back(std::move(r));
    }
  }
  const LabeledData data = Trainer::build_labeled_data(records, TunedParameter::Policy);
  const double oracle = data.total_runtime_oracle();
  for (std::size_t label = 0; label < data.dataset.num_classes(); ++label) {
    EXPECT_LE(oracle, data.total_runtime_static(static_cast<int>(label)) + 1e-15);
  }
  std::vector<int> perfect;
  for (std::size_t r = 0; r < data.dataset.num_rows(); ++r) {
    perfect.push_back(data.dataset.label(r));
  }
  EXPECT_NEAR(data.total_runtime_predicted(perfect), oracle, 1e-15);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LabelingOptimality, ::testing::Values(5u, 6u, 7u, 8u, 9u));

struct MixCase {
  int fp;
  int div;
  int load;
  std::int64_t bytes;
};

/// Prints the case from its fields. gtest_discover_tests names each case by
/// this printout (Suite.Test/<printed param>); without it gtest dumps the
/// struct's bytes, padding included, and the test ID changes between builds.
void PrintTo(const MixCase& c, std::ostream* os) {
  *os << "fp" << c.fp << "_div" << c.div << "_load" << c.load << "_bytes" << c.bytes;
}

class ModelSanitySweep : public ::testing::TestWithParam<MixCase> {};

TEST_P(ModelSanitySweep, CostsPositiveMonotoneAndCrossoverOrdered) {
  const auto param = GetParam();
  const sim::MachineModel m;
  sim::CostQuery q;
  q.mix = instr::MixBuilder{}.fp(param.fp).div(param.div).load(param.load).build();
  q.bytes_per_iteration = param.bytes;
  q.threads = 16;

  double prev_seq = 0.0;
  for (std::int64_t n : {10, 100, 1000, 10000, 100000}) {
    q.num_indices = n;
    q.policy = sim::PolicyKind::Sequential;
    const double seq = m.cost_seconds(q);
    q.policy = sim::PolicyKind::OpenMP;
    const double omp = m.cost_seconds(q);
    ASSERT_GT(seq, 0.0);
    ASSERT_GT(omp, 0.0);
    ASSERT_GT(seq, prev_seq);
    prev_seq = seq;
    // OpenMP never beats the region-spawn floor.
    ASSERT_GE(omp, m.config().omp_region_us * 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Mixes, ModelSanitySweep,
                         ::testing::Values(MixCase{2, 0, 1, 8}, MixCase{10, 1, 4, 64},
                                           MixCase{50, 5, 20, 256}, MixCase{4, 0, 2, 0},
                                           MixCase{0, 0, 2, 32}));

struct ScheduleCase {
  std::int64_t n;
  std::int64_t chunk;
  unsigned threads;
};

void PrintTo(const ScheduleCase& c, std::ostream* os) {  // stable test ID, as for MixCase
  *os << "n" << c.n << "_chunk" << c.chunk << "_threads" << c.threads;
}

class ForallComposition : public ::testing::TestWithParam<ScheduleCase> {};

TEST_P(ForallComposition, MixedIndexSetCoverage) {
  const auto param = GetParam();
  raja::IndexSet iset;
  iset.push_back(raja::RangeSegment{0, param.n});
  iset.push_back(raja::StridedSegment{param.n * 2, param.n * 2 + 40, 4});
  std::vector<raja::Index> list;
  for (raja::Index i = 0; i < 17; ++i) list.push_back(param.n * 3 + i * 3);
  iset.push_back(raja::ListSegment{std::move(list)});

  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(param.n * 3 + 60));
  apollo::par::ThreadPool pool(param.threads);
  for (std::size_t s = 0; s < iset.getNumSegments(); ++s) {
    std::visit(
        [&](const auto& seg) {
          using Seg = std::decay_t<decltype(seg)>;
          if constexpr (std::is_same_v<Seg, raja::RangeSegment>) {
            pool.parallel_for(seg.begin, seg.end, param.chunk,
                              [&](raja::Index i) { hits[static_cast<std::size_t>(i)]++; });
          } else {
            seg.for_each([&](raja::Index i) { hits[static_cast<std::size_t>(i)]++; });
          }
        },
        iset.segment(s));
  }
  std::int64_t total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, iset.getLength());
}

INSTANTIATE_TEST_SUITE_P(Schedules, ForallComposition,
                         ::testing::Values(ScheduleCase{100, 0, 2}, ScheduleCase{100, 1, 4},
                                           ScheduleCase{1000, 16, 3}, ScheduleCase{37, 64, 2},
                                           ScheduleCase{512, 7, 1}));
