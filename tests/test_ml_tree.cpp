// Unit and property tests for the CART decision-tree classifier.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "ml/decision_tree.hpp"

using apollo::ml::Dataset;
using apollo::ml::DecisionTree;
using apollo::ml::TreeParams;

namespace {

/// 1D linearly separable data: label = x > 10.
Dataset separable_1d() {
  Dataset d({"x"}, {"lo", "hi"});
  for (int i = 0; i < 40; ++i) d.add_row({static_cast<double>(i)}, i > 10 ? 1 : 0);
  return d;
}

/// XOR over two binary features: needs depth >= 2.
Dataset xor_data() {
  Dataset d({"a", "b"}, {"zero", "one"});
  for (int rep = 0; rep < 5; ++rep) {
    d.add_row({0.0, 0.0}, 0);
    d.add_row({0.0, 1.0}, 1);
    d.add_row({1.0, 0.0}, 1);
    d.add_row({1.0, 1.0}, 0);
  }
  return d;
}

TreeParams loose() {
  TreeParams p;
  p.min_samples_leaf = 1;
  p.min_samples_split = 2;
  return p;
}

}  // namespace

TEST(DecisionTree, EmptyDatasetGivesEmptyTree) {
  const Dataset d({"x"}, {"a"});
  const DecisionTree tree = DecisionTree::fit(d);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.predict(std::vector<double>{1.0}), 0);  // safe default
}

TEST(DecisionTree, PerfectOnSeparableData) {
  const Dataset d = separable_1d();
  const DecisionTree tree = DecisionTree::fit(d, loose());
  EXPECT_DOUBLE_EQ(tree.score(d), 1.0);
  EXPECT_EQ(tree.depth(), 1);
  EXPECT_EQ(tree.node_count(), 3u);
}

TEST(DecisionTree, ThresholdIsMidpoint) {
  const Dataset d = separable_1d();
  const DecisionTree tree = DecisionTree::fit(d, loose());
  const auto& root = tree.nodes()[0];
  EXPECT_EQ(root.feature, 0);
  EXPECT_DOUBLE_EQ(root.threshold, 10.5);
}

TEST(DecisionTree, PureDatasetIsSingleLeaf) {
  Dataset d({"x"}, {"only", "other"});
  for (int i = 0; i < 10; ++i) d.add_row({static_cast<double>(i)}, 0);
  const DecisionTree tree = DecisionTree::fit(d);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict(std::vector<double>{3.0}), 0);
}

TEST(DecisionTree, ConstantFeaturesGiveMajorityLeaf) {
  Dataset d({"x"}, {"a", "b"});
  for (int i = 0; i < 7; ++i) d.add_row({1.0}, 0);
  for (int i = 0; i < 3; ++i) d.add_row({1.0}, 1);
  const DecisionTree tree = DecisionTree::fit(d, loose());
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict(std::vector<double>{1.0}), 0);
}

TEST(DecisionTree, XorNeedsDepthTwo) {
  const Dataset d = xor_data();
  TreeParams shallow = loose();
  shallow.max_depth = 1;
  EXPECT_LT(DecisionTree::fit(d, shallow).score(d), 1.0);
  TreeParams deep = loose();
  deep.max_depth = 2;
  EXPECT_DOUBLE_EQ(DecisionTree::fit(d, deep).score(d), 1.0);
}

TEST(DecisionTree, MaxDepthRespected) {
  std::mt19937 rng(3);
  Dataset d({"x", "y"}, {"a", "b"});
  std::uniform_real_distribution<double> dist(0, 1);
  for (int i = 0; i < 500; ++i) {
    const double x = dist(rng), y = dist(rng);
    d.add_row({x, y}, (std::sin(20 * x) + std::cos(17 * y)) > 0 ? 1 : 0);
  }
  for (int depth : {1, 3, 5, 8}) {
    TreeParams p = loose();
    p.max_depth = depth;
    EXPECT_LE(DecisionTree::fit(d, p).depth(), depth);
  }
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  const Dataset d = separable_1d();
  TreeParams p = loose();
  p.min_samples_leaf = 5;
  const DecisionTree tree = DecisionTree::fit(d, p);
  for (const auto& node : tree.nodes()) {
    if (node.feature < 0) EXPECT_GE(node.samples, 5);
  }
}

TEST(DecisionTree, MultiClass) {
  Dataset d({"x"}, {"a", "b", "c"});
  for (int i = 0; i < 30; ++i) d.add_row({static_cast<double>(i)}, i < 10 ? 0 : (i < 20 ? 1 : 2));
  const DecisionTree tree = DecisionTree::fit(d, loose());
  EXPECT_DOUBLE_EQ(tree.score(d), 1.0);
  EXPECT_EQ(tree.predict(std::vector<double>{5.0}), 0);
  EXPECT_EQ(tree.predict(std::vector<double>{15.0}), 1);
  EXPECT_EQ(tree.predict(std::vector<double>{25.0}), 2);
}

TEST(DecisionTree, PredictValidatesWidth) {
  const DecisionTree tree = DecisionTree::fit(separable_1d(), loose());
  EXPECT_THROW((void)tree.predict(std::vector<double>{1.0, 2.0}), std::invalid_argument);
}

TEST(DecisionTree, ImportancesConcentrateOnInformativeFeature) {
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> dist(0, 1);
  Dataset d({"noise", "signal"}, {"a", "b"});
  for (int i = 0; i < 400; ++i) {
    const double noise = dist(rng), signal = dist(rng);
    d.add_row({noise, signal}, signal > 0.5 ? 1 : 0);
  }
  const DecisionTree tree = DecisionTree::fit(d, loose());
  const auto importances = tree.feature_importances();
  ASSERT_EQ(importances.size(), 2u);
  EXPECT_NEAR(importances[0] + importances[1], 1.0, 1e-9);
  EXPECT_GT(importances[1], 0.9);
}

TEST(DecisionTree, ImportancesZeroForLeafTree) {
  Dataset d({"x"}, {"a", "b"});
  d.add_row({1.0}, 0);
  d.add_row({1.0}, 0);
  const auto importances = DecisionTree::fit(d).feature_importances();
  EXPECT_DOUBLE_EQ(importances[0], 0.0);
}

TEST(DecisionTree, PruneReducesDepthKeepsMajority) {
  const Dataset d = xor_data();
  TreeParams p = loose();
  const DecisionTree tree = DecisionTree::fit(d, p);
  ASSERT_GE(tree.depth(), 2);
  const DecisionTree pruned = tree.prune_to_depth(1);
  EXPECT_LE(pruned.depth(), 1);
  const DecisionTree root_only = tree.prune_to_depth(0);
  EXPECT_EQ(root_only.node_count(), 1u);
  // Root-only prediction is the global majority class.
  EXPECT_EQ(root_only.predict(std::vector<double>{0.0, 0.0}),
            root_only.predict(std::vector<double>{1.0, 0.0}));
}

TEST(DecisionTree, PruneDeeperThanTreeIsIdentityInBehaviour) {
  const Dataset d = separable_1d();
  const DecisionTree tree = DecisionTree::fit(d, loose());
  const DecisionTree pruned = tree.prune_to_depth(30);
  EXPECT_DOUBLE_EQ(pruned.score(d), tree.score(d));
  EXPECT_EQ(pruned.node_count(), tree.node_count());
}

TEST(DecisionTree, SaveLoadRoundTrip) {
  std::mt19937 rng(9);
  std::uniform_real_distribution<double> dist(0, 1);
  Dataset d({"u", "v", "w"}, {"p", "q", "r"});
  for (int i = 0; i < 300; ++i) {
    const double u = dist(rng), v = dist(rng), w = dist(rng);
    d.add_row({u, v, w}, u > 0.6 ? 2 : (v + w > 1.0 ? 1 : 0));
  }
  const DecisionTree tree = DecisionTree::fit(d, loose());
  std::stringstream stream;
  tree.save(stream);
  const DecisionTree back = DecisionTree::load(stream);
  EXPECT_EQ(back.node_count(), tree.node_count());
  EXPECT_EQ(back.feature_names(), tree.feature_names());
  EXPECT_EQ(back.label_names(), tree.label_names());
  for (std::size_t r = 0; r < d.num_rows(); ++r) {
    EXPECT_EQ(back.predict(d.row(r).data()), tree.predict(d.row(r).data()));
  }
}

TEST(DecisionTree, LoadRejectsGarbage) {
  std::stringstream bad("not-a-tree 1\n");
  EXPECT_THROW((void)DecisionTree::load(bad), std::runtime_error);
}

TEST(DecisionTree, ToTextMentionsFeaturesAndLabels) {
  const DecisionTree tree = DecisionTree::fit(separable_1d(), loose());
  const std::string text = tree.to_text();
  EXPECT_NE(text.find("if (x <= 10.5"), std::string::npos);
  EXPECT_NE(text.find("-> hi"), std::string::npos);
  EXPECT_NE(text.find("-> lo"), std::string::npos);
}

class DepthAccuracySweep : public ::testing::TestWithParam<int> {};

TEST_P(DepthAccuracySweep, DeeperNeverWorseOnTraining) {
  std::mt19937 rng(13);
  std::uniform_real_distribution<double> dist(0, 1);
  Dataset d({"x", "y"}, {"a", "b"});
  for (int i = 0; i < 600; ++i) {
    const double x = dist(rng), y = dist(rng);
    d.add_row({x, y}, (x - 0.5) * (y - 0.5) > 0 ? 1 : 0);
  }
  TreeParams shallow = loose();
  shallow.max_depth = GetParam();
  TreeParams deeper = loose();
  deeper.max_depth = GetParam() + 1;
  EXPECT_LE(DecisionTree::fit(d, shallow).score(d), DecisionTree::fit(d, deeper).score(d) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthAccuracySweep, ::testing::Values(1, 2, 3, 5, 8, 12));

// --- predict(): the one evaluator every tuned launch runs --------------------
// A split sends a value left when `value <= threshold` and right otherwise,
// so NaN (every comparison false) goes right, -inf left, +inf right, and a
// value exactly on the threshold left.

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Assert predict() on `v` follows the split rule at every step of its path
/// and returns the label of the leaf it lands on.
void expect_walk_follows_split_rule(const DecisionTree& tree, const std::vector<double>& v) {
  std::vector<int> path;
  const int label = tree.predict_path(v.data(), path);
  ASSERT_EQ(tree.predict(v.data()), label);
  ASSERT_EQ(path.front(), 0);
  const auto& nodes = tree.nodes();
  for (std::size_t step = 0; step + 1 < path.size(); ++step) {
    const auto& node = nodes[static_cast<std::size_t>(path[step])];
    ASSERT_GE(node.feature, 0) << "walk continued past a leaf";
    const double x = v[static_cast<std::size_t>(node.feature)];
    const bool left = !std::isnan(x) && x <= node.threshold;
    ASSERT_EQ(path[step + 1], left ? node.left : node.right) << "x=" << x;
  }
  EXPECT_LT(nodes[static_cast<std::size_t>(path.back())].feature, 0);
  EXPECT_EQ(nodes[static_cast<std::size_t>(path.back())].label, label);
}

/// A fitted tree of real depth over `features` columns (label = |sum| mod
/// `classes`, 10% noise), plus probes that hit NaN, +/-inf and exact node
/// thresholds as well as ordinary values.
DecisionTree random_tree(std::mt19937_64& rng, std::size_t features, int classes) {
  std::vector<std::string> feature_names, label_names;
  for (std::size_t f = 0; f < features; ++f) feature_names.push_back("f" + std::to_string(f));
  for (int c = 0; c < classes; ++c) label_names.push_back("c" + std::to_string(c));
  Dataset d(feature_names, label_names);
  std::uniform_real_distribution<double> value(-10.0, 10.0);
  for (int r = 0; r < 250; ++r) {
    std::vector<double> row(features);
    double sum = 0.0;
    for (auto& x : row) sum += (x = value(rng));
    const int noise = rng() % 10 == 0 ? 1 : 0;
    d.add_row(row, (static_cast<int>(std::fabs(sum)) + noise) % classes);
  }
  return DecisionTree::fit(d, loose());
}

std::vector<double> probe(std::mt19937_64& rng, const DecisionTree& tree, std::size_t features) {
  std::uniform_real_distribution<double> value(-12.0, 12.0);
  std::vector<double> v(features);
  for (auto& x : v) x = value(rng);
  const std::size_t f = rng() % features;
  switch (rng() % 10) {
    case 0: v[f] = kNaN; break;
    case 1: v[f] = kInf; break;
    case 2: v[f] = -kInf; break;
    case 3: {
      const auto& node = tree.nodes()[rng() % tree.node_count()];
      if (node.feature >= 0) v[static_cast<std::size_t>(node.feature)] = node.threshold;
      break;
    }
    default: break;
  }
  return v;
}

/// One split on x at 5.0; `swapped` stores the children in reverse order
/// (the loader accepts any forward-pointing layout, not just preorder).
DecisionTree one_split_tree(bool swapped) {
  std::stringstream io;
  io << "apollo-tree 1\nfeatures 1 x\nlabels 2 lo hi\nnodes 3\n"
     << (swapped ? "0 5 2 1 0 10 0.5\n-1 0 -1 -1 1 4 0\n-1 0 -1 -1 0 6 0\n"
                 : "0 5 1 2 0 10 0.5\n-1 0 -1 -1 0 6 0\n-1 0 -1 -1 1 4 0\n");
  return DecisionTree::load(io);
}

}  // namespace

TEST(DecisionTreePredict, NaNGoesRightInfinitiesAndThresholdCompare) {
  const DecisionTree tree = one_split_tree(false);
  const auto at = [&](double x) { return tree.predict(&x); };
  EXPECT_EQ(at(4.9), 0);
  EXPECT_EQ(at(5.0), 0) << "a value on the threshold goes left (<=)";
  EXPECT_EQ(at(std::nextafter(5.0, 6.0)), 1);
  EXPECT_EQ(at(-kInf), 0);
  EXPECT_EQ(at(kInf), 1);
  EXPECT_EQ(at(kNaN), 1) << "NaN goes right";
}

TEST(DecisionTreePredict, NonPreorderLoadedTreeFollowsStoredChildren) {
  const DecisionTree tree = one_split_tree(true);  // left=2 (lo), right=1 (hi)
  for (double x : {-1.0, 4.9, 5.0}) EXPECT_EQ(tree.predict(&x), 0) << "x=" << x;
  for (double x : {5.1, 100.0, kNaN}) EXPECT_EQ(tree.predict(&x), 1) << "x=" << x;
  for (double x : {-1.0, 5.0, 5.1, kNaN}) expect_walk_follows_split_rule(tree, {x});
}

TEST(DecisionTreePredict, SingleLeafAnswersItsLabelForAnyInput) {
  Dataset d({"x"}, {"only", "other"});
  for (int i = 0; i < 10; ++i) d.add_row({static_cast<double>(i)}, 1);
  const DecisionTree tree = DecisionTree::fit(d);
  ASSERT_EQ(tree.node_count(), 1u);
  for (double x : {3.0, -1e300, kNaN}) EXPECT_EQ(tree.predict(&x), 1) << "x=" << x;
}

TEST(DecisionTreePredict, FuzzRandomTreesFollowSplitRule) {
  std::mt19937_64 rng(0xf1a77ee5ULL);
  for (int round = 0; round < 25; ++round) {
    const std::size_t features = 2 + rng() % 5;
    const DecisionTree tree = random_tree(rng, features, 2 + static_cast<int>(rng() % 3));
    ASSERT_GT(tree.depth(), 1);
    for (int p = 0; p < 200; ++p) {
      expect_walk_follows_split_rule(tree, probe(rng, tree, features));
      if (HasFatalFailure()) FAIL() << "round " << round;
    }
  }
}

TEST(DecisionTreePredict, PruneAndSaveLoadKeepTheSplitRule) {
  std::mt19937_64 rng(0x5eedULL);
  const DecisionTree tree = random_tree(rng, 4, 3);
  const DecisionTree pruned = tree.prune_to_depth(2);
  std::stringstream io;
  tree.save(io);
  const DecisionTree reloaded = DecisionTree::load(io);
  for (int p = 0; p < 150; ++p) {
    const std::vector<double> v = probe(rng, tree, 4);
    EXPECT_EQ(reloaded.predict(v.data()), tree.predict(v.data()));
    expect_walk_follows_split_rule(pruned, v);
    std::vector<int> path;
    (void)pruned.predict_path(v.data(), path);
    EXPECT_LE(path.size(), 3u) << "pruned walk deeper than 2";
  }
}

TEST(DecisionTreePredict, DeepLoadedSpineWalksToItsLeaves) {
  // A 40000-deep left spine: node i splits at 0.5 - i, its right child is a
  // hi leaf, and the spine ends in a lo leaf. The walk is iterative, so any
  // depth the loader accepts is servable.
  constexpr int kDepth = 40000;
  std::stringstream io;
  io << "apollo-tree 1\nfeatures 1 x\nlabels 2 lo hi\nnodes " << (2 * kDepth + 1) << '\n';
  for (int i = 0; i < kDepth; ++i) {
    const int left = i + 1 < kDepth ? i + 1 : kDepth;
    io << "0 " << (0.5 - i) << ' ' << left << ' ' << (kDepth + 1 + i) << " 0 1 0.1\n";
  }
  io << "-1 0 -1 -1 0 1 0\n";  // terminal left leaf (index kDepth)
  for (int i = 0; i < kDepth; ++i) io << "-1 0 -1 -1 1 1 0\n";
  const DecisionTree tree = DecisionTree::load(io);
  ASSERT_EQ(tree.node_count(), static_cast<std::size_t>(2 * kDepth + 1));
  const double high = 100.0, bottom = -1e9, mid = -99.75;
  EXPECT_EQ(tree.predict(&high), 1);
  EXPECT_EQ(tree.predict(&bottom), 0);
  // -99.75 goes left through node 100 (threshold -99.5), right at node 101.
  std::vector<int> path;
  EXPECT_EQ(tree.predict_path(&mid, path), 1);
  EXPECT_EQ(path.size(), 103u);
  EXPECT_EQ(path.back(), kDepth + 1 + 101);
}
