#pragma once

// Random-forest classifier: the paper's anticipated "more complex
// classifier" for larger tuning spaces (§III-B). Bagged CART trees with
// per-tree bootstrap samples and per-tree random feature subsets; majority
// vote at prediction time. Costlier to evaluate than a single tree (the
// paper's reason for preferring plain trees at every kernel launch), which
// bench/ablation_classifiers quantifies.

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"

namespace apollo::ml {

struct ForestParams {
  int num_trees = 10;
  TreeParams tree;                 ///< per-tree growth limits
  double feature_fraction = 0.7;   ///< features sampled per tree (ceil)
  double row_fraction = 1.0;       ///< bootstrap sample size relative to n
  std::uint64_t seed = 0x5eedf03e57ULL;
};

class RandomForest {
public:
  RandomForest() = default;

  static RandomForest fit(const Dataset& data, const ForestParams& params = {});

  [[nodiscard]] std::size_t tree_count() const noexcept { return trees_.size(); }
  [[nodiscard]] const std::vector<DecisionTree>& trees() const noexcept { return trees_; }
  [[nodiscard]] std::size_t num_classes() const noexcept { return num_classes_; }

  /// Majority vote over all trees (ties break toward the lower class index).
  [[nodiscard]] int predict(const std::vector<double>& features) const;
  [[nodiscard]] int predict(const double* features) const;
  [[nodiscard]] double score(const Dataset& data) const;

  /// Mean of per-tree (full-width) importances, normalized to sum 1.
  [[nodiscard]] std::vector<double> feature_importances() const;

  void save(std::ostream& out) const;
  static RandomForest load(std::istream& in);

private:
  std::size_t num_classes_ = 0;
  std::size_t num_features_ = 0;
  std::vector<DecisionTree> trees_;
  /// Per tree: map from the tree's local feature index to the dataset-wide
  /// feature index (trees train on feature subsets).
  std::vector<std::vector<std::size_t>> feature_maps_;
};

}  // namespace apollo::ml
