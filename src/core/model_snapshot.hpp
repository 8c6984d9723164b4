#pragma once

// Immutable compiled-model snapshots. A TunerModel is compiled once — feature
// names resolved to fixed sources, categorical encodings to hash lookups,
// label strings to parameter values — into a CompiledModel; a ModelSnapshot groups the policy/chunk/threads
// models of one generation behind shared_ptrs. Snapshots are never mutated
// after publication: the Runtime swaps a pointer to hand every application
// thread a consistent model set with zero locks on the decision path (the
// same RCU pattern online::ModelRegistry uses for uncompiled models).

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/tuner_model.hpp"
#include "instr/mix.hpp"
#include "raja/policy.hpp"

namespace raja {
class IndexSet;
}

namespace apollo {

class KernelHandle;

/// One feature of a loaded model, pre-resolved so tune-time evaluation does
/// no string matching: the source is fixed and categorical encodings are
/// hash lookups. Built once when a model is compiled.
struct CompiledFeature {
  enum class Source : std::uint8_t {
    Func, FuncSize, IndexType, LoopId, NumIndices, NumSegments, Stride, Mnemonic, App
  };
  Source source = Source::App;
  instr::Mnemonic mnemonic = instr::Mnemonic::count_;
  std::string key;  ///< blackboard attribute name (App source)
  std::unordered_map<std::string, double> dictionary;  ///< categorical codes
};

/// A TunerModel plus its pre-resolved feature plan, built at publish time:
/// which features the tree's splits read, and the parameter value each label
/// names. Immutable after compile().
class CompiledModel {
public:
  /// Throws std::invalid_argument when a chunk-size or threads label is not
  /// an integer.
  [[nodiscard]] static CompiledModel compile(TunerModel model);

  /// Evaluate the model on this launch. `scratch` is the caller's feature
  /// buffer (typically thread-local), sized to feature_names(); only the
  /// features the tree's splits read are resolved into it, the other slots
  /// are left as they were.
  [[nodiscard]] int predict(const KernelHandle& kernel, const raja::IndexSet& iset,
                            std::vector<double>& scratch) const;

  /// Resolve this launch's whole feature vector into `scratch` (feature_names()
  /// order) without predicting.
  void resolve_features(const KernelHandle& kernel, const raja::IndexSet& iset,
                        std::vector<double>& scratch) const;

  /// Evaluate an already-resolved feature vector.
  [[nodiscard]] int predict_encoded(const double* features) const {
    return model_.tree().predict(features);
  }

  [[nodiscard]] const TunerModel& model() const noexcept { return model_; }
  [[nodiscard]] const std::vector<CompiledFeature>& features() const noexcept {
    return features_;
  }
  /// Indices of the features some split node reads, ascending.
  [[nodiscard]] const std::vector<std::size_t>& used_features() const noexcept { return used_; }

  /// The parameter value a label names; only the table matching
  /// model().parameter() is filled.
  [[nodiscard]] raja::PolicyType policy_of(int label) const {
    return policies_[static_cast<std::size_t>(label)];
  }
  [[nodiscard]] std::int64_t chunk_of(int label) const {
    return chunks_[static_cast<std::size_t>(label)];
  }
  [[nodiscard]] unsigned threads_of(int label) const {
    return threads_[static_cast<std::size_t>(label)];
  }

private:
  [[nodiscard]] double resolve(const CompiledFeature& feature, const KernelHandle& kernel,
                               const raja::IndexSet& iset) const;

  TunerModel model_;
  std::vector<CompiledFeature> features_;
  std::vector<std::size_t> used_;
  std::vector<raja::PolicyType> policies_;
  std::vector<std::int64_t> chunks_;
  std::vector<unsigned> threads_;
};

/// One published generation of compiled tuning models. `version` is the
/// online ModelRegistry generation this snapshot was compiled from (0 for
/// offline-loaded models). Members are shared so a policy-only reload reuses
/// the previous generation's chunk/threads compilations.
struct ModelSnapshot {
  std::uint64_t version = 0;
  std::shared_ptr<const CompiledModel> policy;
  std::shared_ptr<const CompiledModel> chunk;
  std::shared_ptr<const CompiledModel> threads;

  [[nodiscard]] bool empty() const noexcept { return !policy && !chunk && !threads; }
};

}  // namespace apollo
