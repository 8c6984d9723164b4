#include "core/model_snapshot.hpp"

#include <stdexcept>
#include <string>

#include "core/features.hpp"
#include "core/kernel.hpp"
#include "perf/blackboard.hpp"
#include "raja/index_set.hpp"

namespace apollo {

CompiledModel CompiledModel::compile(TunerModel model) {
  using Source = CompiledFeature::Source;
  CompiledModel compiled;
  compiled.features_.reserve(model.tree().feature_names().size());
  for (const auto& name : model.tree().feature_names()) {
    CompiledFeature feature;
    if (name == features::kFunc) {
      feature.source = Source::Func;
    } else if (name == features::kFuncSize) {
      feature.source = Source::FuncSize;
    } else if (name == features::kIndexType) {
      feature.source = Source::IndexType;
    } else if (name == features::kLoopId) {
      feature.source = Source::LoopId;
    } else if (name == features::kNumIndices) {
      feature.source = Source::NumIndices;
    } else if (name == features::kNumSegments) {
      feature.source = Source::NumSegments;
    } else if (name == features::kStride) {
      feature.source = Source::Stride;
    } else {
      feature.source = Source::App;
      feature.key = name;
      for (std::size_t m = 0; m < instr::kMnemonicCount; ++m) {
        const auto mnemonic = static_cast<instr::Mnemonic>(m);
        if (name == instr::mnemonic_name(mnemonic)) {
          feature.source = Source::Mnemonic;
          feature.mnemonic = mnemonic;
          break;
        }
      }
    }
    auto dict_it = model.dictionaries().find(name);
    if (dict_it != model.dictionaries().end()) {
      for (std::size_t code = 0; code < dict_it->second.size(); ++code) {
        feature.dictionary.emplace(dict_it->second[code], static_cast<double>(code));
      }
    }
    compiled.features_.push_back(std::move(feature));
  }

  std::vector<bool> read(compiled.features_.size(), false);
  for (const auto& node : model.tree().nodes()) {
    if (node.feature >= 0) read[static_cast<std::size_t>(node.feature)] = true;
  }
  for (std::size_t f = 0; f < read.size(); ++f) {
    if (read[f]) compiled.used_.push_back(f);
  }

  for (const auto& label : model.tree().label_names()) {
    try {
      switch (model.parameter()) {
        case TunedParameter::Policy:
          compiled.policies_.push_back(raja::policy_from_name(label));
          break;
        case TunedParameter::ChunkSize: compiled.chunks_.push_back(std::stoll(label)); break;
        case TunedParameter::Threads:
          compiled.threads_.push_back(static_cast<unsigned>(std::stoul(label)));
          break;
      }
    } catch (const std::logic_error&) {
      throw std::invalid_argument(std::string("CompiledModel: ") +
                                  tuned_parameter_name(model.parameter()) + " label '" + label +
                                  "' is not an integer");
    }
  }
  compiled.model_ = std::move(model);
  return compiled;
}

double CompiledModel::resolve(const CompiledFeature& feature, const KernelHandle& kernel,
                              const raja::IndexSet& iset) const {
  using Source = CompiledFeature::Source;
  const auto categorical = [&](const std::string& text) {
    auto it = feature.dictionary.find(text);
    return it != feature.dictionary.end() ? it->second : -1.0;
  };
  switch (feature.source) {
    case Source::Func: return categorical(kernel.func());
    case Source::FuncSize: return static_cast<double>(kernel.mix().total());
    case Source::IndexType: return categorical(iset.type_name());
    case Source::LoopId: return categorical(kernel.loop_id());
    case Source::NumIndices: return static_cast<double>(iset.getLength());
    case Source::NumSegments: return static_cast<double>(iset.getNumSegments());
    case Source::Stride: return static_cast<double>(iset.stride());
    case Source::Mnemonic: return static_cast<double>(kernel.mix().count(feature.mnemonic));
    case Source::App: {
      const auto attr = perf::Blackboard::instance().get(feature.key);
      if (!attr) return -1.0;
      return attr->is_string() ? categorical(attr->as_string()) : attr->as_number();
    }
  }
  return -1.0;
}

void CompiledModel::resolve_features(const KernelHandle& kernel, const raja::IndexSet& iset,
                                     std::vector<double>& scratch) const {
  scratch.resize(features_.size());
  for (std::size_t f = 0; f < features_.size(); ++f) {
    scratch[f] = resolve(features_[f], kernel, iset);
  }
}

int CompiledModel::predict(const KernelHandle& kernel, const raja::IndexSet& iset,
                           std::vector<double>& scratch) const {
  scratch.resize(features_.size());
  for (const std::size_t f : used_) scratch[f] = resolve(features_[f], kernel, iset);
  return predict_encoded(scratch.data());
}

}  // namespace apollo
