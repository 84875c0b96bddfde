// Sequential model container.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace safelight::nn {

class Sequential final : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; returns a reference to the added layer for chaining.
  Layer& add(LayerPtr layer);

  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  Tensor forward(Tensor x, bool train) override;

  /// Resumes a forward pass at `begin_layer` from a previously computed
  /// activation `h` (the output of layer begin_layer - 1). forward(x, t) is
  /// exactly forward_from(0, x, t); splitting a pass at any boundary yields
  /// bitwise-identical outputs. This is the entry point of the attack
  /// sweep's prefix-activation cache: scenarios that only corrupt layers
  /// >= L re-use the cached clean activations for layers < L.
  Tensor forward_from(std::size_t begin_layer, Tensor h, bool train);

  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::vector<Tensor*> state_tensors() override;
  std::string name() const override;
  Shape output_shape(const Shape& in) const override;

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i);
  const Layer& layer(std::size_t i) const;

  /// What layer i's weights map onto: kConvWeight when it holds any conv
  /// weight, else kLinearWeight when it holds any linear weight, else
  /// kElectronic (not mapped onto MRs). Decided once, in add(), so the
  /// accelerator's per-batch layer walk asks without allocating.
  ParamKind weight_kind(std::size_t i) const;

  /// Total trainable scalar parameters.
  std::size_t num_parameters();

  /// Inference helper: argmax class per row of the [N, classes] output.
  std::vector<int> predict(const Tensor& x);

  /// Fraction of correct predictions over a labeled batch.
  double accuracy(const Tensor& x, const std::vector<int>& labels);

  /// Multi-line human-readable architecture summary.
  std::string summary();

 private:
  std::vector<LayerPtr> layers_;
  std::vector<ParamKind> weight_kinds_;  // weight_kind() per layer
};

}  // namespace safelight::nn
