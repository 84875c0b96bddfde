// Elementwise activations.
#pragma once

#include "nn/layer.hpp"

namespace safelight::nn {

class ReLU final : public Layer {
 public:
  ReLU() = default;

  Tensor forward(Tensor x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "ReLU"; }
  Shape output_shape(const Shape& in) const override { return in; }

 private:
  std::vector<bool> mask_;  // true where input > 0
  Shape cached_shape_;
};

/// ReLU in place. The test is `v > 0`, so -0.0 and NaN both become +0.0.
/// With a mask (training), also records where v > 0 for backward; without
/// one it is a branchless select.
void relu_inplace(Tensor& x, std::vector<bool>* mask);

/// Row-wise softmax over the last dimension of a [N, C] tensor. Forward-only
/// utility (the loss uses fused log-softmax); provided for examples that want
/// class probabilities.
Tensor softmax2d(const Tensor& logits);

}  // namespace safelight::nn
