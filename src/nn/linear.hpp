// Fully-connected (dense) layer.
#pragma once

#include "nn/layer.hpp"

namespace safelight::nn {

class Linear final : public Layer {
 public:
  /// Weight shape: [out, in]; bias shape: [out].
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
         bool bias = true);

  Tensor forward(Tensor x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::string name() const override;
  Shape output_shape(const Shape& in) const override;

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

 private:
  std::size_t in_, out_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;
};

}  // namespace safelight::nn
