// Batch normalization over the channel dimension of [N,C,H,W].
#pragma once

#include "nn/layer.hpp"

namespace safelight::nn {

class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(std::size_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);

  Tensor forward(Tensor x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> state_tensors() override {
    return {&running_mean_, &running_var_};
  }
  std::string name() const override;
  Shape output_shape(const Shape& in) const override;

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  Tensor& mutable_running_mean() { return running_mean_; }
  Tensor& mutable_running_var() { return running_var_; }

 private:
  std::size_t channels_;
  float momentum_, eps_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;

  // Training-time caches for backward.
  Tensor cached_input_;
  std::vector<double> batch_mean_, batch_var_;
};

}  // namespace safelight::nn
