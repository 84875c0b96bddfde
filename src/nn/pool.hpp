// Spatial pooling layers.
#pragma once

#include "nn/layer.hpp"

namespace safelight::nn {

/// Max pooling with square window; window == stride (non-overlapping), the
/// configuration used by every model in the paper.
class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::size_t window);

  Tensor forward(Tensor x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override;
  Shape output_shape(const Shape& in) const override;

 private:
  std::size_t window_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
  Shape cached_in_shape_;
};

/// Global average pooling: [N,C,H,W] -> [N,C,1,1].
class GlobalAvgPool final : public Layer {
 public:
  GlobalAvgPool() = default;

  Tensor forward(Tensor x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "GlobalAvgPool"; }
  Shape output_shape(const Shape& in) const override;

 private:
  Shape cached_in_shape_;
};

/// Flattens [N,...] -> [N,F].
class Flatten final : public Layer {
 public:
  Flatten() = default;

  Tensor forward(Tensor x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "Flatten"; }
  Shape output_shape(const Shape& in) const override;

 private:
  Shape cached_in_shape_;
};

}  // namespace safelight::nn
